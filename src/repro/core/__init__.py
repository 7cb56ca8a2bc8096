"""The paper's primary contribution: BCC model, search algorithms and indexes."""

from repro.core.bc_index import BCIndex, build_bc_index
from repro.core.bcc_model import (
    BCCParameters,
    BCCResult,
    decompose_community,
    is_bcc,
    resolve_query_labels,
    validate_bcc,
)
from repro.core.butterfly import (
    brute_force_butterfly_degrees,
    butterfly_degree_of,
    butterfly_degrees,
    enumerate_butterflies,
    max_butterfly_degree_per_side,
    total_butterflies,
)
from repro.core.find_g0 import G0Result, find_g0, maximal_bcc_exists
from repro.core.kcore import (
    core_decomposition,
    degeneracy,
    is_k_core,
    k_core,
    k_core_containing,
    k_core_vertices,
    maintain_k_core,
    max_core_value_containing,
)
from repro.core.ktruss import (
    is_k_truss,
    k_truss,
    k_truss_containing,
    k_truss_vertices,
    max_truss_value_containing,
    truss_decomposition,
)
from repro.core.leader_pair import (
    Leader,
    LeaderPairTracker,
    identify_leader,
    identify_leader_pair,
    updated_leader_degree,
)
from repro.core.local_search import l2p_bcc_search
from repro.core.lp_bcc import lp_bcc_search
from repro.core.maintenance import MaintenanceResult, maintain_bcc, maintain_label_core
from repro.core.multilabel import (
    MBCCResult,
    cross_group_connected,
    find_mbcc_candidate,
    mbcc_search,
)
from repro.core.online_bcc import online_bcc_search
from repro.core.path_weight import (
    PathWeightConfig,
    butterfly_core_shortest_path,
    path_weight,
)
from repro.core.query_distance import QueryDistanceTracker

__all__ = [
    "BCIndex",
    "BCCParameters",
    "BCCResult",
    "G0Result",
    "Leader",
    "LeaderPairTracker",
    "MBCCResult",
    "MaintenanceResult",
    "PathWeightConfig",
    "QueryDistanceTracker",
    "brute_force_butterfly_degrees",
    "build_bc_index",
    "butterfly_core_shortest_path",
    "butterfly_degree_of",
    "butterfly_degrees",
    "core_decomposition",
    "cross_group_connected",
    "decompose_community",
    "degeneracy",
    "enumerate_butterflies",
    "find_g0",
    "find_mbcc_candidate",
    "identify_leader",
    "identify_leader_pair",
    "is_bcc",
    "is_k_core",
    "is_k_truss",
    "k_core",
    "k_core_containing",
    "k_core_vertices",
    "k_truss",
    "k_truss_containing",
    "k_truss_vertices",
    "l2p_bcc_search",
    "lp_bcc_search",
    "maintain_bcc",
    "maintain_k_core",
    "maintain_label_core",
    "max_butterfly_degree_per_side",
    "max_core_value_containing",
    "max_truss_value_containing",
    "maximal_bcc_exists",
    "mbcc_search",
    "online_bcc_search",
    "path_weight",
    "resolve_query_labels",
    "total_butterflies",
    "truss_decomposition",
    "updated_leader_degree",
    "validate_bcc",
]

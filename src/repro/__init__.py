"""Butterfly-Core Community Search over Labeled Graphs — reproduction library.

This package reproduces the system described in "Butterfly-Core Community
Search over Labeled Graphs" (PVLDB 2021): the (k1, k2, b)-BCC community model,
the Online-BCC / LP-BCC / L2P-BCC search algorithms, the multi-labeled mBCC
extension, the CTC and PSA baselines, synthetic stand-ins for the paper's
evaluation datasets, and the experiment harness regenerating every table and
figure of the evaluation section.

Quickstart
----------
>>> from repro import BCCEngine, Query, datasets
>>> bundle = datasets.generate_baidu_network(seed=1)
>>> engine = BCCEngine(bundle.graph).prepare()
>>> response = engine.search(Query("lp-bcc", bundle.default_query()))
>>> response.found
True

Every search, whichever of the six methods it runs, is a
``BCCEngine.search``.
"""

from repro.core import (
    BCIndex,
    BCCParameters,
    BCCResult,
    MBCCResult,
    butterfly_degrees,
    core_decomposition,
    find_g0,
    is_bcc,
    validate_bcc,
)
from repro.graph import (
    BipartiteView,
    LabeledGraph,
    compute_statistics,
    extract_bipartite,
)
from repro.api import (
    BCCEngine,
    BatchQuery,
    Query,
    SearchConfig,
    SearchResponse,
    get_method,
    method_names,
    register_method,
)
from repro.serving import (
    GraphDirectory,
    ServingStats,
    ShardedBCCEngine,
)
from repro.server import (
    Gateway,
    GatewayClient,
    ReplicaSet,
)
from repro.store import (
    Snapshot,
    SnapshotStore,
    SnapshotWriter,
)
from repro.parallel import (
    ProcessEngine,
    ProcessWorkerPool,
)

__version__ = "1.26.0"

__all__ = [
    "BCCEngine",
    "BCIndex",
    "BatchQuery",
    "Gateway",
    "GatewayClient",
    "GraphDirectory",
    "ProcessEngine",
    "ProcessWorkerPool",
    "ReplicaSet",
    "ServingStats",
    "ShardedBCCEngine",
    "Snapshot",
    "SnapshotStore",
    "SnapshotWriter",
    "Query",
    "SearchConfig",
    "SearchResponse",
    "get_method",
    "method_names",
    "register_method",
    "BCCParameters",
    "BCCResult",
    "BipartiteView",
    "LabeledGraph",
    "MBCCResult",
    "butterfly_degrees",
    "compute_statistics",
    "core_decomposition",
    "extract_bipartite",
    "find_g0",
    "is_bcc",
    "validate_bcc",
    "__version__",
]

"""Algorithm 2: find the maximal connected (k1, k2, b)-BCC ``G0`` containing Q.

Given the query vertices ``Q = {q_l, q_r}`` with different labels and
parameters ``{k1, k2, b}``, the algorithm:

1. selects the two label groups ``V_L`` and ``V_R`` (vertices sharing the
   label of ``q_l`` / ``q_r``);
2. extracts the connected k1-core ``L`` containing ``q_l`` from the subgraph
   induced by ``V_L`` and the connected k2-core ``R`` containing ``q_r`` from
   the subgraph induced by ``V_R``;
3. builds the cross-group bipartite graph ``B`` between ``L`` and ``R``;
4. counts butterflies (Algorithm 3) and checks that each side has a vertex
   with butterfly degree at least ``b``;
5. returns ``G0 = L ∪ B ∪ R`` (or ``None`` when no valid BCC exists).

A technical note on connectivity: the paper's Problem 1 additionally requires
``G0`` to be a connected subgraph containing both query vertices.  ``L`` and
``R`` are connected by construction, but they might not be joined by any
cross edge; :func:`find_g0` therefore also verifies that ``q_l`` and ``q_r``
are connected inside ``G0`` and returns ``None`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.bcc_model import BCCParameters, resolve_query_labels
from repro.core.butterfly import butterfly_degrees, max_butterfly_degree_per_side
from repro.core.kcore import k_core_containing
from repro.graph.bipartite import BipartiteView, extract_bipartite
from repro.graph.labeled_graph import LabeledGraph, Label, Vertex, union_graphs
from repro.graph.traversal import are_connected


@dataclass
class G0Result:
    """The output of Algorithm 2: the candidate community and its parts.

    Attributes
    ----------
    community:
        ``G0 = L ∪ B ∪ R`` as a single labeled graph.
    left, right:
        The connected k1-core / k2-core subgraphs (intra-group edges only).
    bipartite:
        The cross-group bipartite view between the two cores.
    butterfly_degrees:
        χ(v) for every vertex of ``bipartite`` as counted by Algorithm 3.
    left_label, right_label:
        Labels of the two groups.
    """

    community: LabeledGraph
    left: LabeledGraph
    right: LabeledGraph
    bipartite: BipartiteView
    butterfly_degrees: Dict[Vertex, int]
    left_label: Label
    right_label: Label


def find_g0(
    graph: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    parameters: BCCParameters,
    require_connected_query: bool = True,
    instrumentation=None,
) -> Optional[G0Result]:
    """Run Algorithm 2 and return the maximal candidate BCC, or ``None``.

    Parameters
    ----------
    graph:
        The full labeled graph.
    q_left, q_right:
        Query vertices; must exist and carry different labels.
    parameters:
        The (k1, k2, b) structural parameters.
    require_connected_query:
        When True (default), additionally require ``q_l`` and ``q_r`` to be
        connected within ``G0`` (Problem 1, condition 1).
    instrumentation:
        Optional :class:`repro.eval.instrumentation.SearchInstrumentation`
        used to count butterfly-counting invocations.
    """
    left_label, right_label = resolve_query_labels(graph, q_left, q_right)

    # Lines 1-3: label groups and their connected k-cores around the queries.
    left_group = graph.label_induced_subgraph(left_label)
    right_group = graph.label_induced_subgraph(right_label)
    left_core = k_core_containing(left_group, parameters.k1, q_left)
    if left_core is None:
        return None
    right_core = k_core_containing(right_group, parameters.k2, q_right)
    if right_core is None:
        return None

    # Line 4: the cross-group bipartite graph between the two cores.
    left_vertices = set(left_core.vertices())
    right_vertices = set(right_core.vertices())
    bipartite = extract_bipartite(graph, left_vertices, right_vertices)

    # Lines 5-9: butterfly counting and the leader-existence check.
    degrees = butterfly_degrees(bipartite)
    if instrumentation is not None:
        instrumentation.record_butterfly_counting()
    max_left, max_right = max_butterfly_degree_per_side(bipartite, degrees)
    if max_left < parameters.b or max_right < parameters.b:
        return None

    # Line 10: merge the three parts into G0.
    community = union_graphs(left_core, right_core)
    for u, v in bipartite.edges():
        community.add_edge(u, v)

    if require_connected_query and not are_connected(community, [q_left, q_right]):
        return None

    return G0Result(
        community=community,
        left=left_core,
        right=right_core,
        bipartite=bipartite,
        butterfly_degrees=degrees,
        left_label=left_label,
        right_label=right_label,
    )


def maximal_bcc_exists(
    graph: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    parameters: BCCParameters,
) -> bool:
    """Return ``True`` when Algorithm 2 finds a non-empty candidate community."""
    return find_g0(graph, q_left, q_right, parameters) is not None

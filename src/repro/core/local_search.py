"""Algorithm 8: L2P-BCC — index-based local exploration.

The full Online-BCC / LP-BCC searches start from the maximal candidate
community ``G0``, which on large graphs can contain most of the two label
groups.  L2P-BCC avoids this by working locally around the query vertices:

1. compute a shortest path between the two query vertices under the
   butterfly-core path weight of Def. 6 (preferring liaison vertices with
   high coreness and butterfly degree), using the offline
   :class:`~repro.core.bc_index.BCIndex`;
2. take the minimum label-group coreness along the path on each side
   (``k_l``, ``k_r``) as expansion thresholds;
3. expand the path into a candidate graph ``G_t`` by a BFS that only admits
   vertices of the two query labels whose indexed coreness reaches the
   threshold for their side, stopping once ``|V(G_t)| > eta``;
4. extract a connected (k1, k2, b)-BCC containing the query from ``G_t`` —
   when ``k1``/``k2`` are not supplied they default to the largest values
   that still admit a connected core around each query vertex inside the
   candidate graph;
5. refine the candidate with the LP-BCC bulk-deletion loop (removing the
   farthest vertices while maintaining the BCC).

L2P-BCC does not carry the 2-approximation guarantee (the candidate graph is
local), but it is the fastest method in the paper's evaluation and attains
the best F1 on most networks.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Set

from repro.core.bc_index import BCIndex
from repro.core.bcc_model import BCCParameters, BCCResult, resolve_query_labels
from repro.core.kcore import core_decomposition
from repro.core.lp_bcc import DEFAULT_RHO, run_lp_bcc
from repro.core.path_weight import PathWeightConfig, butterfly_core_shortest_path
from repro.eval.instrumentation import SearchInstrumentation
from repro.exceptions import REASON_QUERY_DISCONNECTED, EmptyCommunityError
from repro.graph.labeled_graph import LabeledGraph, Vertex


DEFAULT_CANDIDATE_SIZE = 400


def expand_candidate_graph(
    graph: LabeledGraph,
    seed_path,
    index: BCIndex,
    left_label,
    right_label,
    k_left: int,
    k_right: int,
    eta: int,
) -> LabeledGraph:
    """Expand a seed path into a candidate graph ``G_t`` (Algorithm 8, line 3).

    Vertices are added in BFS order starting from the path; a vertex is
    admitted when it carries one of the two query labels and its indexed
    label-group coreness is at least the threshold of its side.  Expansion
    stops when the candidate exceeds ``eta`` vertices (the current BFS layer
    is completed so the cut is deterministic).  Finally all edges of ``graph``
    between admitted vertices are added.

    The candidate is *closed* (the queue drained, so it holds every
    qualifying neighbour of each of its vertices) exactly when it has at
    most ``eta`` vertices: once past ``eta``, the last vertex popped
    admitted one, which is still queued.
    """
    admitted: Set[Vertex] = set()
    queue = deque()
    for vertex in seed_path:
        if vertex in graph and vertex not in admitted:
            admitted.add(vertex)
            queue.append(vertex)
    while queue and len(admitted) <= eta:
        vertex = queue.popleft()
        for neighbor in graph.neighbors(vertex):
            if neighbor in admitted:
                continue
            label = graph.label(neighbor)
            if label == left_label:
                if index.coreness(neighbor) < k_left:
                    continue
            elif label == right_label:
                if index.coreness(neighbor) < k_right:
                    continue
            else:
                continue
            admitted.add(neighbor)
            queue.append(neighbor)
    return graph.induced_subgraph(admitted)


def _auto_core_parameter(candidate: LabeledGraph, label, query: Vertex) -> int:
    """Return the largest coreness of ``query`` within its label group of ``candidate``."""
    group = candidate.label_induced_subgraph(label)
    if query not in group:
        return 0
    return core_decomposition(group).get(query, 0)


def l2p_bcc_search(
    graph: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    b: int = 1,
    index: Optional[BCIndex] = None,
    eta: int = DEFAULT_CANDIDATE_SIZE,
    path_config: PathWeightConfig = PathWeightConfig(),
    rho: int = DEFAULT_RHO,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
) -> Optional[BCCResult]:
    """Run the L2P-BCC local search (Algorithm 8).

    This legacy one-shot entry point delegates to a throwaway
    :class:`repro.api.BCCEngine`; pass ``index`` to reuse a pre-built
    BCindex, or hold a long-lived engine to have it built and cached once.

    Parameters
    ----------
    graph:
        The labeled input graph.
    q_left, q_right:
        Query vertices with different labels.
    k1, k2:
        Core parameters; when omitted they are set automatically to the
        largest coreness admitting a connected core around each query vertex
        inside the candidate graph (Algorithm 8, line 4).
    b:
        Butterfly-degree requirement.
    index:
        A pre-built :class:`BCIndex`; built on the fly when omitted (building
        it once and reusing it across queries is what makes L2P-BCC fast).
    eta:
        Candidate-graph size threshold (empirically tuned; default 400).
    path_config:
        γ1/γ2 weights of the butterfly-core path weight (paper default 0.5).
    rho, max_iterations, instrumentation:
        Passed through to the LP-BCC refinement.
    """
    from repro.api import SearchConfig, one_shot_search

    config = SearchConfig(
        k1=k1,
        k2=k2,
        b=b,
        rho=rho,
        max_iterations=max_iterations,
        eta=eta,
        path_config=path_config,
    )
    return one_shot_search(
        "l2p-bcc", graph, (q_left, q_right), config, instrumentation, index=index
    )


def run_l2p_bcc(
    graph: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    b: int = 1,
    index: Optional[BCIndex] = None,
    eta: int = DEFAULT_CANDIDATE_SIZE,
    path_config: PathWeightConfig = PathWeightConfig(),
    rho: int = DEFAULT_RHO,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
) -> BCCResult:
    """Object-graph reference implementation of method ``"l2p-bcc"``.

    The engine serves the method on the CSR pipeline
    (:func:`repro.core.pipeline.l2p_bcc`); tests compare the two.
    Parameters match :func:`l2p_bcc_search`.  Raises
    :class:`EmptyCommunityError` instead of returning ``None``.
    """
    inst = instrumentation if instrumentation is not None else SearchInstrumentation()
    left_label, right_label = resolve_query_labels(graph, q_left, q_right)
    if index is None:
        index = BCIndex(graph)
    elif not index.is_built():
        index.build()

    # Line 1: butterfly-core weighted shortest path connecting the query pair.
    seed_path = butterfly_core_shortest_path(
        graph, q_left, q_right, index, left_label, right_label, config=path_config
    )
    if seed_path is None:
        raise EmptyCommunityError(
            f"query vertices {q_left!r} and {q_right!r} are not connected",
            reason=REASON_QUERY_DISCONNECTED,
        )

    # Line 2: per-side expansion thresholds from the path's minimum coreness.
    left_on_path = [v for v in seed_path if graph.label(v) == left_label]
    right_on_path = [v for v in seed_path if graph.label(v) == right_label]
    k_left_threshold = min((index.coreness(v) for v in left_on_path), default=0)
    k_right_threshold = min((index.coreness(v) for v in right_on_path), default=0)

    # Line 3: local expansion into the candidate graph G_t.
    candidate = expand_candidate_graph(
        graph,
        seed_path,
        index,
        left_label,
        right_label,
        k_left_threshold,
        k_right_threshold,
        eta,
    )
    inst.add("candidate_vertices", float(candidate.num_vertices()))
    # A closed G_t (|G_t| <= eta) holds the global connected cores at any
    # k >= its side's threshold (k-cores nest), so line 5 then runs the
    # global search.
    user_ks = (k1, k2)
    global_search = candidate.num_vertices() <= eta and all(
        k is None or k >= t
        for k, t in zip(user_ks, (k_left_threshold, k_right_threshold))
    )

    # Line 4: core parameters default to the largest coreness on each side of
    # the candidate graph.
    if k1 is None:
        k1 = _auto_core_parameter(candidate, left_label, q_left)
    if k2 is None:
        k2 = _auto_core_parameter(candidate, right_label, q_right)
    parameters = BCCParameters(k1=k1, k2=k2, b=b)

    # Line 5: refine with the LP-BCC loop (bulk deletion of farthest vertices).
    try:
        result = run_lp_bcc(
            candidate,
            q_left,
            q_right,
            k1=parameters.k1,
            k2=parameters.k2,
            b=parameters.b,
            bulk_deletion=True,
            rho=rho,
            max_iterations=max_iterations,
            instrumentation=inst,
        )
    except EmptyCommunityError:
        # After a global search the fallback could only fail again — unless
        # it re-resolves a user-set k of 0.
        if candidate.num_vertices() >= graph.num_vertices() or (
            global_search and 0 not in user_ks
        ):
            raise
        # The local candidate missed the community (e.g. eta too small for the
        # required cores); fall back to the global LP-BCC search so that the
        # method degrades gracefully instead of returning nothing.
        inst.add("fallback_to_global", 1.0)
        result = run_lp_bcc(
            graph,
            q_left,
            q_right,
            k1=None if k1 == 0 else k1,
            k2=None if k2 == 0 else k2,
            b=b,
            bulk_deletion=True,
            rho=rho,
            max_iterations=max_iterations,
            instrumentation=inst,
        )
    result.statistics.update(inst.as_dict())
    return result

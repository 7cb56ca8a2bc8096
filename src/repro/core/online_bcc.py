"""Algorithm 1: the greedy Online-BCC search (2-approximation).

The search first builds the maximal candidate community ``G0`` containing the
query vertices (Algorithm 2), then repeatedly deletes the vertex (or, with
bulk deletion, all vertices) farthest from the query pair and restores the
BCC structure (Algorithm 4).  Every intermediate graph that is a valid BCC
containing the query is a candidate answer; the one with the smallest query
distance is returned, which Theorem 3 shows has diameter at most twice the
optimum.

The implementation keeps a single working graph and records only the vertex
set of the best candidate seen so far: every intermediate graph is an induced
subgraph of ``G0`` (the search deletes vertices, never individual edges), so
the winning community can be re-induced from ``G0`` at the end.  The engine
serves the method on the CSR pipeline (:mod:`repro.core.pipeline`), which
runs the same loop on id sets; :func:`run_online_bcc` is the object-graph
reference that tests compare it against.
"""

from __future__ import annotations

import math
from typing import List, Optional, Set, Tuple

from repro.core.bcc_model import BCCParameters, BCCResult, resolve_query_labels
from repro.core.find_g0 import find_g0
from repro.core.maintenance import maintain_bcc
from repro.eval.instrumentation import SearchInstrumentation
from repro.exceptions import (
    REASON_NO_CANDIDATE,
    REASON_NO_COMMUNITY,
    EmptyCommunityError,
)
from repro.core.query_distance import farthest_ids
from repro.graph.csr import csr_bfs_distances, ids_bits
from repro.graph.labeled_graph import LabeledGraph, Vertex
from repro.graph.traversal import (
    farthest_vertices,
    graph_query_distance,
    query_distances,
)


def online_bcc_search(
    graph: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    b: int = 1,
    bulk_deletion: bool = True,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
) -> Optional[BCCResult]:
    """Run the Online-BCC greedy search (Algorithm 1).

    This is the legacy one-shot entry point; it delegates to a throwaway
    :class:`repro.api.BCCEngine` so every search flows through the same
    prepared-engine front door.  Long-lived callers should construct the
    engine directly and reuse it across queries.

    Parameters
    ----------
    graph:
        The labeled input graph.
    q_left, q_right:
        Query vertices with different labels.
    k1, k2:
        Core parameters; default to the coreness of the query vertices within
        their own label groups (Section 3.5).
    b:
        Butterfly-degree requirement of the leader pair.
    bulk_deletion:
        When True (the setting used in the paper's experiments), all vertices
        attaining the maximum query distance are removed each iteration;
        otherwise a single vertex is removed, exactly as Algorithm 1 states
        (among equally far vertices, the one with the smallest ``repr``).
    max_iterations:
        Optional safety cap on the number of peeling iterations.
    instrumentation:
        Optional counters (butterfly-counting calls, timings).

    Returns
    -------
    BCCResult or None
        ``None`` when no (k1, k2, b)-BCC containing the query exists.
    """
    from repro.api import SearchConfig, one_shot_search

    config = SearchConfig(
        k1=k1,
        k2=k2,
        b=b,
        bulk_deletion=bulk_deletion,
        max_iterations=max_iterations,
    )
    return one_shot_search(
        "online-bcc", graph, (q_left, q_right), config, instrumentation
    )


def distance_sweep(
    graph,
    q_left: int,
    q_right: int,
    alive: Set[int],
    rows: Optional[List[int]] = None,
) -> Tuple[float, List[int], float]:
    """One query-distance pass of Algorithm 1 over a frozen graph's ids.

    Runs a BFS from both query ids over the subgraph induced by ``alive``
    (:func:`~repro.graph.csr.csr_bfs_distances`, on the adjacency bit table
    ``rows`` when given), then
    :func:`~repro.core.query_distance.farthest_ids` over ``alive``: returns
    ``dist(G, Q)``, the farthest non-query ids and their distance.  The CSR
    pipeline's Online-BCC sweep.
    """
    within = alive if rows is None else ids_bits(alive)
    return farthest_ids(
        alive,
        csr_bfs_distances(graph, q_left, alive=within, rows=rows),
        csr_bfs_distances(graph, q_right, alive=within, rows=rows),
        q_left,
        q_right,
    )


def run_online_bcc(
    graph: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    b: int = 1,
    bulk_deletion: bool = True,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
) -> BCCResult:
    """Object-graph reference implementation of method ``"online-bcc"``.

    The engine serves the method on the CSR pipeline
    (:func:`repro.core.pipeline.online_bcc`); this runner shrinks a mutable
    copy of ``G0`` and sweeps it with an object-graph BFS, sharing no sweep
    code with the pipeline, so tests compare the two.

    Parameters match :func:`online_bcc_search`.  Raises
    :class:`EmptyCommunityError` (with a machine-readable ``reason``) when no
    community exists instead of returning ``None``.
    """
    inst = instrumentation if instrumentation is not None else SearchInstrumentation()
    left_label, right_label = resolve_query_labels(graph, q_left, q_right)
    parameters = BCCParameters.from_query(graph, q_left, q_right, k1=k1, k2=k2, b=b)

    g0 = find_g0(graph, q_left, q_right, parameters, instrumentation=inst)
    if g0 is None:
        raise EmptyCommunityError(
            f"no maximal ({parameters.k1}, {parameters.k2}, {parameters.b})-BCC "
            f"candidate contains the query pair",
            reason=REASON_NO_CANDIDATE,
        )

    community = g0.community.copy()
    original = g0.community
    query = [q_left, q_right]

    best_vertices: Optional[Set[Vertex]] = None
    best_distance = math.inf
    iterations = 0

    while True:
        with inst.time_query_distance():
            distance_maps = query_distances(community, query)
            current_distance = graph_query_distance(community, query, distance_maps)
        candidates, max_distance = farthest_vertices(community, query, distance_maps)
        if current_distance < best_distance:
            best_distance = current_distance
            best_vertices = set(community.vertices())
        if not candidates or max_distance <= 0:
            break
        if max_iterations is not None and iterations >= max_iterations:
            break
        to_delete = candidates if bulk_deletion else [min(candidates, key=repr)]
        outcome = maintain_bcc(
            community,
            to_delete,
            parameters,
            left_label,
            right_label,
            query_vertices=query,
            check_butterfly=True,
            instrumentation=inst,
        )
        iterations += 1
        # A failed step counts no deletions, as on the pipeline.
        inst.record_iteration(deleted=len(outcome.removed) if outcome.valid else 0)
        if not outcome.valid:
            break

    if best_vertices is None:
        raise EmptyCommunityError(reason=REASON_NO_COMMUNITY)

    final_community = original.induced_subgraph(best_vertices)
    result = BCCResult.from_community(
        final_community,
        left_label,
        right_label,
        parameters,
        query_distance=best_distance,
        iterations=iterations,
        statistics=inst.as_dict(),
    )
    return result

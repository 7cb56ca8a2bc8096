"""CTC baseline: closest truss community search (Huang et al., PVLDB 2015).

The paper compares BCC search against CTC [20], which ignores vertex labels
entirely: it finds a connected k-truss containing all query vertices with the
**largest** trussness ``k`` and then, like Algorithm 1, greedily removes the
vertex farthest from the query set while maintaining the k-truss, returning
the intermediate graph with the smallest query distance (a 2-approximation of
the minimum-diameter closest truss community).

This is a faithful reimplementation of the algorithmic skeleton the original
paper describes (find the maximal connected k-truss with maximum k, then
iterative peeling by query distance with truss maintenance); the elaborate
bulk-deletion/locality optimisations of the original system are not needed at
the scales used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set

from repro.core.ktruss import (
    k_truss_containing,
    maintain_k_truss,
    max_truss_value_containing,
)
from repro.deadline import checkpoint
from repro.eval.instrumentation import SearchInstrumentation
from repro.exceptions import (
    REASON_NO_COMMUNITY,
    REASON_NO_TRUSS,
    EmptyCommunityError,
)
from repro.graph.labeled_graph import LabeledGraph, Vertex
from repro.graph.traversal import (
    are_connected,
    farthest_vertices,
    graph_query_distance,
    query_distances,
)


@dataclass
class CTCResult:
    """A closest-truss community."""

    community: LabeledGraph
    trussness: int
    query_distance: float
    iterations: int = 0
    statistics: Dict[str, float] = field(default_factory=dict)

    def num_vertices(self) -> int:
        """Number of vertices in the community."""
        return self.community.num_vertices()

    @property
    def vertices(self) -> Set[Vertex]:
        """All community vertices."""
        return set(self.community.vertices())


def ctc_search(
    graph: LabeledGraph,
    query_vertices: Sequence[Vertex],
    k: Optional[int] = None,
    bulk_deletion: bool = True,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
) -> Optional[CTCResult]:
    """Run the closest truss community search.

    Parameters
    ----------
    graph:
        The input graph (labels are ignored by this baseline).
    query_vertices:
        The query set Q (the BCC experiments use the same two vertices).
    k:
        Trussness to use; defaults to the largest ``k`` for which a connected
        k-truss containing all query vertices exists.
    bulk_deletion:
        Remove every farthest vertex per iteration (default, matching the
        experimental setting of the BCC paper) or only one.
    max_iterations:
        Optional cap on peeling iterations.
    instrumentation:
        Optional counters.
    """
    from repro.api import SearchConfig, one_shot_search

    config = SearchConfig(
        k=k, bulk_deletion=bulk_deletion, max_iterations=max_iterations
    )
    return one_shot_search(
        "ctc", graph, tuple(query_vertices), config, instrumentation
    )


def run_ctc(
    graph: LabeledGraph,
    query_vertices: Sequence[Vertex],
    k: Optional[int] = None,
    bulk_deletion: bool = True,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
) -> CTCResult:
    """CTC implementation registered as method ``"ctc"``.

    Parameters match :func:`ctc_search`; raises :class:`EmptyCommunityError`
    with a machine-readable ``reason`` instead of returning ``None``.
    """
    inst = instrumentation if instrumentation is not None else SearchInstrumentation()
    query = list(query_vertices)
    graph.require_vertices(query)

    if k is None:
        k = max_truss_value_containing(graph, query)
        if k < 2:
            raise EmptyCommunityError(
                "no connected k-truss with k >= 2 contains the query",
                reason=REASON_NO_TRUSS,
            )

    candidate = k_truss_containing(graph, k, query)
    if candidate is None:
        raise EmptyCommunityError(
            f"no connected {k}-truss contains the query", reason=REASON_NO_TRUSS
        )

    community = candidate.copy()
    # Truss maintenance removes individual edges, so intermediate graphs are
    # not induced subgraphs of the candidate; snapshot the best graph instead.
    best_snapshot: Optional[LabeledGraph] = None
    best_distance = math.inf
    iterations = 0

    while True:
        checkpoint()
        with inst.time_query_distance():
            distance_maps = query_distances(community, query)
            current_distance = graph_query_distance(community, query, distance_maps)
        if current_distance < best_distance:
            best_distance = current_distance
            best_snapshot = community.copy()
        candidates, max_distance = farthest_vertices(community, query, distance_maps)
        if not candidates or max_distance <= 0:
            break
        if max_iterations is not None and iterations >= max_iterations:
            break
        to_delete = candidates if bulk_deletion else [min(candidates, key=repr)]
        maintain_k_truss(community, k, to_delete)
        iterations += 1
        inst.record_iteration(deleted=len(to_delete))
        if any(q not in community for q in query):
            break
        if not are_connected(community, query):
            break

    if best_snapshot is None:
        raise EmptyCommunityError(reason=REASON_NO_COMMUNITY)
    return CTCResult(
        community=best_snapshot,
        trussness=k,
        query_distance=best_distance,
        iterations=iterations,
        statistics=inst.as_dict(),
    )

"""PSA baseline: progressive minimum k-core search (Li et al., PVLDB 2019).

The second experimental competitor of the paper, PSA [23], searches for a
*small* (ideally minimum-size) connected k-core containing the query
vertices, ignoring vertex labels.  Finding the true minimum k-core is NP-hard,
so the original work progressively tightens lower/upper bounds; what matters
for the comparison in the BCC paper is the qualitative behaviour — PSA
returns a compact, label-agnostic k-core around the query.

This module implements the standard expand-then-shrink heuristic that
preserves that behaviour (documented as a substitution in DESIGN.md):

1. **Expansion**: grow a candidate set from the query vertices in best-first
   order (preferring high-coreness vertices close to the query) until the
   candidate's induced subgraph contains a connected k-core spanning the
   query, or a size budget is exhausted.
2. **Shrinking**: extract that k-core, then repeatedly try to drop the vertex
   farthest from the query set while keeping a connected k-core containing
   the query, yielding a small final community.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.core.kcore import core_decomposition, k_core_vertices, max_core_value_containing
from repro.deadline import checkpoint
from repro.eval.instrumentation import SearchInstrumentation
from repro.exceptions import (
    REASON_NO_CORE,
    EmptyCommunityError,
)
from repro.graph.labeled_graph import LabeledGraph, Vertex
from repro.graph.traversal import bfs_distances, connected_component


#: Default expansion / shrinking budgets (shared with SearchConfig).
DEFAULT_SIZE_BUDGET = 2000
DEFAULT_SHRINK_ROUNDS = 50


@dataclass
class PSAResult:
    """A (small) connected k-core community containing the query vertices."""

    community: LabeledGraph
    k: int
    query_distance: float = 0.0
    expansions: int = 0
    statistics: Dict[str, float] = field(default_factory=dict)

    def num_vertices(self) -> int:
        """Number of vertices in the community."""
        return self.community.num_vertices()

    @property
    def vertices(self) -> Set[Vertex]:
        """All community vertices."""
        return set(self.community.vertices())


def _connected_k_core_containing(
    graph: LabeledGraph, vertices: Set[Vertex], k: int, query: Sequence[Vertex]
) -> Optional[LabeledGraph]:
    """Return the connected k-core of ``vertices`` containing the query, if any."""
    candidate = graph.induced_subgraph(vertices)
    survivors = k_core_vertices(candidate, k)
    if not survivors or any(q not in survivors for q in query):
        return None
    core = candidate.induced_subgraph(survivors)
    component = connected_component(core, query[0])
    if any(q not in component for q in query):
        return None
    return core.induced_subgraph(component)


def psa_search(
    graph: LabeledGraph,
    query_vertices: Sequence[Vertex],
    k: Optional[int] = None,
    size_budget: int = DEFAULT_SIZE_BUDGET,
    shrink_rounds: int = DEFAULT_SHRINK_ROUNDS,
    instrumentation: Optional[SearchInstrumentation] = None,
) -> Optional[PSAResult]:
    """Run the progressive minimum k-core search heuristic.

    Parameters
    ----------
    graph:
        The input graph (labels ignored).
    query_vertices:
        The query set Q.
    k:
        Core parameter; defaults to the smallest coreness among the query
        vertices (the largest value for which a common k-core can exist).
    size_budget:
        Maximum number of vertices explored during expansion.
    shrink_rounds:
        Maximum number of farthest-vertex removal attempts during shrinking.
    instrumentation:
        Optional counters.
    """
    from repro.api import SearchConfig, one_shot_search

    config = SearchConfig(k=k, size_budget=size_budget, shrink_rounds=shrink_rounds)
    return one_shot_search(
        "psa", graph, tuple(query_vertices), config, instrumentation
    )


def run_psa(
    graph: LabeledGraph,
    query_vertices: Sequence[Vertex],
    k: Optional[int] = None,
    size_budget: int = DEFAULT_SIZE_BUDGET,
    shrink_rounds: int = DEFAULT_SHRINK_ROUNDS,
    instrumentation: Optional[SearchInstrumentation] = None,
) -> PSAResult:
    """PSA implementation registered as method ``"psa"``.

    Parameters match :func:`psa_search`; raises :class:`EmptyCommunityError`
    with a machine-readable ``reason`` instead of returning ``None``.
    """
    inst = instrumentation if instrumentation is not None else SearchInstrumentation()
    query = list(query_vertices)
    graph.require_vertices(query)
    if k is None:
        k = min(max_core_value_containing(graph, q) for q in query)
        if k <= 0:
            raise EmptyCommunityError(
                "the query vertices share no k-core with k >= 1",
                reason=REASON_NO_CORE,
            )

    coreness = core_decomposition(graph)
    # Distances from the query set guide the best-first expansion.
    distance_maps = [bfs_distances(graph, q) for q in query]

    def query_distance(v: Vertex) -> float:
        worst = 0.0
        for dmap in distance_maps:
            if v not in dmap:
                return math.inf
            worst = max(worst, dmap[v])
        return worst

    counter = itertools.count()
    candidate: Set[Vertex] = set(query)
    heap: List = []
    seen: Set[Vertex] = set(query)

    def push_neighbors(vertex: Vertex) -> None:
        # Sorted iteration: adjacency sets iterate in memory-layout order,
        # which differs between equal graphs (e.g. a full graph and the
        # same component served as a shard subgraph).  The expansion's
        # tie-break counter must depend on the graph's *content* only, or
        # PSA returns different communities for identical inputs.
        for w in sorted(graph.neighbors(vertex), key=repr):
            if w in seen:
                continue
            seen.add(w)
            priority = (query_distance(w), -coreness.get(w, 0), next(counter))
            heapq.heappush(heap, (priority, w))

    for q in query:
        push_neighbors(q)

    best_core: Optional[LabeledGraph] = None
    expansions = 0
    check_interval = max(4, 2 * k)
    since_last_check = 0
    while heap and len(candidate) < size_budget:
        checkpoint()
        (_, vertex) = heapq.heappop(heap)
        candidate.add(vertex)
        push_neighbors(vertex)
        expansions += 1
        since_last_check += 1
        if since_last_check >= check_interval:
            since_last_check = 0
            core = _connected_k_core_containing(graph, candidate, k, query)
            if core is not None:
                best_core = core
                break
    if best_core is None:
        best_core = _connected_k_core_containing(graph, candidate, k, query)
    if best_core is None:
        # Fall back to the global connected k-core around the query.
        best_core = _connected_k_core_containing(graph, set(graph.vertices()), k, query)
        if best_core is None:
            raise EmptyCommunityError(
                f"no connected {k}-core contains every query vertex",
                reason=REASON_NO_CORE,
            )

    # Shrinking: repeatedly try to drop the farthest vertex.
    community = best_core
    for _ in range(shrink_rounds):
        checkpoint()
        if community.num_vertices() <= len(query):
            break
        dmaps = [bfs_distances(community, q) for q in query]

        def qd(v: Vertex) -> float:
            worst = 0.0
            for dmap in dmaps:
                if v not in dmap:
                    return math.inf
                worst = max(worst, dmap[v])
            return worst

        # Sorted for the same reason as the expansion: ``max`` keeps the
        # first maximum it meets, so vertex iteration order (memory layout)
        # must not decide which of two equally-far vertices is dropped.
        removable = sorted(
            (v for v in community.vertices() if v not in query), key=repr
        )
        if not removable:
            break
        farthest = max(removable, key=qd)
        if qd(farthest) <= 0:
            break
        remaining = set(community.vertices()) - {farthest}
        shrunk = _connected_k_core_containing(community, remaining, k, query)
        if shrunk is None or shrunk.num_vertices() >= community.num_vertices():
            break
        community = shrunk
        inst.record_iteration(deleted=1)

    final_dmaps = [bfs_distances(community, q) for q in query]
    worst = 0.0
    for v in community.vertices():
        for dmap in final_dmaps:
            if v not in dmap:
                worst = math.inf
            else:
                worst = max(worst, dmap[v])
    inst.add("expansions", float(expansions))
    return PSAResult(
        community=community,
        k=k,
        query_distance=worst,
        expansions=expansions,
        statistics=inst.as_dict(),
    )

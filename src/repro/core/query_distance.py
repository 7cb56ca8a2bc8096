"""Algorithm 5: fast (incremental) query-distance computation.

Algorithm 1 needs, at every iteration, the query distance ``dist(v, Q)`` of
every remaining vertex so it can pick the farthest one.  Recomputing a full
BFS from each query vertex per iteration is wasteful: after deleting a vertex
set ``D``, only vertices that were *farther* from ``q`` than the closest
deleted vertex can change distance (and distances can only grow).

:class:`QueryDistanceTracker` maintains, for each query vertex, the distance
map over the current community and updates it after deletions following
Algorithm 5:

1. let ``d_min = min_{v ∈ D} dist(v, q)`` (using the distances *before* the
   deletion);
2. vertices with ``dist <= d_min`` are unaffected (``S_s`` is the frontier at
   exactly ``d_min``);
3. vertices with ``dist > d_min`` (``S_u``) are re-labelled by a BFS seeded
   from the settled region.

Vertices that become unreachable get distance ``inf`` and are therefore
selected for deletion first by the greedy loop.

The tracker freezes the community once (:mod:`repro.graph.csr`) and
maintains flat per-id distance lists plus a dead-id set; this is valid
because the search loops only ever *delete* vertices, and the caller reports
every deletion batch through :meth:`QueryDistanceTracker.remove_vertices`.

The pipeline (:mod:`repro.core.pipeline`) runs the same steps on two
substrates.  Per-id distance lists go through :func:`update_distances` and
:func:`farthest_ids`.  On a snapshot's adjacency bit table,
:class:`LevelDistances` keeps one bitset per BFS level instead: ``d_min``
is the first level that meets the deleted set, only the levels after it
are rebuilt (:func:`~repro.graph.csr.bit_bfs_levels`), and
:func:`farthest_in_levels` reads ``dist(G, Q)`` and the farthest ids off
the top levels, so no step visits every surviving id.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import or_
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.csr import UNREACHED, bit_bfs_levels, bit_ids, csr_bfs_distances
from repro.graph.labeled_graph import LabeledGraph, Vertex
from repro.graph.traversal import INFINITE_DISTANCE


def update_distances(
    graph, dist: List[int], deleted_ids: Iterable[int], survivors: Iterable[int]
) -> None:
    """Algorithm 5 on one per-id distance list, in place.

    ``dist`` holds the distances from one query id *before* the deletion
    (:data:`~repro.graph.csr.UNREACHED` = -1), ``deleted_ids`` the batch
    just removed and ``survivors`` every id still in the graph.  With
    ``d_min`` the smallest pre-deletion distance of a deleted id, survivors
    at ``dist <= d_min`` keep their distance; the rest are relabelled by a
    level-synchronous BFS over ``graph``'s adjacency, restricted to them
    and seeded from the survivors at exactly ``d_min`` (a new shortest path
    into the affected region crosses that level, and lower levels only
    reach settled ids).  Ids the BFS never reaches become unreachable.
    """
    d_min = math.inf
    for vid in deleted_ids:
        d = dist[vid]
        if 0 <= d < d_min:
            d_min = d
    if math.isinf(d_min):
        return
    frontier: List[int] = []
    to_update: Set[int] = set()
    for vid in survivors:
        d = dist[vid]
        if 0 <= d <= d_min:
            if d == d_min:
                frontier.append(vid)
        else:
            to_update.add(vid)
    slices = graph.adjacency_slices()
    level = d_min
    while frontier and to_update:
        level += 1
        reached: Set[int] = set()
        update = reached.update
        for u in frontier:
            update(slices[u])
        reached &= to_update
        to_update -= reached
        for vid in reached:
            dist[vid] = level
        frontier = reached
    for vid in to_update:
        dist[vid] = UNREACHED


def farthest_ids(
    survivors: Iterable[int],
    dist_left: List[int],
    dist_right: List[int],
    q_left: int,
    q_right: int,
) -> Tuple[float, List[int], float]:
    """Def. 5 over two per-id distance lists, in one pass over ``survivors``.

    Returns ``dist(G, Q)`` (``inf`` when some survivor is unreachable from a
    query id), the non-query ids at the maximum query distance, and that
    distance — what one greedy iteration of Algorithm 1 needs.
    """
    current = 0.0
    unreachable = False
    max_distance = -1.0
    candidates: List[int] = []
    for vid in survivors:
        d_l = dist_left[vid]
        d_r = dist_right[vid]
        if d_l < 0 or d_r < 0:
            value = INFINITE_DISTANCE
            unreachable = True
        else:
            value = d_l if d_l >= d_r else d_r
        if value > current:
            current = value
        if vid == q_left or vid == q_right:
            continue
        if value > max_distance:
            max_distance = value
            candidates = [vid]
        elif value == max_distance:
            candidates.append(vid)
    if unreachable:
        current = INFINITE_DISTANCE
    return current, candidates, max_distance


class LevelDistances:
    """One query id's distances as BFS level bitsets over an adjacency bit table.

    ``levels[d]`` holds the alive ids at distance ``d`` (bit ``v`` = id
    ``v``), and ``unreached`` the alive ids no level holds.
    """

    __slots__ = ("levels", "unreached")

    def __init__(self, rows: List[int], source: int, alive: int) -> None:
        self.levels = [1 << source]
        self.unreached = bit_bfs_levels(rows, self.levels, alive & ~(1 << source))

    def remove(self, rows: List[int], deleted: int, alive: int) -> None:
        """Algorithm 5 for the ids of ``deleted``; ``alive`` excludes them.

        ``d_min`` is the first level that meets the deleted set: the levels
        before it keep their ids, it loses its deleted ones, and only the
        levels after it are rebuilt, by a BFS seeded from it.
        """
        levels = self.levels
        for d_min, level in enumerate(levels):
            if level & deleted:
                break
        else:
            self.unreached &= alive
            return
        kept = level & ~deleted
        del levels[d_min:]
        seen = reduce(or_, levels, kept)
        if kept:
            levels.append(kept)
            self.unreached = bit_bfs_levels(rows, levels, alive ^ seen)
        else:
            self.unreached = alive ^ seen


def farthest_in_levels(
    left: LevelDistances, right: LevelDistances, q_left: int, q_right: int
) -> Tuple[float, List[int], float]:
    """:func:`farthest_ids` over two queries' level bitsets, read off the top levels.

    Returns the same ``dist(G, Q)``, candidate set and distance; the
    candidates come in id order.
    """
    queries = (1 << q_left) | (1 << q_right)
    unreached = left.unreached | right.unreached
    if unreached:
        far = unreached & ~queries
        if far:
            return INFINITE_DISTANCE, bit_ids(far), INFINITE_DISTANCE
        current = INFINITE_DISTANCE
    else:
        current = max(len(left.levels), len(right.levels)) - 1
    # Every non-query id is reached from both queries, so the farthest are
    # those on the top level that holds a non-query id, over both queries.
    others = ~queries
    max_distance, far = -1, 0
    for levels in (left.levels, right.levels):
        for d in range(len(levels) - 1, max(max_distance, 0) - 1, -1):
            level = levels[d] & others
            if level:
                if d > max_distance:
                    max_distance, far = d, level
                else:
                    far |= level
                break
    if not far:
        return current, [], -1.0
    return current, bit_ids(far), max_distance


class QueryDistanceTracker:
    """Maintains per-query BFS distances over a shrinking community graph.

    Parameters
    ----------
    community:
        The community graph; the tracker reads it but never mutates it.  The
        caller must call :meth:`remove_vertices` *after* deleting the vertices
        from the graph (the tracker keeps its own copy of the pre-deletion
        distances, which is what Algorithm 5 needs).  Deletion is the only
        supported mutation while a tracker is attached.
    query_vertices:
        The query vertices ``Q``.
    """

    def __init__(
        self, community: LabeledGraph, query_vertices: Sequence[Vertex]
    ) -> None:
        self._queries: List[Vertex] = list(query_vertices)
        self.full_recomputations = 0
        self.partial_updates = 0
        self._frozen = community.freeze()
        self._dead: Set[int] = set()
        self._query_ids: Dict[Vertex, Optional[int]] = {
            q: self._frozen.try_id_of(q) for q in self._queries
        }
        # Per-query distance list indexed by id; UNREACHED encodes inf,
        # None encodes "query vertex gone" (an empty distance map).
        self._id_dist: Dict[Vertex, Optional[List[int]]] = {}
        for q in self._queries:
            self.recompute(q)

    # ------------------------------------------------------------------
    # full recomputation
    # ------------------------------------------------------------------
    def recompute(self, query: Optional[Vertex] = None) -> None:
        """Recompute distances from scratch for one query vertex (or all)."""
        targets = [query] if query is not None else self._queries
        for q in targets:
            self.full_recomputations += 1
            qid = self._query_ids.get(q)
            if qid is None or qid in self._dead:
                self._id_dist[q] = None
                continue
            self._id_dist[q] = csr_bfs_distances(self._frozen, qid, dead=self._dead)

    # ------------------------------------------------------------------
    # incremental update (Algorithm 5)
    # ------------------------------------------------------------------
    def remove_vertices(self, deleted: Iterable[Vertex]) -> None:
        """Update distances after ``deleted`` vertices were removed from the graph.

        Must be called once per deletion batch, after the graph mutation.  The
        deleted vertices are dropped from every distance map, and the
        distances of vertices farther than the closest deleted vertex are
        recomputed with a partial BFS (:func:`update_distances`).
        """
        deleted_set = set(deleted)
        if not deleted_set:
            return
        dead = self._dead
        deleted_ids = set()
        for v in deleted_set:
            vid = self._frozen.try_id_of(v)
            if vid is not None and vid not in dead:
                deleted_ids.add(vid)
        # d_min is taken from the stored pre-deletion distances, so the
        # dead set can be extended before the per-query updates.
        dead |= deleted_ids
        for q in self._queries:
            old = self._id_dist.get(q)
            if old is None or self._query_ids[q] in dead:
                self._id_dist[q] = None
                continue
            self.partial_updates += 1
            update_distances(
                self._frozen,
                old,
                deleted_ids,
                (vid for vid in range(len(old)) if vid not in dead),
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def distance(self, vertex: Vertex, query: Vertex) -> float:
        """Return ``dist(vertex, query)`` in the current community (inf if unknown)."""
        dist_list = self._id_dist.get(query)
        if dist_list is None:
            return INFINITE_DISTANCE
        vid = self._frozen.try_id_of(vertex)
        if vid is None or vid in self._dead:
            return INFINITE_DISTANCE
        d = dist_list[vid]
        return float(d) if d >= 0 else INFINITE_DISTANCE

    def query_distance(self, vertex: Vertex) -> float:
        """Return ``dist(vertex, Q) = max_q dist(vertex, q)`` (Def. 5)."""
        worst = 0.0
        for q in self._queries:
            d = self.distance(vertex, q)
            if math.isinf(d):
                return INFINITE_DISTANCE
            worst = max(worst, d)
        return worst

    def _iter_id_query_distances(self):
        """Yield ``(vid, dist(v, Q))`` over surviving ids."""
        dist_lists = [self._id_dist.get(q) for q in self._queries]
        dead = self._dead
        for vid in range(self._frozen.num_vertices()):
            if vid in dead:
                continue
            worst = 0.0
            for dist_list in dist_lists:
                if dist_list is None:
                    worst = INFINITE_DISTANCE
                    break
                d = dist_list[vid]
                if d < 0:
                    worst = INFINITE_DISTANCE
                    break
                if d > worst:
                    worst = d
            yield vid, worst

    def graph_query_distance(self) -> float:
        """Return ``dist(G, Q)``: the maximum query distance over all vertices."""
        worst = 0.0
        for _, value in self._iter_id_query_distances():
            if math.isinf(value):
                return INFINITE_DISTANCE
            if value > worst:
                worst = value
        return worst

    def farthest_vertices(self) -> Tuple[List[Vertex], float]:
        """Return the non-query vertices with maximum query distance, and that distance."""
        query_ids = {vid for vid in self._query_ids.values() if vid is not None}
        best_distance = -1.0
        best_ids: List[int] = []
        for vid, value in self._iter_id_query_distances():
            if vid in query_ids:
                continue
            if value > best_distance:
                best_distance = value
                best_ids = [vid]
            elif value == best_distance:
                best_ids.append(vid)
        vertex_of = self._frozen.vertex_of
        return [vertex_of(vid) for vid in best_ids], best_distance

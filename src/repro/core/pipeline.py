"""CSR-native query pipeline: the BCC searches over one frozen graph.

The object runners (:func:`repro.core.online_bcc.run_online_bcc`,
:func:`repro.core.lp_bcc.run_lp_bcc`, :func:`repro.core.local_search.
run_l2p_bcc`) build per query the label groups, their k-cores, a bipartite
view, ``G0`` and a mutable community graph, then shrink that graph vertex by
vertex.  This module runs the same algorithms on the integer ids of the
engine's frozen :class:`~repro.graph.csr.CSRGraph`:

* the query-independent state is cached on that snapshot itself: per-id
  same-label and cross-label neighbour lists
  (:meth:`~repro.graph.csr.CSRGraph.label_split`) and each id's label-group
  coreness (:meth:`~repro.graph.csr.CSRGraph.group_coreness`, read from a
  snapshot's ``group_coreness`` segment when the engine was attached).
  :meth:`repro.api.BCCEngine.frozen_graph` fills both once, under the
  engine's freeze lock, before a search runs here;
* the automatic k1/k2 of Section 3.5 are coreness lookups, and ``L`` / ``R``
  (Algorithm 2, lines 2-3) are the BFS components of the query ids over
  same-label ids whose coreness reaches k1 / k2 — ``G0`` is the subgraph
  induced by ``L ∪ R``.  Cut from the group coreness, they depend on the
  snapshot alone, so the snapshot memoizes them per k
  (:meth:`~repro.graph.csr.CSRGraph.core_component`) and only the first
  search to reach a component runs its BFS;
* everything else Algorithm 2 derives — ``G0``'s χ, its intra-label degree
  counters and Def. 4's leader-pair and connectivity checks — reads only
  ``L``, ``R`` and b, so it is memoized on the snapshot under ``(L, R, b)``
  (:meth:`~repro.graph.csr.CSRGraph.g0`) and each query copies the counters
  it mutates.  L2P-BCC's candidate ``G0`` reads the same memo;
* a query keeps only id sets: the alive community, its two label sides,
  intra-label degree counters for the Algorithm 4 cascade, and (LP-BCC)
  each query id's distances for Algorithm 5.  Those are BFS level bitsets
  over the snapshot's adjacency bit table
  (:meth:`~repro.graph.csr.CSRGraph.adjacency_bits`, filled on the first
  BCC search): a batch rebuilds only the levels past the first one it
  touches, and the sweep reads the top levels, so neither loops over the
  alive ids.  Online-BCC recomputes both BFS in full every iteration
  (Algorithm 1), on the same table and kernel, into per-id lists.  A
  snapshot over the table's memory budget keeps per-id distance lists
  and set frontiers.  Algorithm 7 counts a leader's χ on the alive sides
  after each deletion batch.  An Algorithm 4 step ends at the first query
  id its cascade peels: Def. 4 needs Q in the community, so the step has
  failed, and a failed step counts no deletions;
* Algorithm 3 (each per-query recount and the ``G0`` fill) runs
  :func:`~repro.graph.csr.butterfly_degrees_between` on the two alive
  label sides over the snapshot's cross-label lists;
* the answer is its member ids on this snapshot, so no search builds a
  :class:`LabeledGraph`: the community's graph is cut out of the snapshot
  only when a caller first reads ``BCCResult.community``;
* each per-query loop calls :func:`repro.deadline.checkpoint`, and so does
  each per-query recount, candidate peel and core BFS, so a search past
  its deadline stops at the next one and publishes no partial core; the
  ``G0`` memo's fill never checks.

Every decision matches the object runners — the same ``G0``, the same
deletions, leader pair and Table-4 counts — because the algorithms only
ever delete vertices, so every intermediate community is an induced
subgraph of ``G0`` and is fully described by its alive ids.  L2P-BCC passes
its Algorithm 8 candidate as an id set; inside it the cores are taken over
the candidate's own label groups.  When the candidate is closed (at most η
ids, so its expansion drained the queue), that coreness is the snapshot's
group coreness and nothing is peeled; a candidate cut short by η, or read
at a user-set k below its path threshold, is peeled per query, and only
its cores are found by a BFS of its own.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from operator import mul
from types import MappingProxyType
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.core.bc_index import BCIndex
from repro.core.bcc_model import BCCParameters, BCCResult, resolve_query_labels
from repro.core.leader_pair import Leader, LeaderPairTracker, choose_leader
from repro.core.local_search import DEFAULT_CANDIDATE_SIZE
from repro.core.lp_bcc import DEFAULT_RHO
from repro.core.online_bcc import distance_sweep
from repro.core.path_weight import PathWeightConfig, butterfly_core_shortest_path
from repro.core.query_distance import (
    LevelDistances, farthest_ids, farthest_in_levels, update_distances,
)
from repro.deadline import checkpoint
from repro.eval.instrumentation import SearchInstrumentation
from repro.exceptions import (
    REASON_NO_CANDIDATE,
    REASON_NO_COMMUNITY,
    REASON_NO_LEADER_PAIR,
    REASON_QUERY_DISCONNECTED,
    EmptyCommunityError,
)
from repro.graph.csr import (
    G0,
    CSRGraph,
    butterfly_degrees_between,
    core_numbers,
    csr_bfs_distances,
    ids_bits,
)
from repro.graph.labeled_graph import LabeledGraph, Vertex

#: An engine's counter hook: ``count(name)`` bumps one engine counter.
Count = Callable[[str], None]


def _uncounted(name: str) -> None:
    """The counter hook of a search no engine counts."""


def resolve_parameters(
    csr: CSRGraph,
    q_left: Vertex,
    q_right: Vertex,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    b: int = 1,
) -> BCCParameters:
    """(k1, k2, b) with unset cores defaulting to the query coreness (§3.5)."""
    coreness = csr.group_coreness()
    if k1 is None:
        k1 = coreness[csr.id_of(q_left)]
    if k2 is None:
        k2 = coreness[csr.id_of(q_right)]
    return BCCParameters(k1=k1, k2=k2, b=b)


def _repr_key(csr: CSRGraph) -> Callable[[int], str]:
    """Tie-break key of an id: the ``repr`` of its vertex."""
    vertex_of = csr.interner.vertices().__getitem__
    return lambda vid: repr(vertex_of(vid))


# ----------------------------------------------------------------------
# id-set kernels
# ----------------------------------------------------------------------
def _core_component(
    query: int, k: int, coreness: Sequence[int], same: List[List[int]]
) -> Optional[Set[int]]:
    """Algorithm 2, lines 2-3: the connected k-core containing ``query``.

    The maximal k-core of a label group is ``{v : coreness(v) >= k}``, so
    the connected one containing the query is a BFS over same-label ids.
    """
    if coreness[query] < k:
        return None
    component = {query}
    frontier = [query]
    while frontier:
        checkpoint()
        reached = []
        for u in frontier:
            for w in same[u]:
                if w not in component and coreness[w] >= k:
                    component.add(w)
                    reached.append(w)
        frontier = reached
    return component


def _candidate_coreness(
    queries: Sequence[int], same: List[List[int]], candidate: Set[int], n: int
) -> List[int]:
    """Coreness inside ``candidate``'s label groups, over the queries' components.

    Cores live per connected component, so peeling the components of the
    candidate groups that hold the queries gives the values Algorithm 8
    (line 4) and the candidate-restricted Algorithm 2 need; every other id
    reads -1.  Same-label ids never reach another label, so both queries'
    components go through one peel.
    """
    component = list(queries)
    seen = set(component)
    for u in component:
        for w in same[u]:
            if w not in seen and w in candidate:
                seen.add(w)
                component.append(w)
    position = dict(zip(component, range(len(component))))
    local = [[position[w] for w in same[v] if w in position] for v in component]
    checkpoint()
    coreness = [-1] * n
    for v, c in zip(component, core_numbers(local)):
        coreness[v] = c
    return coreness


def _has_leader_pair(
    chi: Mapping[int, int], left: Iterable[int], right: Iterable[int], b: int
) -> bool:
    """Def. 4, condition 4: some vertex per side has χ >= b."""
    return (
        max((chi[v] for v in left), default=0) >= b
        and max((chi[v] for v in right), default=0) >= b
    )


def _connected(slices: List[List[int]], source: int, target: int, alive: Set[int]) -> bool:
    """Whether ``target`` is reachable from ``source`` inside ``alive``."""
    seen = {source}
    frontier: Iterable[int] = (source,)
    while frontier:
        reached: Set[int] = set()
        update = reached.update
        for u in frontier:
            update(slices[u])
        reached &= alive
        reached -= seen
        if target in reached:
            return True
        seen |= reached
        frontier = reached
    return source == target


# ----------------------------------------------------------------------
# per-query state
# ----------------------------------------------------------------------
class _Community:
    """One query's shrinking community: ``G0`` minus the deleted ids."""

    __slots__ = (
        "csr", "same", "cross", "left", "right", "alive", "deg", "q_left", "q_right",
        "parameters",
    )

    def __init__(
        self,
        csr: CSRGraph,
        left: Set[int],
        right: Set[int],
        deg: Dict[int, int],
        q_left: int,
        q_right: int,
        parameters: BCCParameters,
    ) -> None:
        self.csr = csr
        self.same, self.cross = csr.label_split()
        self.left = left
        self.right = right
        self.alive = left | right
        # Intra-label degree of every member (Algorithm 4's k-core counters).
        self.deg = deg
        self.q_left = q_left
        self.q_right = q_right
        self.parameters = parameters

    def butterfly_degrees(self) -> Dict[int, int]:
        # A per-query recount (Algorithms 4 and 7) checks the deadline; the
        # G0 memo's fill runs the same kernel and never does.
        checkpoint()
        return butterfly_degrees_between(self.left, self.right, self.cross)

    def butterfly_degree_of(self, v: int) -> int:
        """χ(v) in the alive community: Σ C(P[w], 2) over its 2-hop ids ``w``.

        ``P[w]`` counts the alive cross neighbours ``v`` and ``w`` share,
        gathered by set intersections into a :class:`Counter`.
        """
        cross = self.cross
        own, other = (self.left, self.right) if v in self.left else (self.right, self.left)
        paths: Counter = Counter()
        for u in other.intersection(cross[v]):
            paths.update(own.intersection(cross[u]))
        del paths[v]
        counts = paths.values()
        return (sum(map(mul, counts, counts)) - sum(counts)) // 2

    def _cascade(
        self, side: Set[int], k: int, query: int, removals: Iterable[int], removed: List[int]
    ) -> bool:
        """Delete ``removals`` from ``side`` and peel it back to a k-core.

        Every member has intra-label degree >= k before the call, so a
        vertex joins the peel exactly when its counter drops to ``k - 1``.
        Returns ``False`` as soon as it deletes ``query``: Def. 4 needs Q in
        the community, so the step has failed and the peel stops there.
        """
        same = self.same
        deg = self.deg
        threshold = k - 1
        stack = [v for v in removals if v in side]
        while stack:
            v = stack.pop()
            if v not in side:
                continue
            side.discard(v)
            removed.append(v)
            if v == query:
                return False
            for w in same[v]:
                if w in side:
                    d = deg[w] - 1
                    deg[w] = d
                    if d == threshold:
                        stack.append(w)
        return True

    def maintain(
        self, removals: List[int], check_butterfly: bool, inst: SearchInstrumentation
    ) -> Tuple[bool, List[int]]:
        """Algorithm 4: delete ``removals``, restore the cores, re-check the BCC.

        Returns whether the community is still a BCC containing the query,
        and every id this call removed.  A step whose left cascade deletes
        ``q_left`` fails there, before the right side is touched.
        """
        removed: List[int] = []
        kept = (
            self._cascade(self.left, self.parameters.k1, self.q_left, removals, removed)
            and self._cascade(self.right, self.parameters.k2, self.q_right, removals, removed)
        )
        self.alive.difference_update(removed)
        if not kept:
            return False, removed
        if check_butterfly:
            chi = self.butterfly_degrees()
            inst.record_butterfly_counting()
            if not _has_leader_pair(chi, self.left, self.right, self.parameters.b):
                return False, removed
        slices = self.csr.adjacency_slices()
        return _connected(slices, self.q_left, self.q_right, self.alive), removed


def _build_g0(csr: CSRGraph, left: FrozenSet[int], right: FrozenSet[int], b: int) -> G0:
    """Algorithm 2 past the cores: χ, the degree counters and the checks.

    ``L`` and ``R`` are each connected, so ``G0`` connects the query pair
    exactly when it connects any id of ``L`` to any id of ``R``: the check
    is a function of ``(L, R)``, like everything else here.
    """
    same, cross = csr.label_split()
    chi = butterfly_degrees_between(left, right, cross)
    deg = {v: len(side.intersection(same[v])) for side in (left, right) for v in side}
    valid = _has_leader_pair(chi, left, right, b) and _connected(
        csr.adjacency_slices(), min(left), min(right), left | right
    )
    return G0(left, right, MappingProxyType(chi), MappingProxyType(deg), valid)


def _find_g0(
    csr: CSRGraph,
    q_left: int,
    q_right: int,
    parameters: BCCParameters,
    inst: SearchInstrumentation,
    coreness: Optional[Sequence[int]] = None,
    count: Count = _uncounted,
) -> Optional[Tuple[_Community, Mapping[int, int]]]:
    """Algorithm 2 over ids: ``G0`` as a community, plus its χ, or ``None``.

    ``coreness`` cuts L and R; unset, the snapshot's group coreness does,
    and L and R are lookups in its memo of connected cores
    (:meth:`~repro.graph.csr.CSRGraph.core_component`).  Each BFS walks only
    its own label, so one list serves both sides.  The rest of ``G0``
    comes from the snapshot's memo under ``(L, R, b)``, and ``count`` (the
    engine's counter hook) records the lookup as ``g0_memo_hits`` or
    ``g0_memo_misses``.  The returned χ is shared: read it, never write it.
    """
    same = csr.label_split()[0]
    left = _query_core(csr, q_left, parameters.k1, coreness, same)
    if left is None:
        return None
    right = _query_core(csr, q_right, parameters.k2, coreness, same)
    if right is None:
        return None
    key = (left, right, parameters.b)
    g0, hit = csr.g0(key, lambda: _build_g0(csr, *key))
    if hit:
        count("g0_memo_hits")
    else:
        count("g0_memo_misses")
    # Table 4 counts the Algorithm 3 runs the algorithm makes, so a memo hit
    # still records the count that built its entry.
    inst.record_butterfly_counting()
    if not g0.valid:
        return None
    # The community shrinks copies of the cores and of the degree counters.
    community = _Community(
        csr, set(left), set(right), g0.deg.copy(), q_left, q_right, parameters
    )
    return community, g0.chi


def _query_core(
    csr: CSRGraph,
    query: int,
    k: int,
    coreness: Optional[Sequence[int]],
    same: List[List[int]],
) -> Optional[FrozenSet[int]]:
    """L or R: the connected k-core holding ``query`` under ``coreness``.

    Under the snapshot's group coreness (``coreness`` unset) it comes from
    the snapshot's memo, which runs the BFS only on a miss.
    """
    if coreness is None:
        group = csr.group_coreness()
        return csr.core_component(k, query, lambda: _core_component(query, k, group, same))
    found = _core_component(query, k, coreness, same)
    return None if found is None else frozenset(found)


def _no_candidate(parameters: BCCParameters) -> EmptyCommunityError:
    return EmptyCommunityError(
        f"no maximal ({parameters.k1}, {parameters.k2}, {parameters.b})-BCC "
        f"candidate contains the query pair",
        reason=REASON_NO_CANDIDATE,
    )


def _result(
    csr: CSRGraph,
    best: FrozenSet[int],
    labels: Tuple[object, object],
    parameters: BCCParameters,
    distance: float,
    iterations: int,
    inst: SearchInstrumentation,
    leader_pair: Optional[Tuple[Vertex, Vertex]] = None,
) -> BCCResult:
    """The answer: the ids ``best`` on ``csr``.

    No :class:`LabeledGraph` is built here: :attr:`BCCResult.community` cuts
    one out of ``csr`` when a caller first reads it.
    """
    left_label, right_label = labels
    return BCCResult(
        csr,
        best,
        left_label,
        right_label,
        parameters,
        leader_pair=leader_pair,
        query_distance=distance,
        iterations=iterations,
        statistics=inst.as_dict(),
    )


# ----------------------------------------------------------------------
# Online-BCC (Algorithm 1)
# ----------------------------------------------------------------------
def online_bcc(
    csr: CSRGraph,
    graph: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    *,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    b: int = 1,
    bulk_deletion: bool = True,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
    count: Count = _uncounted,
) -> BCCResult:
    """Algorithm 1 on the pipeline; same contract as ``run_online_bcc``.

    ``count`` is the serving engine's counter hook for the G0 memo.
    """
    inst = instrumentation if instrumentation is not None else SearchInstrumentation()
    labels = resolve_query_labels(graph, q_left, q_right)
    parameters = resolve_parameters(csr, q_left, q_right, k1, k2, b)
    ql, qr = csr.id_of(q_left), csr.id_of(q_right)
    found = _find_g0(csr, ql, qr, parameters, inst, count=count)
    if found is None:
        raise _no_candidate(parameters)
    community = found[0]
    alive = community.alive
    # The bit table is a fill-once snapshot build, outside Table 4's timer.
    rows = csr.adjacency_bits()

    best: Optional[FrozenSet[int]] = None
    best_distance = math.inf
    iterations = 0
    while True:
        checkpoint()
        with inst.time_query_distance():
            current, candidates, max_distance = distance_sweep(csr, ql, qr, alive, rows)
        if current < best_distance:
            best_distance = current
            best = frozenset(alive)
        if not candidates or max_distance <= 0:
            break
        if max_iterations is not None and iterations >= max_iterations:
            break
        if not bulk_deletion:
            candidates = [min(candidates, key=_repr_key(csr))]
        valid, removed = community.maintain(candidates, True, inst)
        iterations += 1
        # A failed step counts no deletions: its peel stops at the first
        # query id it deletes, which depends on the peel's order.
        inst.record_iteration(deleted=len(removed) if valid else 0)
        if not valid:
            break

    if best is None:
        raise EmptyCommunityError(reason=REASON_NO_COMMUNITY)
    return _result(csr, best, labels, parameters, best_distance, iterations, inst)


# ----------------------------------------------------------------------
# LP-BCC (Algorithm 1 + Algorithms 5, 6 and 7)
# ----------------------------------------------------------------------
def _leader_level_sets(
    query: int, side: Set[int], same: List[List[int]], rho: int
) -> List[List[int]]:
    """The ids 1..rho hops from ``query`` inside its core (Algorithm 6)."""
    levels: List[List[int]] = []
    seen = {query}
    frontier = [query]
    for _ in range(rho):
        reached = []
        for u in frontier:
            for w in same[u]:
                if w in side and w not in seen:
                    seen.add(w)
                    reached.append(w)
        if not reached:
            break
        levels.append(reached)
        frontier = reached
    return levels


def _leader_tracker(
    community: _Community, chi: Mapping[int, int], rho: int, inst: SearchInstrumentation
) -> LeaderPairTracker:
    """Algorithms 6 and 7 over ids: leaders picked on ``G0``, then tracked.

    The tracker reads the community itself: its alive sides, one id's χ
    after each deletion batch, and Algorithm 3 over the alive sides.
    """
    key = _repr_key(community.csr)
    left, right = community.left, community.right
    tracker = LeaderPairTracker(
        lambda: (left, right),
        community.butterfly_degree_of,
        community.butterfly_degrees,
        community.q_left,
        community.q_right,
        community.parameters.b,
        instrumentation=inst,
        key=key,
    )
    leaders = []
    for query, side in ((community.q_left, left), (community.q_right, right)):
        vertex = choose_leader(
            query,
            chi.__getitem__,
            max(chi[v] for v in side),
            _leader_level_sets(query, side, community.same, rho),
            community.parameters.b,
            key=key,
        )
        leaders.append(Leader(vertex, chi[vertex]))
    tracker.set_leaders(*leaders)
    return tracker


class _Distances:
    """Algorithm 5 over ids: per-query distance lists, updated per batch."""

    def __init__(self, csr: CSRGraph, alive: Set[int], q_left: int, q_right: int) -> None:
        self.csr = csr
        self.alive = alive
        self.queries = (q_left, q_right)
        self.dist = [csr_bfs_distances(csr, q, alive=alive) for q in self.queries]
        self.full_recomputations = 2
        self.partial_updates = 0

    def sweep(self) -> Tuple[float, List[int], float]:
        return farthest_ids(self.alive, self.dist[0], self.dist[1], *self.queries)

    def remove(self, removed: List[int]) -> None:
        for dist in self.dist:
            self.partial_updates += 1
            update_distances(self.csr, dist, removed, self.alive)


class _LevelDistances:
    """Algorithm 5 on the snapshot's adjacency bit table: per-query BFS levels.

    Same interface and counts as :class:`_Distances`; the alive community
    is one bitset, so neither the sweep nor a batch loops over its ids.
    """

    def __init__(self, rows: List[int], alive: Set[int], q_left: int, q_right: int) -> None:
        self.rows = rows
        self.alive = ids_bits(alive)
        self.queries = (q_left, q_right)
        self.dist = [LevelDistances(rows, q, self.alive) for q in self.queries]
        self.full_recomputations = 2
        self.partial_updates = 0

    def sweep(self) -> Tuple[float, List[int], float]:
        return farthest_in_levels(*self.dist, *self.queries)

    def remove(self, removed: List[int]) -> None:
        deleted = ids_bits(removed)
        self.alive &= ~deleted
        for dist in self.dist:
            self.partial_updates += 1
            dist.remove(self.rows, deleted, self.alive)


def _lp_search(
    csr: CSRGraph,
    labels: Tuple[object, object],
    q_left: Vertex,
    q_right: Vertex,
    parameters: BCCParameters,
    coreness: Optional[Sequence[int]],
    bulk_deletion: bool,
    rho: int,
    max_iterations: Optional[int],
    inst: SearchInstrumentation,
    count: Count = _uncounted,
) -> BCCResult:
    """The LP-BCC loop over ids, for the global graph or an L2P candidate.

    ``coreness`` is the coreness inside the candidate's label groups
    (``None``: the engine-wide label-group coreness).
    """
    ql, qr = csr.id_of(q_left), csr.id_of(q_right)
    found = _find_g0(csr, ql, qr, parameters, inst, coreness, count)
    if found is None:
        raise _no_candidate(parameters)
    community, chi = found
    alive = community.alive

    leaders = _leader_tracker(community, chi, rho, inst)
    if not leaders.revalidate():
        raise EmptyCommunityError(
            f"no leader pair with butterfly degree >= {parameters.b} exists in G0",
            reason=REASON_NO_LEADER_PAIR,
        )
    # The bit table is a fill-once snapshot build, outside Table 4's timer.
    rows = csr.adjacency_bits()
    with inst.time_query_distance():
        if rows is None:
            distances = _Distances(csr, alive, ql, qr)
        else:
            distances = _LevelDistances(rows, alive, ql, qr)

    best: Optional[FrozenSet[int]] = None
    best_distance = math.inf
    best_pair = leaders.leader_pair()
    iterations = 0
    while True:
        checkpoint()
        with inst.time_query_distance():
            current, candidates, max_distance = distances.sweep()
        if current < best_distance:
            best_distance = current
            best = frozenset(alive)
            best_pair = leaders.leader_pair()
        if not candidates or max_distance <= 0:
            break
        if max_iterations is not None and iterations >= max_iterations:
            break
        if not bulk_deletion:
            candidates = [min(candidates, key=_repr_key(csr))]
        valid, removed = community.maintain(candidates, False, inst)
        iterations += 1
        inst.record_iteration(deleted=len(removed) if valid else 0)
        if not valid:
            break
        leaders.remove_vertices(removed)
        with inst.time_query_distance():
            distances.remove(removed)
        if not leaders.revalidate():
            break

    if best is None:
        raise EmptyCommunityError(reason=REASON_NO_COMMUNITY)
    inst.add("leader_full_recounts", float(leaders.full_recounts))
    inst.add("distance_partial_updates", float(distances.partial_updates))
    inst.add("distance_full_recomputations", float(distances.full_recomputations))
    if best_pair is not None:
        best_pair = (csr.vertex_of(best_pair[0]), csr.vertex_of(best_pair[1]))
    return _result(
        csr, best, labels, parameters, best_distance, iterations, inst, best_pair
    )


def lp_bcc(
    csr: CSRGraph,
    graph: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    *,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    b: int = 1,
    bulk_deletion: bool = True,
    rho: int = DEFAULT_RHO,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
    count: Count = _uncounted,
) -> BCCResult:
    """LP-BCC on the pipeline; same contract as ``run_lp_bcc``.

    ``count`` is the serving engine's counter hook for the G0 memo.
    """
    inst = instrumentation if instrumentation is not None else SearchInstrumentation()
    labels = resolve_query_labels(graph, q_left, q_right)
    parameters = resolve_parameters(csr, q_left, q_right, k1, k2, b)
    return _lp_search(
        csr, labels, q_left, q_right, parameters, None,
        bulk_deletion, rho, max_iterations, inst, count,
    )


# ----------------------------------------------------------------------
# L2P-BCC (Algorithm 8)
# ----------------------------------------------------------------------
def _expand_candidate(
    csr: CSRGraph,
    path: List[int],
    labels: Tuple[int, int],
    thresholds: Tuple[int, int],
    eta: int,
) -> Set[int]:
    """Algorithm 8, line 3, over ids (see ``expand_candidate_graph``)."""
    slices, label_of = csr.adjacency_slices(), csr.labels
    coreness = csr.group_coreness()
    left_label, right_label = labels
    k_left, k_right = thresholds
    admitted: Set[int] = set()
    queue = deque()
    for v in path:
        if v not in admitted:
            admitted.add(v)
            queue.append(v)
    while queue and len(admitted) <= eta:
        checkpoint()
        for w in slices[queue.popleft()]:
            if w in admitted:
                continue
            label = label_of[w]
            if label == left_label:
                if coreness[w] < k_left:
                    continue
            elif label == right_label:
                if coreness[w] < k_right:
                    continue
            else:
                continue
            admitted.add(w)
            queue.append(w)
    return admitted


def l2p_bcc(
    csr: CSRGraph,
    graph: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    *,
    index: BCIndex,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
    b: int = 1,
    eta: int = DEFAULT_CANDIDATE_SIZE,
    path_config: PathWeightConfig = PathWeightConfig(),
    rho: int = DEFAULT_RHO,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
    count: Count = _uncounted,
) -> BCCResult:
    """Algorithm 8 on the pipeline; same contract as ``run_l2p_bcc``.

    The Def. 6 path search runs on the ids of ``graph.freeze()`` (this
    ``csr``) and returns ``None`` only for a disconnected pair; the
    candidate ``G_t`` is an id set, and the line-5 refinement (and the
    global fallback) is :func:`_lp_search`.  Both read the G0 memo, and
    ``count`` (the serving engine's counter hook) records each lookup.

    Line 4 and the candidate's Algorithm 2 read the coreness inside
    ``G_t``'s label groups.  When ``G_t`` is closed (``|G_t| <= η``, see
    ``expand_candidate_graph``), each side of ``G_t`` is a union of whole
    components of its threshold core ``{v : δ(v) >= threshold}``; k-cores
    nest, so that coreness is the snapshot's group coreness, and a core BFS
    at k >= threshold stays in ``G_t``.  Only a candidate cut short by η,
    or a user-set k below its threshold, is peeled.  An unpeeled
    candidate's search is the global LP-BCC search, so its empty answer
    skips the global fallback.
    """
    inst = instrumentation if instrumentation is not None else SearchInstrumentation()
    query_labels = resolve_query_labels(graph, q_left, q_right)
    seed_path = butterfly_core_shortest_path(
        graph, q_left, q_right, index, *query_labels, config=path_config
    )
    if seed_path is None:
        raise EmptyCommunityError(
            f"query vertices {q_left!r} and {q_right!r} are not connected",
            reason=REASON_QUERY_DISCONNECTED,
        )

    path = [csr.id_of(v) for v in seed_path]
    ql, qr = csr.id_of(q_left), csr.id_of(q_right)
    label_of, coreness = csr.labels, csr.group_coreness()
    labels = (label_of[ql], label_of[qr])
    thresholds = tuple(
        min((coreness[v] for v in path if label_of[v] == label), default=0)
        for label in labels
    )
    candidate = _expand_candidate(csr, path, labels, thresholds, eta)
    inst.add("candidate_vertices", float(len(candidate)))

    user_ks = (k1, k2)
    global_search = len(candidate) <= eta and all(
        k is None or k >= t for k, t in zip(user_ks, thresholds)
    )
    if not global_search:
        coreness = _candidate_coreness(
            (ql, qr), csr.label_split()[0], candidate, len(label_of)
        )
    if k1 is None:
        k1 = coreness[ql]
    if k2 is None:
        k2 = coreness[qr]
    parameters = BCCParameters(k1=k1, k2=k2, b=b)
    try:
        # A closed candidate's cores are the snapshot's memoized ones.
        result = _lp_search(
            csr, query_labels, q_left, q_right, parameters,
            None if global_search else coreness, True, rho, max_iterations, inst, count,
        )
    except EmptyCommunityError:
        # After a global search (group coreness, same (k1, k2, b)) the
        # fallback could only fail again — unless it re-resolves a user-set
        # k of 0.
        if len(candidate) >= graph.num_vertices() or (
            global_search and 0 not in user_ks
        ):
            raise
        # The local candidate missed the community; degrade to the global
        # LP-BCC search, exactly as the object runner does.
        inst.add("fallback_to_global", 1.0)
        fallback = resolve_parameters(
            csr, q_left, q_right, None if k1 == 0 else k1, None if k2 == 0 else k2, b
        )
        result = _lp_search(
            csr, query_labels, q_left, q_right, fallback, None,
            True, rho, max_iterations, inst, count,
        )
    result.statistics.update(inst.as_dict())
    return result

"""Def. 6: the butterfly-core path weight and its shortest-path search.

The local search (Algorithm 8) seeds its candidate graph with a path between
the two query vertices.  A plain hop-count shortest path may run through
low-coreness, low-butterfly vertices; Def. 6 therefore scores a path ``P``
from ``s`` to ``t`` as::

    weight(P) = hops(P)
              + gamma1 * (delta_max - min_{v in P} delta(v))
              + gamma2 * (chi_max   - min_{v in P} chi(v))

where δ(v) is the (label-group) coreness and χ(v) the butterfly degree of
vertex ``v`` — both served in O(1) by the :class:`~repro.core.bc_index.BCIndex`
— and δ_max / χ_max are the corresponding maxima over the graph.  Smaller
shortfalls give smaller weights, so the search prefers paths through
well-connected liaison vertices.

The weight is *not* edge-additive (the two penalty terms depend on the
minimum over the whole path), so Dijkstra on edges does not apply directly.
:func:`butterfly_core_shortest_path` runs an exact label-setting search over
``(vertex, hops, min δ, min χ)`` states with dominance pruning, on the ids of
the graph's frozen snapshot.  A* pruning (Hart, Nilsson & Raphael, 1968) skips
a state whose best completion — a lower bound h on its hops to the target,
minima capped by the target's δ and χ, scored by the search's own ``weight()``
so no tie is pruned — outweighs a target state already pushed.

The search stays local.  h comes from a BFS of the target grown one level at
a time, only until it holds the source: inside that ball h is the exact
distance, and an id it has not reached lies more than ``depth`` hops away, so
h is ``depth + 1``.  Where that bound cannot prune a state but the exact
distance might, the ball grows further, so the search pushes exactly the
states whole-graph distances would.  Each heap entry keeps its bound, and a
popped state beaten by a target state pushed since is not expanded: h is
consistent and minima only fall, so it could push nothing.  A cap on states
per vertex and on heap pops bounds the worst case (a tripped cap yields a
hop-shortest path, walked down inside the ball).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.bc_index import BCIndex
from repro.deadline import checkpoint
from repro.graph.labeled_graph import LabeledGraph, Label, Vertex

_INF = float("inf")


@dataclass(frozen=True)
class PathWeightConfig:
    """Weights of the coreness and butterfly penalties (paper default 0.5/0.5)."""

    gamma1: float = 0.5
    gamma2: float = 0.5

    def __post_init__(self) -> None:
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("gamma1 and gamma2 must be non-negative")


def path_weight(
    path: List[Vertex],
    index: BCIndex,
    left_label: Label,
    right_label: Label,
    config: PathWeightConfig = PathWeightConfig(),
    delta_max: Optional[int] = None,
    chi_max: Optional[int] = None,
) -> float:
    """Return the butterfly-core weight of an explicit path (Def. 6)."""
    if not path:
        return float("inf")
    if delta_max is None:
        delta_max = index.max_coreness()
    if chi_max is None:
        chi_max = index.max_butterfly_degree(left_label, right_label)
    hops = len(path) - 1
    min_core = min(index.coreness(v) for v in path)
    min_chi = min(index.butterfly_degree(v, left_label, right_label) for v in path)
    return hops + config.gamma1 * (delta_max - min_core) + config.gamma2 * (chi_max - min_chi)


def butterfly_core_shortest_path(
    graph: LabeledGraph,
    source: Vertex,
    target: Vertex,
    index: BCIndex,
    left_label: Label,
    right_label: Label,
    config: PathWeightConfig = PathWeightConfig(),
    max_labels_per_vertex: int = 16,
    max_expansions: int = 50000,
) -> Optional[List[Vertex]]:
    """Return a minimum butterfly-core-weight path from ``source`` to ``target``.

    Parameters
    ----------
    graph:
        The graph to search (typically the full input graph); the search runs
        on its frozen snapshot (:meth:`LabeledGraph.freeze`).
    source, target:
        Endpoints; ``None`` is returned when they are disconnected.
    index:
        A built :class:`BCIndex` providing δ(v) and χ(v) lookups.
    left_label, right_label:
        The label pair defining which butterfly degrees to use.
    config:
        Penalty weights γ1 and γ2.
    max_labels_per_vertex:
        Dominance-pruning cap: at most this many non-dominated states are kept
        per vertex.  Past it the search is a heuristic that may no longer be
        exact; the default is ample for the graphs used in the evaluation.
    max_expansions:
        Hard cap on the number of heap pops; when reached the search falls
        back to a hop-shortest path so that the caller always gets *some*
        connecting path when one exists.

    The deadline in force is checked once per level of the target's BFS and
    once per heap pop.  The search keeps no table of its own sized to the
    whole graph: its BFS reads the neighbour lists of the ids closer to the
    target than the source (and of further ones only when a bound needs
    them), and the label search those of the states it expands.
    """
    if source not in graph or target not in graph:
        return None
    csr = graph.freeze()
    delta, delta_max, chi, chi_max = index.id_tables(csr, left_label, right_label)
    s, t = csr.id_of(source), csr.id_of(target)
    slices = csr.adjacency_slices()
    ball = _TargetBall(slices, t)
    while s not in ball.hops:
        if not ball.grow():  # the target's component ran out first
            return None
    to_target = ball.hops
    delta_t, chi_t = delta[t], chi[t]

    def weight(hops: int, min_core: int, min_chi: int) -> float:
        return hops + config.gamma1 * (delta_max - min_core) + config.gamma2 * (chi_max - min_chi)

    # Heap entries are (weight, state, bound, vertex, hops, min δ, min χ); a
    # state is its push order (the tie-break) and indexes its (vertex, parent)
    # trail, and its bound is the least weight of a completion through it.
    heap = [(weight(0, delta[s], chi[s]), 0, 0.0, s, 0, delta[s], chi[s])]
    trail: List[Tuple[int, int]] = [(s, -1)]
    # Non-dominated (hops, min δ, min χ) labels per expanded vertex.
    labels: Dict[int, List[Tuple[int, int, int]]] = {}
    # The least weight of a target state pushed so far.
    best_target = _INF
    for _ in range(max_expansions):
        checkpoint()
        if not heap:
            break
        _, state, bound, u, hops, min_core, min_chi = heapq.heappop(heap)
        if u == t:
            path = []
            while state >= 0:
                u, state = trail[state]
                path.append(csr.vertex_of(u))
            path.reverse()
            return path
        if _dominated(labels.get(u), hops, min_core, min_chi):
            continue
        entry = labels.setdefault(u, [])
        if len(entry) >= max_labels_per_vertex:
            continue
        entry.append((hops, min_core, min_chi))
        if bound > best_target:
            # Beaten since it was pushed.  The hop bound is consistent and
            # minima only fall, so no successor's bound could beat the target
            # either; its label stays, so dominance and the cap see it.
            continue
        hops += 1
        for w in slices[u]:
            # A vertex already on this state's path is dominated by its own
            # earlier label there, so simple paths need no separate check.
            new_core = min(min_core, delta[w])
            new_chi = min(min_chi, chi[w])
            if _dominated(labels.get(w), hops, new_core, new_chi):
                continue
            capped_core, capped_chi = min(new_core, delta_t), min(new_chi, chi_t)
            bound = weight(hops + to_target.get(w, ball.depth + 1), capped_core, capped_chi)
            # Past the ball, w's hops are only bounded below: grow it until
            # they are exact or the bound already loses.
            while bound <= best_target < _INF and w not in to_target and ball.grow():
                bound = weight(hops + to_target.get(w, ball.depth + 1), capped_core, capped_chi)
            if bound > best_target:  # no completion through w can win
                continue
            new_weight = weight(hops, new_core, new_chi)
            if w == t:
                best_target = new_weight
            heapq.heappush(heap, (new_weight, len(trail), bound, w, hops, new_core, new_chi))
            trail.append((w, state))
    # A cap tripped (or every state was capped away): fall back to a
    # hop-shortest path, walking down the ball's distances to the target.
    u, path = s, [source]
    while u != t:
        u = next(w for w in slices[u] if to_target.get(w) == to_target[u] - 1)
        path.append(csr.vertex_of(u))
    return path


class _TargetBall:
    """A BFS from the target, grown one level at a time only as far as asked.

    ``hops`` holds the exact distance to the target of every id within
    ``depth`` hops of it; any other id lies at least ``depth + 1`` away.
    """

    __slots__ = ("hops", "depth", "_frontier", "_slices")

    def __init__(self, slices: Sequence[Sequence[int]], target: int) -> None:
        self.hops: Dict[int, int] = {target: 0}
        self.depth = 0
        self._frontier: Set[int] = {target}
        self._slices = slices

    def grow(self) -> bool:
        """Add the next level; ``False`` once the target's component ran out."""
        checkpoint()
        reached: Set[int] = set()
        for u in self._frontier:
            reached.update(self._slices[u])
        self._frontier = reached.difference(self.hops)
        if not self._frontier:
            return False
        self.depth += 1
        self.hops.update(dict.fromkeys(self._frontier, self.depth))
        return True


def _dominated(
    entry: Optional[Sequence[Tuple[int, int, int]]], hops: int, core: int, chi: int
) -> bool:
    """Whether a label in ``entry`` has no more hops and no smaller minima."""
    return entry is not None and any(
        other_hops <= hops and other_core >= core and other_chi >= chi
        for other_hops, other_core, other_chi in entry
    )

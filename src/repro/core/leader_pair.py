"""Algorithms 6 and 7: leader-pair identification and butterfly-degree update.

The BCC definition only requires *one* vertex per side whose butterfly degree
is at least ``b`` (the leader pair).  Re-running the full butterfly counting
(Algorithm 3) after every deletion just to re-verify this is wasteful, so the
paper proposes:

* **Algorithm 6 — leader pair identification.**  Pick, on each side, a vertex
  close to the query vertex whose butterfly degree is comfortably above the
  requirement (starting from half of the side's maximum butterfly degree and
  relaxing towards ``b``).  Such a vertex tends to keep satisfying χ >= b for
  many deletion rounds and tends not to be deleted early (it is close to the
  query).

* **Algorithm 7 — leader butterfly-degree update.**  When a vertex ``v`` is
  deleted, the leader ``p``'s butterfly degree decreases by the number of
  butterflies containing both ``p`` and ``v``; that number can be computed
  locally from common neighbourhoods, without any global recount
  (:func:`updated_leader_degree`).  Summed over a deletion batch, the
  losses equal the leader's χ before minus its χ after, so
  :class:`LeaderPairTracker` counts each surviving leader once per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Dict, Iterable, Optional, Tuple

from repro.eval.instrumentation import SearchInstrumentation
from repro.graph.bipartite import BipartiteView
from repro.graph.labeled_graph import LabeledGraph, Vertex
from repro.graph.traversal import bfs_distances


def _choose2(n: int) -> int:
    return n * (n - 1) // 2


@dataclass
class Leader:
    """A leader vertex together with its tracked butterfly degree."""

    vertex: Vertex
    butterfly_degree: int


def identify_leader(
    group: LabeledGraph,
    query: Vertex,
    butterfly_degrees: Dict[Vertex, int],
    b: int,
    rho: int = 2,
) -> Leader:
    """Algorithm 6: find a leader vertex for one side of the community.

    Parameters
    ----------
    group:
        The intra-group subgraph (``L`` or ``R``) used to measure hop
        distances from the query vertex.
    query:
        The query vertex on this side (``q_l`` or ``q_r``).
    butterfly_degrees:
        Current χ(v) values for the side's vertices (cross-group butterflies).
    b:
        The butterfly-degree requirement of the BCC query.
    rho:
        Search radius: leaders are looked for within ``rho`` hops of the query.

    Returns
    -------
    Leader
        The chosen leader and its current butterfly degree.  When no vertex
        within ``rho`` hops reaches the relaxed thresholds, the query vertex
        itself is returned (line 16 of Algorithm 6).  Among the qualifying
        vertices of the nearest hop level the one with the smallest
        ``repr`` wins, so the choice never depends on set iteration order.
    """
    chi = lambda v: butterfly_degrees.get(v, 0)  # noqa: E731 - tiny local alias
    b_max = 0
    for v in group.vertices():
        b_max = max(b_max, chi(v))
    distances = bfs_distances(group, query, max_depth=rho) if query in group else {}
    by_distance: Dict[int, list] = {}
    for v, d in distances.items():
        if v != query:
            by_distance.setdefault(d, []).append(v)
    vertex = choose_leader(
        query, chi, b_max, [by_distance.get(d, ()) for d in range(1, rho + 1)], b
    )
    return Leader(vertex, chi(vertex))


def choose_leader(query, chi, b_max: int, levels, b: int, key=repr):
    """The selection rule of Algorithm 6 over precomputed hop levels.

    ``levels[i]`` holds the vertices ``i + 1`` hops from ``query`` and
    ``chi`` maps a vertex to its butterfly degree.  The query wins outright
    when χ(query) exceeds half the side's maximum ``b_max``; otherwise the
    threshold relaxes by halves towards ``b`` and the nearest level with a
    vertex at the threshold supplies the leader, ties broken by the
    smallest ``key`` (the vertex ``repr`` by default).  Falls back to the
    query vertex.
    """
    threshold = b_max / 2.0
    if chi(query) > threshold:
        return query
    while threshold >= b and threshold > 0:
        for level in levels:
            qualifying = [v for v in level if chi(v) >= threshold]
            if qualifying:
                return min(qualifying, key=key)
        threshold /= 2.0
    return query


def identify_leader_pair(
    left_group: LabeledGraph,
    right_group: LabeledGraph,
    q_left: Vertex,
    q_right: Vertex,
    butterfly_degrees: Dict[Vertex, int],
    b: int,
    rho: int = 2,
) -> Tuple[Leader, Leader]:
    """Identify a leader on each side (Algorithm 6 applied twice)."""
    left = identify_leader(left_group, q_left, butterfly_degrees, b, rho)
    right = identify_leader(right_group, q_right, butterfly_degrees, b, rho)
    return left, right


def updated_leader_degree(
    bipartite: BipartiteView,
    leader: Vertex,
    leader_label_same_as_deleted: bool,
    deleted: Vertex,
) -> int:
    """Algorithm 7: return the decrease of χ(leader) caused by deleting ``deleted``.

    The bipartite view must still contain ``deleted`` (call this *before*
    removing the vertex from the view).

    * Same side (ℓ(p) = ℓ(v)): the butterflies containing both are
      ``C(|N(p) ∩ N(v)|, 2)``.
    * Opposite side and adjacent: for every other neighbour ``u`` of ``v``,
      the pair (p, u) loses the butterflies in which ``v`` was one of the two
      common neighbours, i.e. ``|N(u) ∩ N(p)| - 1`` each (the ``-1`` removes
      the wedge through ``v`` itself); non-adjacent opposite-side vertices
      share no butterfly with the leader's perspective that involves an edge
      to ``p``... they may still share butterflies, see note below.

    Note: two opposite-side vertices that are *not* adjacent can still lie in
    a common butterfly only if ... they cannot: a butterfly containing both a
    left vertex ``p`` and a right vertex ``v`` requires all four cross edges
    of the biclique, in particular the edge (p, v).  Hence the adjacency test
    of line 5.
    """
    if deleted not in bipartite or leader not in bipartite:
        return 0
    if leader == deleted:
        return 0
    if leader_label_same_as_deleted:
        common = bipartite.neighbors(leader) & bipartite.neighbors(deleted)
        return _choose2(len(common))
    if deleted not in bipartite.neighbors(leader):
        return 0
    loss = 0
    leader_neighbors = bipartite.neighbors(leader)
    for u in bipartite.neighbors(deleted):
        if u == leader:
            continue
        shared = len(bipartite.neighbors(u) & leader_neighbors)
        if shared >= 1:
            loss += shared - 1
    return loss


def side_max_leader(
    side: Collection[Vertex],
    degrees: Dict[Vertex, int],
    query: Vertex,
    key: Callable[[Vertex], object] = repr,
) -> Optional[Leader]:
    """Pick a leader on one side, preferring the query vertex when adequate.

    This is Algorithm 6 without the hop-distance refinement (which needs
    the intra-group graph): the query wins when its χ exceeds half the
    side's maximum, else the vertex of maximum χ with the largest ``key``.
    ``None`` for an empty side.
    """
    if not side:
        return None
    b_max = max(degrees.get(v, 0) for v in side)
    if query in side and degrees.get(query, 0) > b_max / 2.0:
        return Leader(query, degrees.get(query, 0))
    # The largest (degree, key): the key only among the top degree.
    best_vertex = max((v for v in side if degrees.get(v, 0) == b_max), key=key)
    return Leader(best_vertex, b_max)


class LeaderPairTracker:
    """Maintains a leader pair and its butterfly degrees across deletions.

    This is the runtime companion of Algorithms 6 and 7 used by LP-BCC and
    L2P-BCC.  The tracker holds no graph: it reads the caller's community
    through three callables, keeps the two leaders' butterfly degrees up to
    date as vertices are deleted (Algorithm 7), and falls back to a full
    butterfly recount plus re-identification (:func:`side_max_leader`)
    only when a leader is deleted or its degree drops below ``b``.  It
    starts with no leaders: the caller installs Algorithm 6's pair with
    :meth:`set_leaders`.

    Algorithm 7's per-vertex losses telescope: summed over a deletion batch
    they equal χ_before(p) − χ_after(p).  So the caller deletes each batch
    from its own community first, and :meth:`remove_vertices` sets each
    surviving leader's degree to its χ in what is left, the value the
    per-vertex updates of :func:`updated_leader_degree` add up to.

    Parameters
    ----------
    sides:
        Zero-argument callable returning the community's current (left,
        right) vertex sides.
    degree_of:
        Callable returning one vertex's current χ in the community.
    recount:
        Zero-argument callable returning fresh χ values for the whole
        current community (Algorithm 3).
    q_left, q_right:
        The query vertices (preferred as leaders when adequate).
    b:
        Butterfly-degree requirement.
    instrumentation:
        Optional counter object; full recounts are recorded as
        butterfly-counting calls and each batch's leader update is timed
        into ``leader_update_seconds``.
    key:
        Tie-break key among equally good leaders (largest wins); the vertex
        ``repr`` by default.  Callers tracking integer ids pass the ``repr``
        of the vertex behind each id.
    """

    def __init__(
        self,
        sides: Callable[[], Tuple[Collection[Vertex], Collection[Vertex]]],
        degree_of: Callable[[Vertex], int],
        recount: Callable[[], Dict[Vertex, int]],
        q_left: Vertex,
        q_right: Vertex,
        b: int,
        instrumentation: Optional[SearchInstrumentation] = None,
        key: Callable[[Vertex], object] = repr,
    ) -> None:
        self._sides = sides
        self._degree_of = degree_of
        self._recount = recount
        self._q_left = q_left
        self._q_right = q_right
        self._b = b
        self._inst = (
            instrumentation if instrumentation is not None else SearchInstrumentation()
        )
        self._key = key
        self.full_recounts = 0
        self._left_leader: Optional[Leader] = None
        self._right_leader: Optional[Leader] = None

    # ------------------------------------------------------------------
    # leaders
    # ------------------------------------------------------------------
    def set_leaders(self, left: Leader, right: Leader) -> None:
        """Install externally identified leaders (e.g. from :func:`identify_leader`)."""
        self._left_leader = left
        self._right_leader = right

    def leaders(self) -> Tuple[Optional[Leader], Optional[Leader]]:
        """Return the current (left, right) leaders."""
        return self._left_leader, self._right_leader

    def leader_pair(self) -> Optional[Tuple[Vertex, Vertex]]:
        """Return the leader vertices as a pair, if both exist."""
        if self._left_leader is None or self._right_leader is None:
            return None
        return (self._left_leader.vertex, self._right_leader.vertex)

    # ------------------------------------------------------------------
    # deletion handling
    # ------------------------------------------------------------------
    def remove_vertices(self, deleted: Iterable[Vertex]) -> None:
        """Algorithm 7 for a batch the caller has already deleted.

        A deleted leader is dropped; a surviving one takes its χ in the
        shrunken community, the sum of its per-vertex losses subtracted.
        """
        gone = set(deleted)
        with self._inst.time_leader_update():
            self._left_leader = self._surviving(self._left_leader, gone)
            self._right_leader = self._surviving(self._right_leader, gone)

    def _surviving(self, leader: Optional[Leader], gone) -> Optional[Leader]:
        if leader is None or leader.vertex in gone:
            return None
        leader.butterfly_degree = self._degree_of(leader.vertex)
        return leader

    # ------------------------------------------------------------------
    # validity checking
    # ------------------------------------------------------------------
    def leaders_satisfy_requirement(self) -> bool:
        """Return True when both tracked leaders still have χ >= b."""
        return (
            self._left_leader is not None
            and self._right_leader is not None
            and self._left_leader.butterfly_degree >= self._b
            and self._right_leader.butterfly_degree >= self._b
        )

    def revalidate(self) -> bool:
        """Ensure a valid leader pair exists, recounting butterflies if needed.

        Returns True when the butterfly constraint of Def. 4 still holds for
        the current community.  A full recount (Algorithm 3) happens only
        when the tracked leaders no longer satisfy the requirement.
        """
        if self.leaders_satisfy_requirement():
            return True
        degrees = self._recount()
        self.full_recounts += 1
        self._inst.record_butterfly_counting()
        left, right = self._sides()
        self._left_leader = side_max_leader(left, degrees, self._q_left, self._key)
        self._right_leader = side_max_leader(right, degrees, self._q_right, self._key)
        return self.leaders_satisfy_requirement()

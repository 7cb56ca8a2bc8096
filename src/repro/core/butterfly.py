"""Butterfly counting over cross-group bipartite graphs.

A *butterfly* is a 2×2 biclique (Def. 2); the *butterfly degree* χ(v) is the
number of butterflies containing vertex ``v`` (Def. 3).  The BCC model uses
butterfly degrees to certify cross-group interaction (Def. 4, condition 4).

This module implements:

* :func:`butterfly_degrees` — Algorithm 3: per-vertex butterfly degrees,
  counted by the one kernel entry point
  :func:`repro.graph.csr.butterfly_degrees_between` on the view's vertices
  (packed wedge rows on dense views, the vertex-priority strategy of Wang
  et al. [41] on sparse ones);
* :func:`butterfly_degree_of` — the per-vertex wedge count of Algorithm 3
  (``χ(v) = Σ_w C(|N(v) ∩ N(w)|, 2)`` over 2-hop neighbours ``w``) for one
  vertex;
* :func:`total_butterflies` — the global butterfly count of a bipartite graph
  (each butterfly touches four vertices, so it equals ``Σ_v χ(v) / 4``);
* :func:`max_butterfly_degree_per_side` — the ``max_l`` / ``max_r`` values
  Algorithm 2 checks against ``b``;
* :func:`brute_force_butterfly_degrees` — an O(n⁴) reference used by tests.

All functions accept a :class:`~repro.graph.bipartite.BipartiteView`.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Optional, Tuple

from repro.graph.bipartite import BipartiteView
from repro.graph.csr import butterfly_degrees_between
from repro.graph.labeled_graph import Vertex


def _choose2(n: int) -> int:
    """Return ``n`` choose 2."""
    return n * (n - 1) // 2


def butterfly_degree_of(bipartite: BipartiteView, vertex: Vertex) -> int:
    """Return χ(vertex): the number of butterflies containing ``vertex``.

    Uses the per-vertex wedge count of Algorithm 3: accumulate, for every
    2-hop neighbour ``w`` of ``vertex``, the number of length-2 paths
    ``P[w]`` between them, then sum ``C(P[w], 2)``.
    """
    if vertex not in bipartite:
        return 0
    paths: Dict[Vertex, int] = {}
    for u in bipartite.neighbors(vertex):
        for w in bipartite.neighbors(u):
            if w == vertex:
                continue
            paths[w] = paths.get(w, 0) + 1
    return sum(_choose2(count) for count in paths.values())


def butterfly_degrees(bipartite: BipartiteView) -> Dict[Vertex, int]:
    """Return χ(v) for every vertex of the bipartite graph (Algorithm 3).

    Counts on the view's own vertices with
    :func:`repro.graph.csr.butterfly_degrees_between` (no freeze); the
    counts equal :func:`butterfly_degree_of` per vertex.
    """
    left_set = bipartite.left()
    order = list(bipartite.vertices())
    left = [v for v in order if v in left_set]
    right = [v for v in order if v not in left_set]
    return butterfly_degrees_between(left, right, dict(zip(left, map(bipartite.neighbors, left))))


def total_butterflies(bipartite: BipartiteView) -> int:
    """Return the number of distinct butterflies in the bipartite graph.

    Counted from one side only: for every unordered pair of left vertices, the
    number of butterflies they span is ``C(common neighbours, 2)``.
    """
    left = list(bipartite.left())
    total = 0
    for v in left:
        paths: Dict[Vertex, int] = {}
        for u in bipartite.neighbors(v):
            for w in bipartite.neighbors(u):
                if w == v:
                    continue
                paths[w] = paths.get(w, 0) + 1
        total += sum(_choose2(count) for count in paths.values())
    # Each butterfly is counted once per ordered pair of its two left
    # vertices, i.e. twice.
    return total // 2


def max_butterfly_degree_per_side(
    bipartite: BipartiteView,
    degrees: Optional[Dict[Vertex, int]] = None,
) -> Tuple[int, int]:
    """Return ``(max_l, max_r)``: the maximum χ on the left and right sides.

    A caller-supplied ``degrees`` map is always treated as authoritative —
    including an *empty* dict (e.g. from a search step that skipped
    butterfly counting), which yields ``(0, 0)`` rather than triggering a
    silent recount.  Only ``degrees=None`` runs Algorithm 3.
    """
    if degrees is None:
        degrees = butterfly_degrees(bipartite)
    max_left = max((degrees.get(v, 0) for v in bipartite.left()), default=0)
    max_right = max((degrees.get(v, 0) for v in bipartite.right()), default=0)
    return max_left, max_right


def enumerate_butterflies(
    bipartite: BipartiteView,
) -> Iterable[Tuple[Vertex, Vertex, Vertex, Vertex]]:
    """Yield every butterfly as ``(l1, l2, r1, r2)`` with l1 < l2 and r1 < r2.

    Intended for small graphs (tests, case-study reporting); the count grows
    combinatorially on dense bipartite graphs.
    """
    left = sorted(bipartite.left(), key=repr)
    for l1, l2 in itertools.combinations(left, 2):
        common = sorted(bipartite.neighbors(l1) & bipartite.neighbors(l2), key=repr)
        for r1, r2 in itertools.combinations(common, 2):
            yield (l1, l2, r1, r2)


def brute_force_butterfly_degrees(bipartite: BipartiteView) -> Dict[Vertex, int]:
    """Reference implementation: count butterflies by explicit enumeration.

    Only suitable for small graphs; used by the test suite to validate
    :func:`butterfly_degrees`.
    """
    degrees: Dict[Vertex, int] = {v: 0 for v in bipartite.vertices()}
    for l1, l2, r1, r2 in enumerate_butterflies(bipartite):
        for vertex in (l1, l2, r1, r2):
            degrees[vertex] += 1
    return degrees

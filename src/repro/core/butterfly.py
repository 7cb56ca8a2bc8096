"""Butterfly counting over cross-group bipartite graphs.

A *butterfly* is a 2×2 biclique (Def. 2); the *butterfly degree* χ(v) is the
number of butterflies containing vertex ``v`` (Def. 3).  The BCC model uses
butterfly degrees to certify cross-group interaction (Def. 4, condition 4).

This module implements:

* :func:`butterfly_degrees` — Algorithm 3: per-vertex butterfly degrees via
  wedge counting with a hash map (``χ(v) = Σ_w C(|N(v) ∩ N(w)|, 2)`` over
  2-hop neighbours ``w``);
* :func:`butterfly_degree_of` — the same count restricted to one vertex;
* :func:`total_butterflies` — the global butterfly count of a bipartite graph
  (each butterfly touches four vertices, so it equals ``Σ_v χ(v) / 4``);
* :func:`butterfly_degrees_priority` — the vertex-priority optimisation of
  Wang et al. [41]: wedges are enumerated from the endpoint with the lower
  (degree, id) priority so each wedge is charged once, halving the work while
  producing identical counts;
* :func:`max_butterfly_degree_per_side` — the ``max_l`` / ``max_r`` values
  Algorithm 2 checks against ``b``;
* :func:`brute_force_butterfly_degrees` — an O(n⁴) reference used by tests.

All functions accept a :class:`~repro.graph.bipartite.BipartiteView`.  The
counting entry points additionally accept ``backend="auto" | "object" |
"csr"``; the CSR fast path (:mod:`repro.graph.csr`) produces identical
counts over interned integer ids and is chosen automatically for large
views.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Optional, Tuple

from repro.graph.bipartite import BipartiteView
from repro.graph.csr import CSRBipartiteView, csr_butterfly_degrees
from repro.graph.labeled_graph import Vertex

#: Cross-edge count above which ``backend="auto"`` freezes the view and
#: counts over flat arrays (below it the freeze overhead dominates).
CSR_BUTTERFLY_MIN_EDGES = 128


def _choose2(n: int) -> int:
    """Return ``n`` choose 2."""
    return n * (n - 1) // 2


def _resolve_backend(bipartite: BipartiteView, backend: str) -> str:
    """Map ``auto`` to ``csr``/``object`` by bipartite size."""
    if backend != "auto":
        if backend not in ("csr", "object"):
            raise ValueError(f"unknown backend {backend!r}")
        return backend
    return "csr" if bipartite.num_edges() >= CSR_BUTTERFLY_MIN_EDGES else "object"


def _csr_butterfly_degrees(bipartite: BipartiteView) -> Dict[Vertex, int]:
    """Freeze the view and count butterflies over flat integer arrays."""
    frozen = CSRBipartiteView.freeze(bipartite)
    vertex_of = frozen.vertex_of
    return {vertex_of(i): c for i, c in enumerate(csr_butterfly_degrees(frozen))}


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


def butterfly_degrees(bipartite: BipartiteView, backend: str = "auto") -> Dict[Vertex, int]:
    """Return χ(v) for every vertex of the bipartite graph (Algorithm 3).

    ``backend`` selects the counting substrate: ``"object"`` runs the plain
    per-vertex wedge count over the adjacency sets, ``"csr"`` freezes the
    view and runs the flat-array vertex-priority kernel
    (:func:`repro.graph.csr.csr_butterfly_degrees`), and ``"auto"`` picks by
    size.  Every backend returns exactly the same counts.
    """
    if _resolve_backend(bipartite, backend) == "csr":
        return _csr_butterfly_degrees(bipartite)
    degrees: Dict[Vertex, int] = {}
    for vertex in bipartite.vertices():
        degrees[vertex] = butterfly_degree_of(bipartite, vertex)
    return degrees


def butterfly_degrees_priority(
    bipartite: BipartiteView, backend: str = "auto"
) -> Dict[Vertex, int]:
    """Return χ(v) for every vertex using single-enumeration wedge processing.

    Inspired by the vertex-priority counting of Wang et al. [41]: instead of
    re-counting butterflies once per member vertex (as the plain Algorithm 3
    does), every butterfly is enumerated exactly once — from the
    lower-priority endpoint of its *left* same-side pair — and its
    contribution is credited to all four member vertices in one pass.  The
    enumeration side is chosen as the side with the smaller total degree so
    that the wedge work is minimised.  The output matches
    :func:`butterfly_degrees` exactly; only the work performed differs.  The
    ``"csr"``/``"auto"`` backends route to the flat-array implementation of
    the same strategy.
    """
    if _resolve_backend(bipartite, backend) == "csr":
        return _csr_butterfly_degrees(bipartite)
    degrees: Dict[Vertex, int] = {v: 0 for v in bipartite.vertices()}

    left = bipartite.left()
    right = bipartite.right()
    left_work = sum(bipartite.degree(v) for v in left)
    right_work = sum(bipartite.degree(v) for v in right)
    enumeration_side = left if left_work <= right_work else right

    def priority(v: Vertex) -> Tuple[int, str]:
        return (bipartite.degree(v), repr(v))

    for v in enumeration_side:
        pv = priority(v)
        # Wedge counts to same-side 2-hop neighbours with higher priority, and
        # the multiset of middle vertices for each such endpoint pair.
        paths: Dict[Vertex, int] = {}
        middles: Dict[Vertex, list] = {}
        for u in bipartite.neighbors(v):
            for w in bipartite.neighbors(u):
                if w == v or priority(w) <= pv:
                    continue
                paths[w] = paths.get(w, 0) + 1
                middles.setdefault(w, []).append(u)
        for w, count in paths.items():
            butterflies = _choose2(count)
            if butterflies == 0:
                continue
            degrees[v] += butterflies
            degrees[w] += butterflies
            # Each middle vertex u participates in (count - 1) butterflies of
            # this (v, w) pair: one for each choice of the other middle vertex.
            for u in middles[w]:
                degrees[u] += count - 1
    return degrees


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


def vertices_with_butterfly_at_least(
    bipartite: BipartiteView,
    threshold: int,
    degrees: Optional[Dict[Vertex, int]] = None,
) -> Dict[str, set]:
    """Return per-side sets of vertices whose butterfly degree is >= threshold.

    As with :func:`max_butterfly_degree_per_side`, a caller-supplied
    ``degrees`` map (even an empty one) is reused verbatim; counting only
    runs when ``degrees`` is ``None``.
    """
    if degrees is None:
        degrees = butterfly_degrees(bipartite)
    return {
        "left": {v for v in bipartite.left() if degrees.get(v, 0) >= threshold},
        "right": {v for v in bipartite.right() if degrees.get(v, 0) >= threshold},
    }


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
    :func:`butterfly_degrees` and :func:`butterfly_degrees_priority`.
    """
    degrees: Dict[Vertex, int] = {v: 0 for v in bipartite.vertices()}
    for l1, l2, r1, r2 in enumerate_butterflies(bipartite):
        for vertex in (l1, l2, r1, r2):
            degrees[vertex] += 1
    return degrees

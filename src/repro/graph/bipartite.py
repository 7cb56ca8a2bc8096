"""Cross-group bipartite graph extraction.

The BCC model reasons about the bipartite graph ``B = (V_L, V_R, E_B)`` whose
edges are the heterogeneous edges between the two labeled groups of a
community (Algorithm 2, line 4).  Rather than introduce a second graph class,
:class:`BipartiteView` stores the two sides plus a plain adjacency restricted
to cross edges; this is exactly the structure the butterfly-counting and
leader-pair algorithms need, and it supports vertex deletion so it can be
maintained alongside the shrinking community.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.exceptions import VertexNotFoundError
from repro.graph.labeled_graph import LabeledGraph, Vertex


class BipartiteView:
    """A mutable bipartite graph over two disjoint vertex sides.

    Parameters
    ----------
    left, right:
        The two disjoint vertex sets.
    edges:
        Iterable of ``(u, v)`` pairs; each edge must join a left vertex with a
        right vertex (in either order).  Edges whose endpoints are not in the
        provided sides are ignored, which makes it convenient to pass a full
        edge list and let the view filter it.
    """

    __slots__ = ("_left", "_right", "_adj", "_num_edges")

    def __init__(
        self,
        left: Iterable[Vertex],
        right: Iterable[Vertex],
        edges: Optional[Iterable[Tuple[Vertex, Vertex]]] = None,
    ) -> None:
        self._left: Set[Vertex] = set(left)
        self._right: Set[Vertex] = set(right)
        overlap = self._left & self._right
        if overlap:
            raise ValueError(f"bipartite sides overlap on {sorted(map(repr, overlap))[:5]}")
        self._adj: Dict[Vertex, Set[Vertex]] = {
            v: set() for v in self._left | self._right
        }
        self._num_edges = 0
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction / mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add a cross edge between a left and a right vertex (either order).

        Pairs with both endpoints on the same side, or with an endpoint not in
        the view, are silently ignored.
        """
        if u in self._left and v in self._right:
            pass
        elif v in self._left and u in self._right:
            u, v = v, u
        else:
            return
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._num_edges += 1

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and its incident cross edges from the view."""
        if vertex not in self._adj:
            return
        for nbr in self._adj[vertex]:
            self._adj[nbr].discard(vertex)
        self._num_edges -= len(self._adj[vertex])
        del self._adj[vertex]
        self._left.discard(vertex)
        self._right.discard(vertex)

    def remove_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Remove every vertex in ``vertices`` from the view."""
        for vertex in list(vertices):
            self.remove_vertex(vertex)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adj

    def left(self) -> Set[Vertex]:
        """Return the current left vertex set (a copy)."""
        return set(self._left)

    def right(self) -> Set[Vertex]:
        """Return the current right vertex set (a copy)."""
        return set(self._right)

    def side(self, vertex: Vertex) -> str:
        """Return ``"left"`` or ``"right"`` for ``vertex``."""
        if vertex in self._left:
            return "left"
        if vertex in self._right:
            return "right"
        raise VertexNotFoundError(vertex)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices of the view."""
        return iter(self._adj)

    def num_vertices(self) -> int:
        """Return the number of vertices on both sides."""
        return len(self._adj)

    def num_edges(self) -> int:
        """Return the number of cross edges."""
        return self._num_edges

    def edges(self) -> Iterator[Tuple[Vertex, Vertex]]:
        """Iterate over cross edges as ``(left_vertex, right_vertex)``."""
        for u in self._left:
            for v in self._adj[u]:
                yield (u, v)

    def neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """Return the cross-neighbour set of ``vertex`` (do not mutate)."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        return self._adj[vertex]

    def degree(self, vertex: Vertex) -> int:
        """Return the number of cross edges incident to ``vertex``."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        return len(self._adj[vertex])

    def max_degree(self) -> int:
        """Return the maximum cross degree over all vertices (0 if empty)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def copy(self) -> "BipartiteView":
        """Return an independent copy of the view."""
        clone = BipartiteView(self._left, self._right)
        clone._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone


def extract_bipartite(
    graph: LabeledGraph,
    left_vertices: Iterable[Vertex],
    right_vertices: Iterable[Vertex],
) -> BipartiteView:
    """Build the cross-group bipartite graph between two vertex sets.

    This realizes Algorithm 2, line 4: ``B = (V_B, E_B)`` with
    ``V_B = V_L ∪ V_R`` and ``E_B = (V_L × V_R) ∩ E``.  Only edges of
    ``graph`` joining a left vertex to a right vertex are kept.
    """
    left = {v for v in left_vertices if v in graph}
    right = {v for v in right_vertices if v in graph}
    view = BipartiteView(left, right)
    smaller, other = (left, right) if len(left) <= len(right) else (right, left)
    for u in smaller:
        for w in graph.neighbors(u):
            if w in other:
                view.add_edge(u, w)
    return view


def extract_label_bipartite(
    graph: LabeledGraph, left_label, right_label
) -> BipartiteView:
    """Build the bipartite graph between two label groups of ``graph``."""
    return extract_bipartite(
        graph,
        graph.vertices_with_label(left_label),
        graph.vertices_with_label(right_label),
    )

"""The labeled graph substrate used throughout the library.

The paper works on an undirected labeled graph ``G = (V, E, l)`` where every
vertex carries exactly one label (Section 3.1).  Edges between vertices with
the same label are *homogeneous* edges; edges between vertices with different
labels are *heterogeneous* (cross) edges.

:class:`LabeledGraph` is a small, dependency-free adjacency-set structure
optimised for the operations the BCC algorithms need most:

* neighbourhood iteration and degree queries,
* vertex deletion with incident-edge cleanup (the greedy algorithms shrink the
  graph by removing vertices),
* induced subgraphs restricted to a vertex set and/or a label set,
* enumeration of vertices by label.

Vertices may be any hashable object (ints for synthetic graphs, strings for
the case-study networks).  Labels may be any hashable object as well.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Mapping, Optional, Set, Tuple

from repro.exceptions import EdgeNotFoundError, VertexNotFoundError

Vertex = Hashable
Label = Hashable
Edge = Tuple[Vertex, Vertex]


class LabeledGraph:
    """An undirected graph whose vertices carry a single label each.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs used to seed the graph.  Vertices
        appearing in edges are added automatically with label ``None`` unless
        they already exist.
    labels:
        Optional mapping from vertex to label applied after the edges are
        inserted.

    Examples
    --------
    >>> g = LabeledGraph()
    >>> g.add_vertex(1, label="SE")
    >>> g.add_vertex(2, label="UI")
    >>> g.add_edge(1, 2)
    >>> g.degree(1)
    1
    >>> g.is_cross_edge(1, 2)
    True
    """

    __slots__ = ("_adj", "_labels", "_label_index", "_num_edges", "_version", "_frozen", "_frozen_version")

    def __init__(
        self,
        edges: Optional[Iterable[Edge]] = None,
        labels: Optional[Mapping[Vertex, Label]] = None,
    ) -> None:
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self._labels: Dict[Vertex, Label] = {}
        # label -> set of vertices carrying it, maintained on every mutation
        # so per-label queries need not scan all vertices.
        self._label_index: Dict[Label, Set[Vertex]] = {}
        self._num_edges: int = 0
        # Mutation counter used to invalidate the cached CSR snapshot.
        self._version: int = 0
        self._frozen = None
        self._frozen_version: int = -1
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)
        if labels is not None:
            for vertex, label in labels.items():
                if vertex not in self._adj:
                    self.add_vertex(vertex, label=label)
                else:
                    self.set_label(vertex, label)

    # ------------------------------------------------------------------
    # construction / mutation
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: Vertex, label: Label = None) -> None:
        """Add ``vertex`` with ``label``; updating the label if it exists."""
        if vertex not in self._adj:
            self._adj[vertex] = set()
            self._labels[vertex] = label
            self._label_index.setdefault(label, set()).add(vertex)
            self._version += 1
        elif label is not None and self._labels[vertex] != label:
            self._move_label(vertex, self._labels[vertex], label)
            self._labels[vertex] = label
            self._version += 1

    def _move_label(self, vertex: Vertex, old_label: Label, new_label: Label) -> None:
        """Move ``vertex`` between label-index buckets."""
        bucket = self._label_index.get(old_label)
        if bucket is not None:
            bucket.discard(vertex)
            if not bucket:
                del self._label_index[old_label]
        self._label_index.setdefault(new_label, set()).add(vertex)

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``(u, v)``.

        Self-loops are ignored (the BCC model never uses them).  Missing
        endpoints are added with label ``None``.
        """
        if u == v:
            return
        if u not in self._adj:
            self.add_vertex(u)
        if v not in self._adj:
            self.add_vertex(v)
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._num_edges += 1
            self._version += 1

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``(u, v)``; raise :class:`EdgeNotFoundError` if absent."""
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        self._version += 1

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and all incident edges."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        for neighbor in self._adj[vertex]:
            self._adj[neighbor].discard(vertex)
        self._num_edges -= len(self._adj[vertex])
        del self._adj[vertex]
        bucket = self._label_index.get(self._labels[vertex])
        if bucket is not None:
            bucket.discard(vertex)
            if not bucket:
                del self._label_index[self._labels[vertex]]
        del self._labels[vertex]
        self._version += 1

    def remove_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Remove every vertex in ``vertices`` that is present in the graph."""
        for vertex in list(vertices):
            if vertex in self._adj:
                self.remove_vertex(vertex)

    def set_label(self, vertex: Vertex, label: Label) -> None:
        """Assign ``label`` to an existing ``vertex``."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        if self._labels[vertex] != label:
            self._move_label(vertex, self._labels[vertex], label)
            self._labels[vertex] = label
            self._version += 1

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def num_vertices(self) -> int:
        """Number of vertices currently in the graph."""
        return len(self._adj)

    def num_edges(self) -> int:
        """Number of undirected edges currently in the graph."""
        return self._num_edges

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once."""
        seen: Set[Vertex] = set()
        for u in self._adj:
            for v in self._adj[u]:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` if the edge ``(u, v)`` exists."""
        return u in self._adj and v in self._adj[u]

    def neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """Return the (live) neighbour set of ``vertex``.

        The returned set is the internal adjacency set; callers must not
        mutate it.  Use ``set(g.neighbors(v))`` when iterating while mutating
        the graph.
        """
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        return self._adj[vertex]

    def degree(self, vertex: Vertex) -> int:
        """Return the degree of ``vertex``."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        return len(self._adj[vertex])

    def max_degree(self) -> int:
        """Return the maximum vertex degree (0 for an empty graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    # ------------------------------------------------------------------
    # labels
    # ------------------------------------------------------------------
    def label(self, vertex: Vertex) -> Label:
        """Return the label of ``vertex``."""
        if vertex not in self._labels:
            raise VertexNotFoundError(vertex)
        return self._labels[vertex]

    def labels(self) -> Set[Label]:
        """Return the set of distinct labels used by vertices in the graph."""
        return set(self._label_index)

    def label_map(self) -> Dict[Vertex, Label]:
        """Return a copy of the vertex-to-label mapping."""
        return dict(self._labels)

    def vertices_with_label(self, label: Label) -> Set[Vertex]:
        """Return the set of vertices whose label equals ``label``.

        Served from the maintained label index in O(group size) — no scan
        over all vertices.  The returned set is a copy and safe to mutate.
        """
        return set(self._label_index.get(label, ()))

    def label_counts(self) -> Dict[Label, int]:
        """Return a histogram mapping each label to its number of vertices."""
        return {lab: len(bucket) for lab, bucket in self._label_index.items()}

    def is_cross_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` if ``(u, v)`` is a heterogeneous (cross-label) edge."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return self._labels[u] != self._labels[v]

    def cross_edges(self) -> Iterator[Edge]:
        """Iterate over all heterogeneous edges."""
        for u, v in self.edges():
            if self._labels[u] != self._labels[v]:
                yield (u, v)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    @classmethod
    def adopt(
        cls, adjacency: Dict[Vertex, Set[Vertex]], labels: Dict[Vertex, Label]
    ) -> "LabeledGraph":
        """Build a graph that takes ownership of ready-made adjacency sets.

        ``adjacency`` must be symmetric, free of self-loops and keyed by
        exactly the vertices of ``labels``; nothing is copied or checked.
        This is the bulk path for answers cut out of a frozen snapshot
        (:meth:`repro.graph.csr.CSRGraph.induced`).
        """
        graph = cls()
        graph._adj = adjacency
        graph._labels = labels
        for vertex, label in labels.items():
            graph._label_index.setdefault(label, set()).add(vertex)
        graph._num_edges = sum(map(len, adjacency.values())) // 2
        return graph

    def copy(self) -> "LabeledGraph":
        """Return a deep copy of the graph (labels included)."""
        clone = LabeledGraph()
        clone._labels = dict(self._labels)
        clone._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        clone._label_index = {
            lab: set(bucket) for lab, bucket in self._label_index.items()
        }
        clone._num_edges = self._num_edges
        return clone

    def freeze(self):
        """Return a cached CSR snapshot of this graph (see :mod:`repro.graph.csr`).

        The snapshot is rebuilt lazily after any mutation (tracked through an
        internal version counter), so repeated kernel calls on an
        unmutated graph pay the freeze cost once.
        """
        from repro.graph.csr import CSRGraph  # deferred: csr imports this module

        if self._frozen is None or self._frozen_version != self._version:
            self._frozen = CSRGraph.freeze(self)
            self._frozen_version = self._version
        return self._frozen

    def has_frozen(self) -> bool:
        """Return ``True`` when a current (non-stale) CSR snapshot is cached."""
        return self._frozen is not None and self._frozen_version == self._version

    def version(self) -> int:
        """Return the mutation counter (bumped on every structural change).

        Long-lived caches keyed on a graph (the engine's label-group cache,
        the CSR snapshot) compare this counter to detect staleness.
        """
        return self._version

    def induced_subgraph(self, vertices: Iterable[Vertex]) -> "LabeledGraph":
        """Return the subgraph induced by ``vertices`` (labels preserved).

        The subgraph iterates its vertices in the order ``vertices`` gives
        them, so an ordered argument fixes the subgraph's iteration order
        (and the ids of its CSR snapshot).
        """
        keep = dict.fromkeys(v for v in vertices if v in self._adj)
        sub = LabeledGraph()
        for v in keep:
            sub.add_vertex(v, label=self._labels[v])
        for v in keep:
            for w in self._adj[v]:
                if w in keep:
                    sub.add_edge(v, w)
        return sub

    def label_induced_subgraph(self, label: Label) -> "LabeledGraph":
        """Return the subgraph induced by all vertices carrying ``label``."""
        return self.induced_subgraph(self.vertices_with_label(label))

    def merge(self, other: "LabeledGraph") -> None:
        """Union ``other`` into this graph in place (labels from ``other`` win)."""
        for v in other.vertices():
            self.add_vertex(v, label=other.label(v))
        for u, v in other.edges():
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LabeledGraph(|V|={self.num_vertices()}, |E|={self.num_edges()}, "
            f"labels={len(self.labels())})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._labels == other._labels and self._adj == other._adj

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("LabeledGraph objects are mutable and unhashable")

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------
    def require_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Raise :class:`VertexNotFoundError` unless every vertex exists."""
        for v in vertices:
            if v not in self._adj:
                raise VertexNotFoundError(v)


def as_labeled_graph(graph: object) -> LabeledGraph:
    """``graph``, or the ``.graph`` of a bundle; else :class:`TypeError`."""
    if not isinstance(graph, LabeledGraph):
        graph = getattr(graph, "graph", graph)
    if not isinstance(graph, LabeledGraph):
        raise TypeError(f"expected a LabeledGraph or bundle, got {type(graph)!r}")
    return graph


def resolve_group_provider(graph: LabeledGraph, groups):
    """Return the label→subgraph callable: ``groups`` or the graph's own.

    The mBCC search accepts an optional ``groups`` hook so a prepared
    :class:`repro.api.BCCEngine` can supply its per-label subgraph cache;
    this helper centralises the fallback to
    :meth:`LabeledGraph.label_induced_subgraph` so every consumer resolves
    the cache identically.
    """
    return groups if groups is not None else graph.label_induced_subgraph


def union_graphs(*graphs: LabeledGraph) -> LabeledGraph:
    """Return a new graph that is the union of the given labeled graphs.

    Used by :func:`repro.core.find_g0.find_g0` to assemble ``G0 = L ∪ B ∪ R``.
    """
    merged = LabeledGraph()
    for graph in graphs:
        merged.merge(graph)
    return merged

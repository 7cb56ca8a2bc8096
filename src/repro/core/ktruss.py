"""k-truss decomposition and maintenance.

The paper's main experimental baseline is CTC, the *closest truss community*
model of Huang et al. [20]: a connected k-truss containing the query vertices
with the largest ``k`` and, among those, small diameter.  A k-truss is a
subgraph in which every edge is contained in at least ``k - 2`` triangles
(within the subgraph).

This module provides the truss machinery the baseline needs:

* :func:`edge_support` — number of triangles containing each edge;
* :func:`truss_decomposition` — trussness of every edge (peeling algorithm);
* :func:`k_truss_vertices` / :func:`k_truss` — maximal k-truss extraction;
* :func:`maintain_k_truss` — cascade removal after vertex deletions;
* :func:`max_truss_value_containing` — the largest ``k`` such that a
  connected k-truss contains all query vertices.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set

from repro.deadline import checkpoint
from repro.graph.labeled_graph import LabeledGraph, Vertex
from repro.graph.traversal import connected_component

EdgeKey = FrozenSet[Vertex]


def _edge_key(u: Vertex, v: Vertex) -> EdgeKey:
    return frozenset((u, v))


def edge_support(graph: LabeledGraph) -> Dict[EdgeKey, int]:
    """Return the number of triangles containing each edge of ``graph``."""
    support: Dict[EdgeKey, int] = {}
    for u, v in graph.edges():
        checkpoint()
        nu = graph.neighbors(u)
        nv = graph.neighbors(v)
        smaller, larger = (nu, nv) if len(nu) <= len(nv) else (nv, nu)
        count = sum(1 for w in smaller if w in larger)
        support[_edge_key(u, v)] = count
    return support


def truss_decomposition(graph: LabeledGraph) -> Dict[EdgeKey, int]:
    """Return the trussness of every edge.

    The trussness of an edge is the largest ``k`` such that the edge belongs
    to a k-truss.  Implemented with the standard support-peeling algorithm:
    repeatedly remove the edge with the smallest support, assigning it the
    trussness ``support + 2``.
    """
    work = graph.copy()
    support = edge_support(work)
    trussness: Dict[EdgeKey, int] = {}
    # Bucket edges by support for near-linear peeling.
    max_support = max(support.values()) if support else 0
    buckets: Dict[int, Set[EdgeKey]] = {s: set() for s in range(max_support + 1)}
    for edge, s in support.items():
        buckets[s].add(edge)
    k = 2
    remaining = len(support)
    level = 0
    while remaining > 0:
        while level <= max_support and not buckets.get(level):
            level += 1
        if level > max_support:
            break
        edge = buckets[level].pop()
        if edge not in support:
            continue
        s = support[edge]
        k = max(k, s + 2)
        trussness[edge] = k
        u, v = tuple(edge)
        # Removing (u, v) lowers the support of every edge in a triangle
        # with it.
        nu = work.neighbors(u)
        nv = work.neighbors(v)
        smaller_vertex, larger_vertex = (u, v) if len(nu) <= len(nv) else (v, u)
        for w in list(work.neighbors(smaller_vertex)):
            if w in work.neighbors(larger_vertex):
                for other in (u, v):
                    neighbor_edge = _edge_key(other, w)
                    if neighbor_edge in support and neighbor_edge != edge:
                        old = support[neighbor_edge]
                        new = max(old - 1, s)
                        if new != old:
                            support[neighbor_edge] = new
                            buckets[old].discard(neighbor_edge)
                            buckets.setdefault(new, set()).add(neighbor_edge)
        del support[edge]
        work.remove_edge(u, v)
        remaining -= 1
        # Restart the scan from the new minimum possible level.
        level = min(level, s)
    return trussness


def k_truss_edges(graph: LabeledGraph, k: int) -> Set[EdgeKey]:
    """Return the edges of the maximal k-truss of ``graph``."""
    if k <= 2:
        return {_edge_key(u, v) for u, v in graph.edges()}
    work = graph.copy()
    support = edge_support(work)
    threshold = k - 2
    queue = deque(edge for edge, s in support.items() if s < threshold)
    removed: Set[EdgeKey] = set()
    while queue:
        checkpoint()
        edge = queue.popleft()
        if edge in removed or edge not in support:
            continue
        u, v = tuple(edge)
        if not work.has_edge(u, v):
            continue
        # Decrement support of edges sharing a triangle with (u, v).
        common = [w for w in work.neighbors(u) if w in work.neighbors(v)]
        work.remove_edge(u, v)
        removed.add(edge)
        del support[edge]
        for w in common:
            for other in (u, v):
                neighbor_edge = _edge_key(other, w)
                if neighbor_edge in support:
                    support[neighbor_edge] -= 1
                    if support[neighbor_edge] < threshold:
                        queue.append(neighbor_edge)
    return set(support.keys())


def k_truss_vertices(graph: LabeledGraph, k: int) -> Set[Vertex]:
    """Return the vertices incident to at least one edge of the maximal k-truss."""
    edges = k_truss_edges(graph, k)
    vertices: Set[Vertex] = set()
    for edge in edges:
        vertices.update(edge)
    return vertices


def k_truss(graph: LabeledGraph, k: int) -> LabeledGraph:
    """Return the maximal k-truss of ``graph`` as a new labeled graph.

    The returned graph contains only edges whose support within the truss is
    at least ``k - 2`` (isolated vertices are dropped).
    """
    edges = k_truss_edges(graph, k)
    result = LabeledGraph()
    for edge in edges:
        u, v = tuple(edge)
        result.add_vertex(u, label=graph.label(u))
        result.add_vertex(v, label=graph.label(v))
        result.add_edge(u, v)
    return result


def k_truss_containing(
    graph: LabeledGraph, k: int, query_vertices: Sequence[Vertex]
) -> Optional[LabeledGraph]:
    """Return the connected k-truss containing every query vertex, or ``None``."""
    truss = k_truss(graph, k)
    for q in query_vertices:
        if q not in truss:
            return None
    component = connected_component(truss, query_vertices[0])
    if not all(q in component for q in query_vertices):
        return None
    return truss.induced_subgraph(component)


def max_truss_value_containing(
    graph: LabeledGraph, query_vertices: Sequence[Vertex]
) -> int:
    """Return the largest ``k`` with a connected k-truss containing all queries.

    Returns 2 when the query vertices are connected but share no triangle-rich
    structure, and 0 when they are disconnected (no common truss at all).
    """
    for q in query_vertices:
        if q not in graph:
            return 0
    low, high = 2, max(3, graph.max_degree() + 2)
    best = 0
    # The k-truss family is nested in k, so binary search is valid.
    while low <= high:
        checkpoint()
        mid = (low + high) // 2
        if k_truss_containing(graph, mid, query_vertices) is not None:
            best = mid
            low = mid + 1
        else:
            high = mid - 1
    return best


def maintain_k_truss(
    graph: LabeledGraph, k: int, removed: Iterable[Vertex]
) -> Set[Vertex]:
    """Delete ``removed`` vertices in place and restore the k-truss property.

    After the deletions, edges supported by fewer than ``k - 2`` triangles are
    cascade-removed, and vertices left with no incident edge are dropped.
    Returns the set of vertices removed (explicit plus cascaded).
    """
    deleted: Set[Vertex] = set()
    for vertex in list(removed):
        if vertex in graph:
            graph.remove_vertex(vertex)
            deleted.add(vertex)
    surviving_edges = k_truss_edges(graph, k)
    keep_vertices: Set[Vertex] = set()
    for edge in surviving_edges:
        keep_vertices.update(edge)
    for vertex in list(graph.vertices()):
        if vertex not in keep_vertices:
            graph.remove_vertex(vertex)
            deleted.add(vertex)
    # Remove edges not in the truss (their endpoints may both survive).
    surviving = {tuple(sorted(edge, key=str)) for edge in surviving_edges}
    for u, v in list(graph.edges()):
        if tuple(sorted((u, v), key=str)) not in surviving:
            graph.remove_edge(u, v)
    return deleted


def is_k_truss(graph: LabeledGraph, k: int) -> bool:
    """Return ``True`` if every edge of ``graph`` lies in >= k - 2 triangles."""
    if k <= 2:
        return True
    for u, v in graph.edges():
        nu = graph.neighbors(u)
        nv = graph.neighbors(v)
        smaller, larger = (nu, nv) if len(nu) <= len(nv) else (nv, nu)
        if sum(1 for w in smaller if w in larger) < k - 2:
            return False
    return True

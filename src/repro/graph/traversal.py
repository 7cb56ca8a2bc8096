"""Breadth-first traversal utilities: distances, components, diameters.

All BCC algorithms in the paper reason about unweighted shortest-path
distances (query distance, Def. 5; diameter, Section 3.1), so the traversal
layer only needs breadth-first search.  Distances are expressed as ``int``
hop counts; unreachable vertices are reported with
:data:`INFINITE_DISTANCE` (``math.inf``) or simply omitted from result
dictionaries depending on the function, as documented below.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import VertexNotFoundError
from repro.graph.labeled_graph import LabeledGraph, Vertex

INFINITE_DISTANCE = math.inf


def bfs_distances(
    graph: LabeledGraph,
    source: Vertex,
    max_depth: Optional[int] = None,
) -> Dict[Vertex, int]:
    """Return hop distances from ``source`` to every reachable vertex.

    A plain breadth-first search over the adjacency sets: a depth-limited
    search (Algorithm 6's ρ-hop leader search, query generation) touches
    only the vertices it reaches and never freezes the graph.  Callers that
    already hold integer ids use :func:`repro.graph.csr.csr_bfs_distances`.

    Parameters
    ----------
    graph:
        The graph to traverse.
    source:
        Starting vertex; must exist in ``graph``.
    max_depth:
        If given, the traversal stops after this many hops; vertices farther
        away are omitted from the result.

    Returns
    -------
    dict
        Mapping of reachable vertex to distance, including ``source`` at 0.
    """
    if source not in graph:
        raise VertexNotFoundError(source)
    distances: Dict[Vertex, int] = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = distances[u]
        if max_depth is not None and du >= max_depth:
            continue
        for w in graph.neighbors(u):
            if w not in distances:
                distances[w] = du + 1
                queue.append(w)
    return distances


def shortest_path(
    graph: LabeledGraph, source: Vertex, target: Vertex
) -> Optional[List[Vertex]]:
    """Return one shortest (fewest hops) path from ``source`` to ``target``.

    Returns ``None`` when the two vertices are disconnected.
    """
    if source not in graph:
        raise VertexNotFoundError(source)
    if target not in graph:
        raise VertexNotFoundError(target)
    if source == target:
        return [source]
    parents: Dict[Vertex, Vertex] = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if w in parents:
                continue
            parents[w] = u
            if w == target:
                path = [w]
                while path[-1] != source:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            queue.append(w)
    return None


def distance_between(graph: LabeledGraph, source: Vertex, target: Vertex) -> float:
    """Return the hop distance between two vertices (``inf`` if disconnected)."""
    path = shortest_path(graph, source, target)
    if path is None:
        return INFINITE_DISTANCE
    return len(path) - 1


def connected_component(graph: LabeledGraph, source: Vertex) -> Set[Vertex]:
    """Return the vertex set of the connected component containing ``source``."""
    return set(bfs_distances(graph, source))


def connected_components(graph: LabeledGraph) -> List[Set[Vertex]]:
    """Return all connected components as a list of vertex sets.

    Components are numbered by their first vertex in ``graph.vertices()``
    order, so the numbering depends on the graph alone, never on set
    iteration order (which follows ``PYTHONHASHSEED`` for string vertices).
    """
    seen: Set[Vertex] = set()
    components: List[Set[Vertex]] = []
    for vertex in graph.vertices():
        if vertex not in seen:
            component = connected_component(graph, vertex)
            components.append(component)
            seen |= component
    return components


def is_connected(graph: LabeledGraph) -> bool:
    """Return ``True`` if the graph is non-empty and connected."""
    vertices = list(graph.vertices())
    if not vertices:
        return False
    return len(connected_component(graph, vertices[0])) == len(vertices)


def are_connected(graph: LabeledGraph, vertices: Iterable[Vertex]) -> bool:
    """Return ``True`` if all given vertices are present and mutually connected.

    This implements the ``connect_G(Q)`` predicate used by Algorithm 1: the
    query vertices must all belong to the same connected component of the
    current graph.
    """
    targets = list(vertices)
    if not targets:
        return True
    for v in targets:
        if v not in graph:
            return False
    component = connected_component(graph, targets[0])
    return all(v in component for v in targets)


def query_distances(
    graph: LabeledGraph, query_vertices: Sequence[Vertex]
) -> Dict[Vertex, Dict[Vertex, int]]:
    """Return per-query BFS distance maps, ``{q: {v: dist(v, q)}}``."""
    return {q: bfs_distances(graph, q) for q in query_vertices}


def vertex_query_distance(
    distance_maps: Dict[Vertex, Dict[Vertex, int]], vertex: Vertex
) -> float:
    """Return ``dist_G(v, Q) = max_q dist(v, q)`` given per-query distance maps.

    Vertices unreachable from some query vertex get ``inf``.
    """
    worst = 0.0
    for dmap in distance_maps.values():
        if vertex not in dmap:
            return INFINITE_DISTANCE
        worst = max(worst, dmap[vertex])
    return worst


def graph_query_distance(
    graph: LabeledGraph,
    query_vertices: Sequence[Vertex],
    distance_maps: Optional[Dict[Vertex, Dict[Vertex, int]]] = None,
) -> float:
    """Return ``dist_G(G, Q) = max_v max_q dist(v, q)`` (Def. 5).

    Unreachable pairs yield ``inf``.
    """
    if distance_maps is None:
        distance_maps = query_distances(graph, query_vertices)
    worst = 0.0
    for v in graph.vertices():
        value = vertex_query_distance(distance_maps, v)
        if value == INFINITE_DISTANCE:
            return INFINITE_DISTANCE
        worst = max(worst, value)
    return worst


def eccentricity(graph: LabeledGraph, vertex: Vertex) -> float:
    """Return the eccentricity of ``vertex`` within its connected component.

    If the graph is disconnected the eccentricity is still computed with
    respect to the reachable vertices only; use :func:`diameter` for the
    strict definition over the whole graph.
    """
    distances = bfs_distances(graph, vertex)
    return max(distances.values()) if distances else 0


def diameter(graph: LabeledGraph) -> float:
    """Return the diameter ``max_{u,v} dist(u, v)`` of the graph.

    Returns ``inf`` for a disconnected graph and ``0`` for graphs with at most
    one vertex.  This is an exact all-pairs computation (a BFS per vertex) and
    is meant for the small result communities the algorithms return, not for
    full input graphs.
    """
    vertices = list(graph.vertices())
    if len(vertices) <= 1:
        return 0
    worst = 0
    n = len(vertices)
    for v in vertices:
        distances = bfs_distances(graph, v)
        if len(distances) < n:
            return INFINITE_DISTANCE
        worst = max(worst, max(distances.values()))
    return worst


def farthest_vertices(
    graph: LabeledGraph,
    query_vertices: Sequence[Vertex],
    distance_maps: Optional[Dict[Vertex, Dict[Vertex, int]]] = None,
) -> Tuple[List[Vertex], float]:
    """Return the vertices with the maximum query distance and that distance.

    Vertices unreachable from a query vertex are treated as infinitely far and
    therefore returned first.  Query vertices themselves are never returned
    (deleting a query vertex can never improve the answer).
    """
    if distance_maps is None:
        distance_maps = query_distances(graph, query_vertices)
    query_set = set(query_vertices)
    best_distance = -1.0
    best: List[Vertex] = []
    for v in graph.vertices():
        if v in query_set:
            continue
        value = vertex_query_distance(distance_maps, v)
        if value > best_distance:
            best_distance = value
            best = [v]
        elif value == best_distance:
            best.append(v)
    return best, best_distance

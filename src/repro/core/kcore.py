"""k-core decomposition, extraction and maintenance.

The BCC model requires each labeled group of the community to be a k-core
(Def. 1 and Def. 4, conditions 2-3).  This module provides:

* :func:`core_decomposition` — the Batagelj–Zaversnik bucket algorithm [3]
  computing the coreness of every vertex in ``O(|E|)`` time;
* :func:`k_core` / :func:`k_core_containing` — peeling-based extraction of the
  maximal subgraph of minimum degree ``k`` (optionally the connected
  component containing a query vertex);
* :func:`maintain_k_core` — incremental maintenance after vertex deletions:
  cascade-remove vertices whose degree fell below ``k`` (Algorithm 4,
  lines 2-3);
* :func:`max_core_value_containing` — the largest ``k`` such that a connected
  k-core contains a given vertex (used for the automatic parameter setting
  described in Section 3.5).
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Dict, Iterable, List, Optional, Set

from repro.exceptions import VertexNotFoundError
from repro.graph.csr import csr_k_core_alive
from repro.graph.labeled_graph import LabeledGraph, Vertex
from repro.graph.traversal import connected_component

#: Edge count above which ``backend="auto"`` prefers the CSR fast path for a
#: full core decomposition (below it the freeze overhead dominates).
CSR_CORE_MIN_EDGES = 2048

#: Edge count above which ``backend="auto"`` freezes for a single k-core
#: peel even without a warm snapshot.
CSR_PEEL_MIN_EDGES = 8192


def _resolve_backend(graph: LabeledGraph, backend: str, min_edges: int) -> str:
    """Map ``auto`` to ``csr``/``object`` by snapshot warmth and graph size."""
    if backend != "auto":
        if backend not in ("csr", "object"):
            raise ValueError(f"unknown backend {backend!r}")
        return backend
    if graph.has_frozen() or graph.num_edges() >= min_edges:
        return "csr"
    return "object"


def core_decomposition(graph: LabeledGraph, backend: str = "auto") -> Dict[Vertex, int]:
    """Return the coreness of every vertex (Batagelj–Zaversnik).

    The coreness δ(v) is the largest ``k`` such that ``v`` belongs to a
    k-core of the graph.  Runs in time linear in the number of edges using
    bucket sorting by degree.  ``backend`` selects the adjacency substrate
    (``"auto"``, ``"object"``, ``"csr"``); every backend returns identical
    values — the CSR path peels flat integer arrays and serves repeated
    calls on an unmutated graph from the snapshot's coreness cache.
    """
    if _resolve_backend(graph, backend, CSR_CORE_MIN_EDGES) == "csr":
        frozen = graph.freeze()
        vertex_of = frozen.vertex_of
        return {vertex_of(i): c for i, c in enumerate(frozen.coreness())}
    degrees: Dict[Vertex, int] = {v: graph.degree(v) for v in graph.vertices()}
    if not degrees:
        return {}
    max_degree = max(degrees.values())
    buckets: List[List[Vertex]] = [[] for _ in range(max_degree + 1)]
    for vertex, degree in degrees.items():
        buckets[degree].append(vertex)
    coreness: Dict[Vertex, int] = {}
    current_degrees = dict(degrees)
    removed: Set[Vertex] = set()
    k = 0
    for d in range(max_degree + 1):
        queue = buckets[d]
        index = 0
        while index < len(queue):
            vertex = queue[index]
            index += 1
            if vertex in removed or current_degrees[vertex] > d:
                # Stale bucket entry: the vertex has been re-bucketed at a
                # lower degree or already peeled.
                continue
            k = max(k, current_degrees[vertex])
            coreness[vertex] = k
            removed.add(vertex)
            for neighbor in graph.neighbors(vertex):
                if neighbor in removed:
                    continue
                if current_degrees[neighbor] > current_degrees[vertex]:
                    current_degrees[neighbor] -= 1
                    new_degree = current_degrees[neighbor]
                    if new_degree <= d:
                        queue.append(neighbor)
                    else:
                        buckets[new_degree].append(neighbor)
    return coreness


def k_core_vertices(graph: LabeledGraph, k: int, backend: str = "auto") -> Set[Vertex]:
    """Return the vertex set of the maximal k-core of ``graph`` (may be empty).

    With the CSR backend the peel runs over flat arrays; when the snapshot's
    coreness cache is warm (e.g. during a k-sweep) extraction degrades to an
    O(|V|) coreness filter.  All backends return the identical (unique)
    maximal k-core.
    """
    if k <= 0:
        return set(graph.vertices())
    if _resolve_backend(graph, backend, CSR_PEEL_MIN_EDGES) == "csr":
        frozen = graph.freeze()
        alive = csr_k_core_alive(frozen, k)
        return set(compress(frozen.interner.vertices(), alive))
    degrees: Dict[Vertex, int] = {v: graph.degree(v) for v in graph.vertices()}
    alive: Set[Vertex] = set(degrees)
    queue = deque(v for v, d in degrees.items() if d < k)
    queued = set(queue)
    while queue:
        vertex = queue.popleft()
        if vertex not in alive:
            continue
        alive.discard(vertex)
        for neighbor in graph.neighbors(vertex):
            if neighbor in alive:
                degrees[neighbor] -= 1
                if degrees[neighbor] < k and neighbor not in queued:
                    queue.append(neighbor)
                    queued.add(neighbor)
    return alive


def k_core(graph: LabeledGraph, k: int, backend: str = "auto") -> LabeledGraph:
    """Return the maximal k-core of ``graph`` as a new labeled graph."""
    return graph.induced_subgraph(k_core_vertices(graph, k, backend=backend))


def k_core_containing(
    graph: LabeledGraph, k: int, vertex: Vertex, backend: str = "auto"
) -> Optional[LabeledGraph]:
    """Return the connected k-core containing ``vertex``, or ``None``.

    This is the "connected component graph L (R) containing the query vertex"
    step of Algorithm 2 (lines 2-3).
    """
    if vertex not in graph:
        raise VertexNotFoundError(vertex)
    survivors = k_core_vertices(graph, k, backend=backend)
    if vertex not in survivors:
        return None
    core = graph.induced_subgraph(survivors)
    component = connected_component(core, vertex)
    return core.induced_subgraph(component)


def maintain_k_core(
    graph: LabeledGraph,
    k: int,
    removed: Iterable[Vertex],
) -> Set[Vertex]:
    """Delete ``removed`` from ``graph`` in place and restore the k-core property.

    After the explicit deletions, vertices whose degree dropped below ``k``
    are cascade-removed until every remaining vertex has degree >= k.  This is
    the core-maintenance step of Algorithm 4 (lines 2-3).

    Parameters
    ----------
    graph:
        The graph to maintain; it is modified in place.
    k:
        Minimum degree to restore.
    removed:
        Vertices to delete explicitly (those not present are ignored).

    Returns
    -------
    set
        Every vertex deleted by this call (explicit plus cascaded).
    """
    deleted: Set[Vertex] = set()
    queue = deque()
    for vertex in removed:
        if vertex in graph:
            deleted.add(vertex)
    for vertex in deleted:
        neighbors = set(graph.neighbors(vertex))
        graph.remove_vertex(vertex)
        for neighbor in neighbors:
            if neighbor in graph and graph.degree(neighbor) < k:
                queue.append(neighbor)
    while queue:
        vertex = queue.popleft()
        if vertex not in graph or graph.degree(vertex) >= k:
            continue
        neighbors = set(graph.neighbors(vertex))
        graph.remove_vertex(vertex)
        deleted.add(vertex)
        for neighbor in neighbors:
            if neighbor in graph and graph.degree(neighbor) < k:
                queue.append(neighbor)
    return deleted


def max_core_value_containing(graph: LabeledGraph, vertex: Vertex) -> int:
    """Return the coreness of ``vertex`` in ``graph``.

    Section 3.5 suggests setting ``k1``/``k2`` automatically to the coreness
    of the query vertices; this helper performs that lookup.
    """
    if vertex not in graph:
        raise VertexNotFoundError(vertex)
    return core_decomposition(graph).get(vertex, 0)


def degeneracy(graph: LabeledGraph, backend: str = "auto") -> int:
    """Return the degeneracy (maximum coreness) of the graph."""
    coreness = core_decomposition(graph, backend=backend)
    return max(coreness.values()) if coreness else 0


def is_k_core(graph: LabeledGraph, k: int) -> bool:
    """Return ``True`` if every vertex of ``graph`` has degree at least ``k``."""
    return all(graph.degree(v) >= k for v in graph.vertices())

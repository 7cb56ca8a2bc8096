"""k-core decomposition, extraction and maintenance.

The BCC model requires each labeled group of the community to be a k-core
(Def. 1 and Def. 4, conditions 2-3).  This module provides:

* :func:`core_decomposition` — the Batagelj–Zaversnik bucket algorithm [3]
  computing the coreness of every vertex in ``O(|E|)`` time, run once per
  graph version on the graph's CSR snapshot (:meth:`LabeledGraph.freeze`);
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
from typing import Dict, Iterable, Optional, Set

from repro.exceptions import VertexNotFoundError
from repro.graph.csr import csr_k_core_alive
from repro.graph.labeled_graph import LabeledGraph, Vertex
from repro.graph.traversal import connected_component


def core_decomposition(graph: LabeledGraph) -> Dict[Vertex, int]:
    """Return the coreness of every vertex (Batagelj–Zaversnik).

    The coreness δ(v) is the largest ``k`` such that ``v`` belongs to a
    k-core of the graph.  The bucket peel runs over the flat arrays of the
    graph's CSR snapshot, which caches the result, so repeated calls on an
    unmutated graph peel once.
    """
    frozen = graph.freeze()
    vertex_of = frozen.vertex_of
    return {vertex_of(i): c for i, c in enumerate(frozen.coreness())}


def k_core_vertices(graph: LabeledGraph, k: int) -> Set[Vertex]:
    """Return the vertex set of the maximal k-core of ``graph`` (may be empty).

    The peel runs over the flat arrays of the graph's CSR snapshot; when the
    snapshot's coreness is already cached (e.g. during a k-sweep) extraction
    is an O(|V|) coreness filter.
    """
    if k <= 0:
        return set(graph.vertices())
    frozen = graph.freeze()
    alive = csr_k_core_alive(frozen, k)
    return set(compress(frozen.interner.vertices(), alive))


def k_core(graph: LabeledGraph, k: int) -> LabeledGraph:
    """Return the maximal k-core of ``graph`` as a new labeled graph."""
    return graph.induced_subgraph(k_core_vertices(graph, k))


def k_core_containing(
    graph: LabeledGraph, k: int, vertex: Vertex
) -> Optional[LabeledGraph]:
    """Return the connected k-core containing ``vertex``, or ``None``.

    This is the "connected component graph L (R) containing the query vertex"
    step of Algorithm 2 (lines 2-3).
    """
    if vertex not in graph:
        raise VertexNotFoundError(vertex)
    survivors = k_core_vertices(graph, k)
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


def degeneracy(graph: LabeledGraph) -> int:
    """Return the degeneracy (maximum coreness) of the graph."""
    coreness = core_decomposition(graph)
    return max(coreness.values()) if coreness else 0


def is_k_core(graph: LabeledGraph, k: int) -> bool:
    """Return ``True`` if every vertex of ``graph`` has degree at least ``k``."""
    return all(graph.degree(v) >= k for v in graph.vertices())

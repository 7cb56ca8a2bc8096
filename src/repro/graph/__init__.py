"""Graph substrate: labeled graphs, traversal, bipartite views, CSR kernels, I/O, generators."""

from repro.graph.bipartite import BipartiteView, extract_bipartite, extract_label_bipartite
from repro.graph.csr import (
    CSRBipartiteView,
    CSRGraph,
    VertexInterner,
    butterfly_degrees_between,
    csr_bfs_distances,
    csr_butterfly_degrees,
    csr_k_core_alive,
)
from repro.graph.labeled_graph import LabeledGraph, union_graphs
from repro.graph.statistics import NetworkStatistics, compute_statistics, statistics_table
from repro.graph.traversal import (
    INFINITE_DISTANCE,
    are_connected,
    bfs_distances,
    connected_component,
    connected_components,
    diameter,
    distance_between,
    farthest_vertices,
    graph_query_distance,
    is_connected,
    query_distances,
    shortest_path,
    vertex_query_distance,
)

__all__ = [
    "BipartiteView",
    "CSRBipartiteView",
    "CSRGraph",
    "INFINITE_DISTANCE",
    "LabeledGraph",
    "NetworkStatistics",
    "VertexInterner",
    "are_connected",
    "bfs_distances",
    "butterfly_degrees_between",
    "compute_statistics",
    "csr_bfs_distances",
    "csr_butterfly_degrees",
    "csr_k_core_alive",
    "connected_component",
    "connected_components",
    "diameter",
    "distance_between",
    "extract_bipartite",
    "extract_label_bipartite",
    "farthest_vertices",
    "graph_query_distance",
    "is_connected",
    "query_distances",
    "shortest_path",
    "statistics_table",
    "union_graphs",
    "vertex_query_distance",
]

"""Unit tests for BFS traversal utilities."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import VertexNotFoundError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.traversal import (
    INFINITE_DISTANCE,
    are_connected,
    bfs_distances,
    connected_component,
    connected_components,
    diameter,
    distance_between,
    eccentricity,
    farthest_vertices,
    graph_query_distance,
    is_connected,
    query_distances,
    shortest_path,
    vertex_query_distance,
)


def path_graph(n: int) -> LabeledGraph:
    g = LabeledGraph()
    for i in range(n):
        g.add_vertex(i, label="A")
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def two_components() -> LabeledGraph:
    g = path_graph(4)
    g.add_vertex(10, label="B")
    g.add_vertex(11, label="B")
    g.add_edge(10, 11)
    return g


class TestBFS:
    def test_distances_on_path(self):
        g = path_graph(5)
        dist = bfs_distances(g, 0)
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_distances_respect_max_depth(self):
        g = path_graph(5)
        dist = bfs_distances(g, 0, max_depth=2)
        assert dist == {0: 0, 1: 1, 2: 2}

    def test_depth_limited_search_leaves_the_graph_unfrozen(self):
        g = path_graph(5)
        assert bfs_distances(g, 0, max_depth=1) == {0: 0, 1: 1}
        assert not g.has_frozen()

    def test_missing_source_raises(self):
        with pytest.raises(VertexNotFoundError):
            bfs_distances(path_graph(3), 99)

    def test_unreachable_vertices_omitted(self):
        g = two_components()
        dist = bfs_distances(g, 0)
        assert 10 not in dist and 11 not in dist


class TestPathsAndComponents:
    def test_shortest_path_endpoints(self):
        g = path_graph(4)
        assert shortest_path(g, 0, 3) == [0, 1, 2, 3]
        assert shortest_path(g, 2, 2) == [2]

    def test_shortest_path_disconnected(self):
        g = two_components()
        assert shortest_path(g, 0, 10) is None
        assert distance_between(g, 0, 10) == INFINITE_DISTANCE

    def test_distance_between(self):
        g = path_graph(4)
        assert distance_between(g, 0, 3) == 3

    def test_connected_components(self):
        g = two_components()
        components = connected_components(g)
        assert len(components) == 2
        assert components == [{0, 1, 2, 3}, {10, 11}]
        assert connected_component(g, 10) == {10, 11}

    def test_is_connected(self):
        assert is_connected(path_graph(3))
        assert not is_connected(two_components())
        assert not is_connected(LabeledGraph())

    def test_are_connected(self):
        g = two_components()
        assert are_connected(g, [0, 3])
        assert not are_connected(g, [0, 10])
        assert not are_connected(g, [0, 99])
        assert are_connected(g, [])


class TestQueryDistances:
    def test_query_distance_definition(self):
        g = path_graph(5)
        maps = query_distances(g, [0, 4])
        assert vertex_query_distance(maps, 2) == 2
        assert vertex_query_distance(maps, 0) == 4
        assert graph_query_distance(g, [0, 4], maps) == 4

    def test_query_distance_infinite_when_unreachable(self):
        g = two_components()
        maps = query_distances(g, [0])
        assert vertex_query_distance(maps, 10) == INFINITE_DISTANCE
        assert graph_query_distance(g, [0]) == INFINITE_DISTANCE

    def test_farthest_vertices_excludes_queries(self):
        g = path_graph(5)
        vertices, dist = farthest_vertices(g, [0])
        assert vertices == [4]
        assert dist == 4
        vertices, dist = farthest_vertices(g, [0, 4])
        assert set(vertices) == {1, 3}
        assert dist == 3

    def test_farthest_prefers_unreachable(self):
        g = two_components()
        vertices, dist = farthest_vertices(g, [0])
        assert set(vertices) == {10, 11}
        assert math.isinf(dist)


class TestDiameter:
    def test_path_diameter(self):
        assert diameter(path_graph(5)) == 4

    def test_single_vertex(self):
        g = LabeledGraph()
        g.add_vertex(1)
        assert diameter(g) == 0
        assert diameter(LabeledGraph()) == 0

    def test_disconnected_diameter_is_infinite(self):
        assert diameter(two_components()) == INFINITE_DISTANCE

    def test_eccentricity(self):
        g = path_graph(5)
        assert eccentricity(g, 0) == 4
        assert eccentricity(g, 2) == 2

"""Unit tests for the LabeledGraph substrate."""

from __future__ import annotations

import pytest

from repro.exceptions import EdgeNotFoundError, VertexNotFoundError
from repro.graph.labeled_graph import LabeledGraph, union_graphs


def build_simple() -> LabeledGraph:
    g = LabeledGraph()
    g.add_vertex(1, label="A")
    g.add_vertex(2, label="A")
    g.add_vertex(3, label="B")
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    return g


class TestConstruction:
    def test_empty_graph(self):
        g = LabeledGraph()
        assert g.num_vertices() == 0
        assert g.num_edges() == 0
        assert list(g.edges()) == []

    def test_init_with_edges_and_labels(self):
        g = LabeledGraph(edges=[(1, 2), (2, 3)], labels={1: "A", 2: "A", 3: "B"})
        assert g.num_vertices() == 3
        assert g.num_edges() == 2
        assert g.label(3) == "B"

    def test_add_vertex_idempotent_label_update(self):
        g = LabeledGraph()
        g.add_vertex(1, label="A")
        g.add_vertex(1)
        assert g.label(1) == "A"
        g.add_vertex(1, label="B")
        assert g.label(1) == "B"

    def test_add_edge_creates_missing_vertices(self):
        g = LabeledGraph()
        g.add_edge("u", "v")
        assert "u" in g and "v" in g
        assert g.label("u") is None

    def test_add_edge_ignores_self_loop(self):
        g = LabeledGraph()
        g.add_vertex(1, label="A")
        g.add_edge(1, 1)
        assert g.num_edges() == 0

    def test_add_duplicate_edge_counts_once(self):
        g = build_simple()
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        assert g.num_edges() == 2


class TestMutation:
    def test_remove_edge(self):
        g = build_simple()
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.num_edges() == 1

    def test_remove_missing_edge_raises(self):
        g = build_simple()
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(1, 3)

    def test_remove_vertex_cleans_incident_edges(self):
        g = build_simple()
        g.remove_vertex(2)
        assert 2 not in g
        assert g.num_edges() == 0
        assert g.degree(1) == 0

    def test_remove_missing_vertex_raises(self):
        g = build_simple()
        with pytest.raises(VertexNotFoundError):
            g.remove_vertex(99)

    def test_remove_vertices_skips_absent(self):
        g = build_simple()
        g.remove_vertices([2, 99])
        assert g.num_vertices() == 2

    def test_set_label(self):
        g = build_simple()
        g.set_label(1, "Z")
        assert g.label(1) == "Z"
        with pytest.raises(VertexNotFoundError):
            g.set_label(42, "Z")


class TestQueries:
    def test_degree_and_neighbors(self):
        g = build_simple()
        assert g.degree(2) == 2
        assert g.neighbors(2) == {1, 3}
        with pytest.raises(VertexNotFoundError):
            g.degree(99)

    def test_max_degree(self):
        g = build_simple()
        assert g.max_degree() == 2
        assert LabeledGraph().max_degree() == 0

    def test_edges_iterated_once(self):
        g = build_simple()
        edges = {frozenset(e) for e in g.edges()}
        assert edges == {frozenset({1, 2}), frozenset({2, 3})}
        assert len(list(g.edges())) == 2

    def test_len_iter_contains(self):
        g = build_simple()
        assert len(g) == 3
        assert set(iter(g)) == {1, 2, 3}
        assert 1 in g and 42 not in g


class TestLabels:
    def test_labels_and_counts(self):
        g = build_simple()
        assert g.labels() == {"A", "B"}
        assert g.label_counts() == {"A": 2, "B": 1}
        assert g.vertices_with_label("A") == {1, 2}

    def test_label_map_is_copy(self):
        g = build_simple()
        mapping = g.label_map()
        mapping[1] = "Z"
        assert g.label(1) == "A"

    def test_cross_edge_classification(self):
        g = build_simple()
        assert not g.is_cross_edge(1, 2)
        assert g.is_cross_edge(2, 3)
        with pytest.raises(EdgeNotFoundError):
            g.is_cross_edge(1, 3)

    def test_cross_edge_iterator(self):
        g = build_simple()
        assert {frozenset(e) for e in g.cross_edges()} == {frozenset({2, 3})}

    def test_cross_and_same_label_neighbors(self):
        g = build_simple()
        assert g.cross_neighbors(2) == {3}
        assert g.same_label_neighbors(2) == {1}


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = build_simple()
        clone = g.copy()
        clone.remove_vertex(1)
        assert 1 in g
        assert g.num_edges() == 2

    def test_equality(self):
        assert build_simple() == build_simple()
        other = build_simple()
        other.add_edge(1, 3)
        assert build_simple() != other

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(build_simple())

    def test_induced_subgraph(self):
        g = build_simple()
        sub = g.induced_subgraph([1, 2, 99])
        assert set(sub.vertices()) == {1, 2}
        assert sub.has_edge(1, 2)
        assert sub.label(1) == "A"

    def test_label_induced_subgraph(self):
        g = build_simple()
        sub = g.label_induced_subgraph("A")
        assert set(sub.vertices()) == {1, 2}
        assert sub.num_edges() == 1

    def test_merge_and_union(self):
        g1 = LabeledGraph(edges=[(1, 2)], labels={1: "A", 2: "A"})
        g2 = LabeledGraph(edges=[(2, 3)], labels={2: "A", 3: "B"})
        merged = union_graphs(g1, g2)
        assert merged.num_vertices() == 3
        assert merged.has_edge(1, 2) and merged.has_edge(2, 3)

    def test_require_vertices(self):
        g = build_simple()
        g.require_vertices([1, 2])
        with pytest.raises(VertexNotFoundError):
            g.require_vertices([1, 42])

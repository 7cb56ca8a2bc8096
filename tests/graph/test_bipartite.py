"""Unit tests for the cross-group bipartite view."""

from __future__ import annotations

import pytest

from repro.exceptions import VertexNotFoundError
from repro.graph.bipartite import BipartiteView, extract_bipartite, extract_label_bipartite


def sample_view() -> BipartiteView:
    return BipartiteView(
        left=["a", "b"],
        right=["x", "y", "z"],
        edges=[("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("b", "z")],
    )


class TestConstruction:
    def test_basic_counts(self):
        view = sample_view()
        assert view.num_vertices() == 5
        assert view.num_edges() == 5
        assert view.left() == {"a", "b"}
        assert view.right() == {"x", "y", "z"}

    def test_overlapping_sides_rejected(self):
        with pytest.raises(ValueError):
            BipartiteView(left=["a"], right=["a"])

    def test_same_side_edges_ignored(self):
        view = BipartiteView(left=["a", "b"], right=["x"], edges=[("a", "b"), ("a", "x")])
        assert view.num_edges() == 1

    def test_edges_with_unknown_endpoints_ignored(self):
        view = BipartiteView(left=["a"], right=["x"], edges=[("a", "q"), ("a", "x")])
        assert view.num_edges() == 1

    def test_edge_orientation_irrelevant(self):
        view = BipartiteView(left=["a"], right=["x"], edges=[("x", "a")])
        assert view.num_edges() == 1
        assert view.neighbors("a") == {"x"}


class TestQueries:
    def test_side_lookup(self):
        view = sample_view()
        assert view.side("a") == "left"
        assert view.side("z") == "right"
        with pytest.raises(VertexNotFoundError):
            view.side("q")

    def test_degree_and_neighbors(self):
        view = sample_view()
        assert view.degree("b") == 3
        assert view.neighbors("x") == {"a", "b"}
        assert view.max_degree() == 3
        with pytest.raises(VertexNotFoundError):
            view.degree("q")

    def test_edges_oriented_left_right(self):
        view = sample_view()
        for u, v in view.edges():
            assert u in view.left() and v in view.right()
        assert len(list(view.edges())) == 5

    def test_contains_and_vertices(self):
        view = sample_view()
        assert "a" in view and "q" not in view
        assert set(view.vertices()) == {"a", "b", "x", "y", "z"}


class TestMutation:
    def test_remove_vertex(self):
        view = sample_view()
        view.remove_vertex("b")
        assert "b" not in view
        assert view.num_edges() == 2
        assert view.degree("x") == 1

    def test_remove_absent_vertex_is_noop(self):
        view = sample_view()
        view.remove_vertex("q")
        assert view.num_edges() == 5

    def test_remove_vertices_batch(self):
        view = sample_view()
        view.remove_vertices(["a", "z"])
        assert view.num_vertices() == 3
        assert view.num_edges() == 2

    def test_copy_is_independent(self):
        view = sample_view()
        clone = view.copy()
        clone.remove_vertex("a")
        assert "a" in view
        assert view.num_edges() == 5


class TestExtraction:
    def test_extract_bipartite_keeps_only_cross_edges(self, simple_two_label_graph):
        g = simple_two_label_graph
        view = extract_bipartite(g, {"a", "b", "c"}, {"x", "y", "z"})
        assert view.num_edges() == 5
        assert view.neighbors("a") == {"x", "y"}

    def test_extract_label_bipartite(self, simple_two_label_graph):
        view = extract_label_bipartite(simple_two_label_graph, "L", "R")
        assert view.left() == {"a", "b", "c"}
        assert view.right() == {"x", "y", "z"}
        assert view.num_edges() == 5

    def test_extract_ignores_vertices_not_in_graph(self, simple_two_label_graph):
        view = extract_bipartite(simple_two_label_graph, {"a", "nope"}, {"x"})
        assert view.left() == {"a"}
        assert view.num_edges() == 1

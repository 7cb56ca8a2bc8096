"""Unit tests for butterfly counting (Algorithm 3 and variants)."""

from __future__ import annotations

import random

import pytest

from repro.core.butterfly import (
    brute_force_butterfly_degrees,
    butterfly_degree_of,
    butterfly_degrees,
    enumerate_butterflies,
    max_butterfly_degree_per_side,
    total_butterflies,
)
from repro.graph.bipartite import BipartiteView, extract_label_bipartite
from repro.graph.generators import paper_small_example_graph


def biclique(left_size: int, right_size: int) -> BipartiteView:
    left = [f"l{i}" for i in range(left_size)]
    right = [f"r{i}" for i in range(right_size)]
    edges = [(u, v) for u in left for v in right]
    return BipartiteView(left, right, edges)


def single_butterfly() -> BipartiteView:
    return biclique(2, 2)


class TestButterflyDegrees:
    def test_single_butterfly(self):
        view = single_butterfly()
        degrees = butterfly_degrees(view)
        assert all(value == 1 for value in degrees.values())
        assert total_butterflies(view) == 1

    def test_biclique_counts(self):
        """In a complete (m x n) biclique each left vertex lies in (m-1 choose 1)*(n choose 2) butterflies."""
        view = biclique(3, 4)
        degrees = butterfly_degrees(view)
        expected_left = (3 - 1) * (4 * 3 // 2)
        expected_right = (4 - 1) * (3 * 2 // 2)
        for i in range(3):
            assert degrees[f"l{i}"] == expected_left
        for j in range(4):
            assert degrees[f"r{j}"] == expected_right
        assert total_butterflies(view) == 3 * (4 * 3 // 2)  # C(3,2)*C(4,2)

    def test_no_butterfly_in_a_star(self):
        view = BipartiteView(["c"], ["x", "y", "z"], [("c", "x"), ("c", "y"), ("c", "z")])
        assert all(value == 0 for value in butterfly_degrees(view).values())
        assert total_butterflies(view) == 0

    def test_empty_view(self):
        view = BipartiteView([], [])
        assert butterfly_degrees(view) == {}
        assert total_butterflies(view) == 0

    def test_figure3_values(self):
        graph = paper_small_example_graph()
        view = extract_label_bipartite(graph, "L", "R")
        degrees = butterfly_degrees(view)
        assert degrees["v1"] == 6
        assert degrees["v3"] == 6
        assert degrees["u2"] == degrees["u3"] == degrees["u5"] == degrees["u6"] == 3
        assert degrees["ql"] == 0
        assert total_butterflies(view) == 6

    def test_butterfly_degree_of_single_vertex(self):
        view = single_butterfly()
        assert butterfly_degree_of(view, "l0") == 1
        assert butterfly_degree_of(view, "not-there") == 0


class TestAgreementBetweenImplementations:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_graphs_match_brute_force(self, seed):
        rng = random.Random(seed)
        left = [f"l{i}" for i in range(6)]
        right = [f"r{i}" for i in range(7)]
        edges = [(u, v) for u in left for v in right if rng.random() < 0.4]
        view = BipartiteView(left, right, edges)
        reference = brute_force_butterfly_degrees(view)
        assert butterfly_degrees(view) == reference
        assert {v: butterfly_degree_of(view, v) for v in view.vertices()} == reference

    def test_total_consistent_with_degrees(self):
        view = biclique(3, 3)
        degrees = butterfly_degrees(view)
        assert sum(degrees.values()) == 4 * total_butterflies(view)


class TestEnumerationAndHelpers:
    def test_enumerate_butterflies_single(self):
        view = single_butterfly()
        butterflies = list(enumerate_butterflies(view))
        assert len(butterflies) == 1
        l1, l2, r1, r2 = butterflies[0]
        assert {l1, l2} == {"l0", "l1"}
        assert {r1, r2} == {"r0", "r1"}

    def test_enumeration_count_matches_total(self):
        view = biclique(3, 4)
        assert len(list(enumerate_butterflies(view))) == total_butterflies(view)

    def test_max_per_side(self):
        graph = paper_small_example_graph()
        view = extract_label_bipartite(graph, "L", "R")
        max_left, max_right = max_butterfly_degree_per_side(view)
        assert max_left == 6
        assert max_right == 3

    def test_degrees_after_vertex_removal(self):
        view = biclique(3, 3)
        before = butterfly_degrees(view)["l0"]
        view.remove_vertex("l2")
        after = butterfly_degrees(view)["l0"]
        assert after < before


class TestOnLabeledGraphExtraction:
    def test_cross_edges_only(self, simple_two_label_graph):
        view = extract_label_bipartite(simple_two_label_graph, "L", "R")
        degrees = butterfly_degrees(view)
        assert degrees["a"] == 1
        assert degrees["b"] == 1
        assert degrees["c"] == 0
        assert total_butterflies(view) == 1

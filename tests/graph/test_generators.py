"""Unit tests for the generic graph generators (including paper figures)."""

from __future__ import annotations

import pytest

from repro.core.butterfly import butterfly_degrees
from repro.core.kcore import core_decomposition
from repro.exceptions import DatasetError
from repro.graph.bipartite import extract_label_bipartite
from repro.graph.generators import (
    ensure_butterfly,
    labeled_clique,
    labeled_core_group,
    paper_example_graph,
    paper_small_example_graph,
    planted_partition_graph,
    random_bipartite_graph,
    random_labeled_graph,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.traversal import is_connected


class TestPaperExampleGraph:
    """The Figure 1 reconstruction must reproduce the facts stated in the paper."""

    def test_three_labels(self):
        g = paper_example_graph()
        assert g.labels() == {"SE", "UI", "PM"}

    def test_query_coreness_matches_paper(self):
        g = paper_example_graph()
        se = core_decomposition(g.label_induced_subgraph("SE"))
        ui = core_decomposition(g.label_induced_subgraph("UI"))
        assert se["ql"] == 4
        assert ui["qr"] == 3

    def test_every_vertex_has_degree_at_least_three(self):
        g = paper_example_graph()
        assert all(g.degree(v) >= 3 for v in g.vertices())

    def test_butterfly_between_leader_pairs(self):
        g = paper_example_graph()
        bipartite = extract_label_bipartite(g, "SE", "UI")
        degrees = butterfly_degrees(bipartite)
        assert degrees["ql"] == 1
        assert degrees["qr"] == 1
        assert degrees["v5"] == 1
        assert degrees["u3"] == 1

    def test_graph_connected(self):
        assert is_connected(paper_example_graph())


class TestPaperSmallExampleGraph:
    """The Figure 3 reconstruction must reproduce Examples 4-6 facts."""

    def test_butterfly_degrees_match_example_5(self):
        g = paper_small_example_graph()
        bipartite = extract_label_bipartite(g, "L", "R")
        degrees = butterfly_degrees(bipartite)
        assert degrees["v1"] == 6
        assert degrees["v3"] == 6
        for u in ("u2", "u3", "u5", "u6"):
            assert degrees[u] == 3
        assert degrees["ql"] == 0

    def test_u9_is_farthest_from_ql(self):
        from repro.graph.traversal import bfs_distances

        g = paper_small_example_graph()
        dist = bfs_distances(g, "ql")
        assert dist["u9"] == 4
        assert max(dist.values()) == 4


class TestBuildingBlocks:
    def test_labeled_clique(self):
        g = labeled_clique(5, "X", prefix="n")
        assert g.num_vertices() == 5
        assert g.num_edges() == 10
        assert g.labels() == {"X"}

    def test_labeled_clique_rejects_empty(self):
        with pytest.raises(DatasetError):
            labeled_clique(0, "X")

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_labeled_core_group_min_degree(self, k):
        vertices = [f"v{i}" for i in range(max(8, k + 2))]
        g = labeled_core_group(vertices, "X", k, seed=1)
        assert all(g.degree(v) >= k for v in g.vertices())
        assert is_connected(g)

    def test_labeled_core_group_rejects_impossible_k(self):
        with pytest.raises(DatasetError):
            labeled_core_group(["a", "b"], "X", 5)

    def test_random_bipartite_graph_only_cross_edges(self):
        g = random_bipartite_graph(list(range(5)), list(range(10, 15)), 0.5, seed=2)
        for u, v in g.edges():
            assert g.label(u) != g.label(v)

    def test_random_labeled_graph_labels(self):
        g = random_labeled_graph(30, 0.2, ["A", "B", "C"], seed=3)
        assert g.num_vertices() == 30
        assert g.labels() <= {"A", "B", "C"}

    def test_random_labeled_graph_validation(self):
        with pytest.raises(DatasetError):
            random_labeled_graph(5, 0.1, [])
        with pytest.raises(DatasetError):
            random_labeled_graph(-1, 0.1, ["A"])


class TestPlantedPartition:
    def test_community_sizes_respected(self):
        g, communities = planted_partition_graph([10, 15, 20], 0.5, 0.01, seed=4)
        assert [len(c) for c in communities] == [10, 15, 20]
        assert g.num_vertices() == 45

    def test_determinism_with_same_seed(self):
        g1, _ = planted_partition_graph([10, 10], 0.5, 0.02, seed=5)
        g2, _ = planted_partition_graph([10, 10], 0.5, 0.02, seed=5)
        assert g1 == g2

    def test_intra_density_exceeds_inter_density(self):
        g, communities = planted_partition_graph([20, 20], 0.6, 0.02, seed=6)
        intra = sum(
            1 for u, v in g.edges() if any(u in c and v in c for c in map(set, communities))
        )
        inter = g.num_edges() - intra
        assert intra > inter

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(DatasetError):
            planted_partition_graph([5], 0.1, 0.5)
        with pytest.raises(DatasetError):
            planted_partition_graph([], 0.5, 0.1)

    def test_label_for_community_callback(self):
        g, communities = planted_partition_graph(
            [5, 5], 1.0, 0.0, seed=7, label_for_community=lambda i: f"C{i}"
        )
        assert g.label(communities[0][0]) == "C0"
        assert g.label(communities[1][0]) == "C1"


class TestEdgeHelpers:
    def test_ensure_butterfly(self):
        g = LabeledGraph()
        for v, lab in (("a", "L"), ("b", "L"), ("x", "R"), ("y", "R")):
            g.add_vertex(v, label=lab)
        ensure_butterfly(g, ("a", "b"), ("x", "y"))
        assert g.num_edges() == 4
        bipartite = extract_label_bipartite(g, "L", "R")
        assert butterfly_degrees(bipartite)["a"] == 1

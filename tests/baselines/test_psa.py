"""Unit tests for the PSA (progressive minimum k-core) baseline."""

from __future__ import annotations

from repro.baselines.psa import psa_search
from repro.core.kcore import is_k_core
from repro.eval.instrumentation import SearchInstrumentation
from repro.graph.generators import paper_example_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.traversal import are_connected


class TestPaperExample:
    def test_finds_small_core_around_query(self):
        g = paper_example_graph()
        result = psa_search(g, ["ql", "qr"])
        assert result is not None
        assert {"ql", "qr"} <= result.vertices
        # PSA looks for a *small* k-core: much smaller than the whole graph.
        assert result.num_vertices() < g.num_vertices()

    def test_community_is_connected_k_core(self):
        g = paper_example_graph()
        result = psa_search(g, ["ql", "qr"])
        assert are_connected(result.community, ["ql", "qr"])
        assert is_k_core(result.community, result.k)

    def test_default_k_is_min_query_coreness(self):
        g = paper_example_graph()
        result = psa_search(g, ["ql", "qr"])
        assert result.k == 3  # min(coreness(ql), coreness(qr)) on the whole graph

    def test_ignores_labels(self):
        g = paper_example_graph()
        result = psa_search(g, ["v1", "u1"])
        assert result is not None
        labels = {g.label(v) for v in result.vertices}
        assert len(labels) >= 1  # may freely mix labels


class TestEdgeCases:
    def test_missing_query_vertex(self):
        g = paper_example_graph()
        assert psa_search(g, ["ql", "ghost"]) is None

    def test_disconnected_query(self):
        g = LabeledGraph(edges=[(0, 1), (1, 2), (0, 2), (5, 6), (6, 7), (5, 7)])
        assert psa_search(g, [0, 5]) is None

    def test_explicit_k(self):
        g = paper_example_graph()
        result = psa_search(g, ["ql", "qr"], k=2)
        assert result is not None
        assert result.k == 2
        assert is_k_core(result.community, 2)

    def test_unsatisfiable_k(self):
        g = paper_example_graph()
        assert psa_search(g, ["ql", "qr"], k=20) is None

    def test_shrinking_produces_smaller_or_equal_community(self):
        g = paper_example_graph()
        unshrunk = psa_search(g, ["ql", "qr"], shrink_rounds=0)
        shrunk = psa_search(g, ["ql", "qr"], shrink_rounds=50)
        assert shrunk.num_vertices() <= unshrunk.num_vertices()

    def test_size_budget_respected(self):
        g = paper_example_graph()
        result = psa_search(g, ["ql", "qr"], size_budget=6)
        assert result is not None

    def test_statistics_present(self):
        g = paper_example_graph()
        inst = SearchInstrumentation()
        result = psa_search(g, ["ql", "qr"], instrumentation=inst)
        assert "expansions" in result.statistics
        assert result.expansions >= 0

    def test_single_query_vertex(self):
        g = paper_example_graph()
        result = psa_search(g, ["ql"])
        assert result is not None
        assert "ql" in result.vertices

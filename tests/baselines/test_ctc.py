"""Unit tests for the CTC (closest truss community) baseline."""

from __future__ import annotations

from repro.baselines.ctc import ctc_search
from repro.core.ktruss import is_k_truss
from repro.eval.instrumentation import SearchInstrumentation
from repro.graph.generators import paper_example_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.traversal import are_connected


class TestPaperExample:
    def test_finds_small_truss_around_query(self):
        """On the running example CTC finds the tight 4-vertex community
        {q_l, q_r, v5, u3} — the answer the introduction attributes to
        label-agnostic models with size/diameter constraints."""
        g = paper_example_graph()
        result = ctc_search(g, ["ql", "qr"])
        assert result is not None
        assert result.vertices == {"ql", "qr", "v5", "u3"}
        assert result.trussness == 4

    def test_community_is_connected_truss_containing_query(self):
        g = paper_example_graph()
        result = ctc_search(g, ["ql", "qr"])
        assert are_connected(result.community, ["ql", "qr"])
        assert is_k_truss(result.community, result.trussness)

    def test_ignores_labels(self):
        """CTC mixes labels freely: a same-label query is perfectly valid."""
        g = paper_example_graph()
        result = ctc_search(g, ["v1", "v2"])
        assert result is not None
        assert {"v1", "v2"} <= result.vertices


class TestEdgeCases:
    def test_missing_query_vertex(self):
        g = paper_example_graph()
        assert ctc_search(g, ["ql", "ghost"]) is None

    def test_disconnected_query(self):
        g = LabeledGraph(edges=[(0, 1), (1, 2), (0, 2), (5, 6), (6, 7), (5, 7)])
        assert ctc_search(g, [0, 5]) is None

    def test_explicit_k(self):
        g = paper_example_graph()
        result = ctc_search(g, ["ql", "qr"], k=3)
        assert result is not None
        assert result.trussness == 3
        assert is_k_truss(result.community, 3)

    def test_explicit_unsatisfiable_k(self):
        g = paper_example_graph()
        assert ctc_search(g, ["ql", "qr"], k=10) is None

    def test_single_query_vertex(self):
        g = paper_example_graph()
        result = ctc_search(g, ["ql"])
        assert result is not None
        assert "ql" in result.vertices

    def test_instrumentation_and_statistics(self):
        g = paper_example_graph()
        inst = SearchInstrumentation()
        result = ctc_search(g, ["ql", "qr"], instrumentation=inst)
        assert result.statistics["iterations"] >= 0
        assert inst.query_distance_seconds >= 0

    def test_max_iterations(self):
        g = paper_example_graph()
        result = ctc_search(g, ["ql", "qr"], max_iterations=0)
        assert result is not None

    def test_query_distance_reported(self):
        g = paper_example_graph()
        result = ctc_search(g, ["ql", "qr"])
        assert result.query_distance <= 2

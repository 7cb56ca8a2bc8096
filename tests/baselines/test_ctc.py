"""Unit tests for the CTC (closest truss community) baseline."""

from __future__ import annotations

from repro.api import BCCEngine, Query
from repro.core.ktruss import is_k_truss
from repro.graph.generators import paper_example_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.traversal import are_connected
from tests.conftest import search_result


class TestPaperExample:
    def test_finds_small_truss_around_query(self):
        """On the running example CTC finds the tight 4-vertex community
        {q_l, q_r, v5, u3} — the answer the introduction attributes to
        label-agnostic models with size/diameter constraints."""
        g = paper_example_graph()
        result = search_result(g, "ctc", "ql", "qr")
        assert result is not None
        assert result.vertices == {"ql", "qr", "v5", "u3"}
        assert result.trussness == 4

    def test_community_is_connected_truss_containing_query(self):
        g = paper_example_graph()
        result = search_result(g, "ctc", "ql", "qr")
        assert are_connected(result.community, ["ql", "qr"])
        assert is_k_truss(result.community, result.trussness)

    def test_ignores_labels(self):
        """CTC mixes labels freely: a same-label query is perfectly valid."""
        g = paper_example_graph()
        result = search_result(g, "ctc", "v1", "v2")
        assert result is not None
        assert {"v1", "v2"} <= result.vertices


class TestEdgeCases:
    def test_disconnected_query(self):
        g = LabeledGraph(edges=[(0, 1), (1, 2), (0, 2), (5, 6), (6, 7), (5, 7)])
        assert search_result(g, "ctc", 0, 5) is None

    def test_explicit_k(self):
        g = paper_example_graph()
        result = search_result(g, "ctc", "ql", "qr", k=3)
        assert result is not None
        assert result.trussness == 3
        assert is_k_truss(result.community, 3)

    def test_explicit_unsatisfiable_k(self):
        g = paper_example_graph()
        assert search_result(g, "ctc", "ql", "qr", k=10) is None

    def test_single_query_vertex(self):
        g = paper_example_graph()
        result = search_result(g, "ctc", "ql")
        assert result is not None
        assert "ql" in result.vertices

    def test_instrumentation_and_statistics(self):
        response = BCCEngine(paper_example_graph()).search(Query("ctc", ("ql", "qr")))
        assert response.result.statistics["iterations"] >= 0
        assert response.instrumentation.query_distance_seconds >= 0

    def test_max_iterations(self):
        g = paper_example_graph()
        result = search_result(g, "ctc", "ql", "qr", max_iterations=0)
        assert result is not None

    def test_query_distance_reported(self):
        g = paper_example_graph()
        result = search_result(g, "ctc", "ql", "qr")
        assert result.query_distance <= 2

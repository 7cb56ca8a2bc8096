"""Unit tests for Algorithm 1 (Online-BCC greedy search)."""

from __future__ import annotations

import pytest

from repro.api import BCCEngine, Query, SearchConfig
from repro.core.bcc_model import BCCParameters, is_bcc
from repro.exceptions import QueryError
from repro.graph.generators import paper_example_graph
from repro.graph.traversal import diameter
from tests.conftest import search_result


class TestPaperExample:
    def test_returns_figure2_community(self):
        g = paper_example_graph()
        result = search_result(g, "online-bcc", "ql", "qr", k1=4, k2=3, b=1)
        assert result is not None
        expected = {"ql", "v1", "v2", "v3", "v4", "v5", "qr", "u1", "u2", "u3"}
        assert result.vertices == expected

    def test_result_is_valid_bcc_containing_query(self):
        g = paper_example_graph()
        result = search_result(g, "online-bcc", "ql", "qr", k1=4, k2=3, b=1)
        assert is_bcc(result.community, result.parameters, ["ql", "qr"])

    def test_default_parameters_from_coreness(self):
        g = paper_example_graph()
        result = search_result(g, "online-bcc", "ql", "qr", b=1)
        assert result.parameters.k1 == 4
        assert result.parameters.k2 == 3

    def test_query_distance_recorded(self):
        g = paper_example_graph()
        result = search_result(g, "online-bcc", "ql", "qr", k1=4, k2=3, b=1)
        assert result.query_distance == 2

    def test_junior_biased_query_finds_same_community(self):
        """Section 3.3: leader-biased and junior-biased queries give the same
        underlying community (here with explicit matching parameters)."""
        g = paper_example_graph()
        leaders = search_result(g, "online-bcc", "ql", "qr", k1=4, k2=3, b=1)
        juniors = search_result(g, "online-bcc", "v1", "u1", k1=4, k2=3, b=1)
        assert juniors is not None
        assert juniors.vertices == leaders.vertices


class TestNoAnswer:
    def test_unsatisfiable_parameters(self):
        g = paper_example_graph()
        assert search_result(g, "online-bcc", "ql", "qr", k1=9, k2=3, b=1) is None
        assert search_result(g, "online-bcc", "ql", "qr", k1=4, k2=3, b=99) is None

    def test_same_label_query_rejected(self):
        g = paper_example_graph()
        with pytest.raises(QueryError):
            search_result(g, "online-bcc", "ql", "v1")


class TestApproximationGuarantee:
    def test_diameter_within_twice_g0_optimal(self, tiny_baidu_bundle):
        """The returned community's diameter is at most twice the smallest
        diameter of any intermediate candidate, which upper-bounds the optimum
        reachable by the peeling sequence (Theorem 3 sanity check)."""
        bundle = tiny_baidu_bundle
        q_left, q_right = bundle.default_query()
        result = search_result(bundle.graph, "online-bcc", q_left, q_right, b=1)
        assert result is not None
        # dist(O, Q) <= diam(O) <= 2 * dist(O, Q) always holds for the answer.
        assert result.query_distance <= diameter(result.community)
        assert diameter(result.community) <= 2 * result.query_distance

    def test_result_diameter_not_worse_than_g0(self):
        from repro.core.find_g0 import find_g0

        g = paper_example_graph()
        params = BCCParameters(4, 3, 1)
        g0 = find_g0(g, "ql", "qr", params)
        result = search_result(g, "online-bcc", "ql", "qr", k1=4, k2=3, b=1)
        assert diameter(result.community) <= diameter(g0.community)


class TestOptions:
    def test_single_deletion_matches_bulk_on_small_graph(self):
        g = paper_example_graph()
        bulk = search_result(g, "online-bcc", "ql", "qr", k1=4, k2=3, b=1)
        single = search_result(
            g, "online-bcc", "ql", "qr", k1=4, k2=3, b=1, bulk_deletion=False
        )
        assert bulk.vertices == single.vertices

    def test_max_iterations_respected(self, tiny_baidu_bundle):
        bundle = tiny_baidu_bundle
        q_left, q_right = bundle.default_query()
        result = search_result(
            bundle.graph, "online-bcc", q_left, q_right, b=1, max_iterations=1
        )
        assert result is not None
        assert result.iterations <= 1

    def test_instrumentation_collected(self):
        engine = BCCEngine(paper_example_graph(), SearchConfig(k1=4, k2=3, b=1))
        inst = engine.search(Query("online-bcc", ("ql", "qr"))).instrumentation
        assert inst.butterfly_counting_calls >= 1
        assert inst.query_distance_seconds >= 0.0

    def test_statistics_embedded_in_result(self):
        g = paper_example_graph()
        result = search_result(g, "online-bcc", "ql", "qr", k1=4, k2=3, b=1)
        assert "butterfly_counting_calls" in result.statistics

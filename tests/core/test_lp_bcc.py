"""Unit tests for LP-BCC (Algorithm 1 + fast strategies of Section 6)."""

from __future__ import annotations

import pytest

from repro.core.bcc_model import is_bcc
from repro.core.lp_bcc import lp_bcc_search
from repro.core.online_bcc import online_bcc_search
from repro.eval.instrumentation import SearchInstrumentation
from repro.eval.queries import QuerySpec, generate_query_pairs
from repro.graph.generators import paper_example_graph


class TestPaperExample:
    def test_returns_figure2_community(self):
        g = paper_example_graph()
        result = lp_bcc_search(g, "ql", "qr", k1=4, k2=3, b=1)
        expected = {"ql", "v1", "v2", "v3", "v4", "v5", "qr", "u1", "u2", "u3"}
        assert result is not None
        assert result.vertices == expected

    def test_result_is_valid_bcc(self):
        g = paper_example_graph()
        result = lp_bcc_search(g, "ql", "qr", k1=4, k2=3, b=1)
        assert is_bcc(result.community, result.parameters, ["ql", "qr"])

    def test_leader_pair_reported(self):
        g = paper_example_graph()
        result = lp_bcc_search(g, "ql", "qr", k1=4, k2=3, b=1)
        assert result.leader_pair is not None
        left_leader, right_leader = result.leader_pair
        assert g.label(left_leader) == "SE"
        assert g.label(right_leader) == "UI"

    def test_no_answer_for_unsatisfiable_parameters(self):
        g = paper_example_graph()
        assert lp_bcc_search(g, "ql", "qr", k1=4, k2=3, b=99) is None
        assert lp_bcc_search(g, "ql", "qr", k1=9, k2=3, b=1) is None


class TestAgreementWithOnlineBCC:
    """LP-BCC uses the same greedy framework; on ground-truth queries the two
    must return communities of equal quality (same query distance) and, on
    these small graphs, the same vertex sets."""

    def test_same_answer_on_paper_example(self):
        g = paper_example_graph()
        online = online_bcc_search(g, "ql", "qr", k1=4, k2=3, b=1)
        fast = lp_bcc_search(g, "ql", "qr", k1=4, k2=3, b=1)
        assert online.vertices == fast.vertices
        assert online.query_distance == fast.query_distance

    @pytest.mark.parametrize("query_index", [0, 1, 2])
    def test_same_query_distance_on_baidu_tiny(self, tiny_baidu_bundle, query_index):
        bundle = tiny_baidu_bundle
        pairs = generate_query_pairs(bundle, QuerySpec(count=3), seed=5)
        if query_index >= len(pairs):
            pytest.skip("not enough generated queries")
        q_left, q_right = pairs[query_index]
        online = online_bcc_search(bundle.graph, q_left, q_right, b=1)
        fast = lp_bcc_search(bundle.graph, q_left, q_right, b=1)
        assert (online is None) == (fast is None)
        if online is not None:
            assert fast.query_distance == online.query_distance


class TestFastStrategiesAreUsed:
    def test_fewer_butterfly_counting_calls_than_online(self, tiny_baidu_bundle):
        bundle = tiny_baidu_bundle
        q_left, q_right = bundle.default_query()
        online_inst = SearchInstrumentation()
        lp_inst = SearchInstrumentation()
        online_bcc_search(bundle.graph, q_left, q_right, b=1, instrumentation=online_inst)
        lp_bcc_search(bundle.graph, q_left, q_right, b=1, instrumentation=lp_inst)
        assert lp_inst.butterfly_counting_calls <= online_inst.butterfly_counting_calls

    def test_partial_distance_updates_recorded(self, tiny_baidu_bundle):
        bundle = tiny_baidu_bundle
        q_left, q_right = bundle.default_query()
        result = lp_bcc_search(bundle.graph, q_left, q_right, b=1)
        assert result is not None
        assert result.statistics.get("distance_full_recomputations", 0) == 2
        # Two iterations; the first deletion batch survives maintenance and
        # updates both queries' distances (Algorithm 5), the second ends
        # the search before any update.
        assert result.iterations == 2
        assert result.statistics.get("distance_partial_updates", 0) == 2

    def test_leader_recount_statistics_present(self):
        g = paper_example_graph()
        result = lp_bcc_search(g, "ql", "qr", k1=4, k2=3, b=1)
        assert "leader_full_recounts" in result.statistics


class TestOptions:
    def test_single_vertex_deletion_mode(self):
        g = paper_example_graph()
        result = lp_bcc_search(g, "ql", "qr", k1=4, k2=3, b=1, bulk_deletion=False)
        expected = {"ql", "v1", "v2", "v3", "v4", "v5", "qr", "u1", "u2", "u3"}
        assert result.vertices == expected

    def test_max_iterations(self, tiny_baidu_bundle):
        bundle = tiny_baidu_bundle
        q_left, q_right = bundle.default_query()
        result = lp_bcc_search(bundle.graph, q_left, q_right, b=1, max_iterations=1)
        assert result is not None
        assert result.iterations <= 1

    def test_rho_parameter_accepted(self):
        g = paper_example_graph()
        result = lp_bcc_search(g, "ql", "qr", k1=4, k2=3, b=1, rho=1)
        assert result is not None

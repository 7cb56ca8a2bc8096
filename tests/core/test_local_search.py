"""Unit tests for Algorithm 8 (L2P-BCC index-based local exploration)."""

from __future__ import annotations

import pytest

from repro.core.bc_index import BCIndex
from repro.core.bcc_model import is_bcc
from repro.core.local_search import expand_candidate_graph
from repro.eval.queries import QuerySpec, generate_query_pairs
from repro.graph.generators import paper_example_graph
from tests.conftest import search_result


class TestExpandCandidateGraph:
    def test_expansion_respects_label_and_coreness_filters(self):
        g = paper_example_graph()
        index = BCIndex(g)
        candidate = expand_candidate_graph(
            g, ["ql", "qr"], index, "SE", "UI", k_left=4, k_right=3, eta=100
        )
        labels = {g.label(v) for v in candidate.vertices()}
        assert labels <= {"SE", "UI"}
        for v in candidate.vertices():
            if v in ("ql", "qr"):
                continue
            if g.label(v) == "SE":
                assert index.coreness(v) >= 4
            else:
                assert index.coreness(v) >= 3

    def test_eta_bounds_size(self):
        g = paper_example_graph()
        index = BCIndex(g)
        small = expand_candidate_graph(
            g, ["ql", "qr"], index, "SE", "UI", k_left=0, k_right=0, eta=3
        )
        large = expand_candidate_graph(
            g, ["ql", "qr"], index, "SE", "UI", k_left=0, k_right=0, eta=100
        )
        assert small.num_vertices() <= large.num_vertices()
        assert small.num_vertices() >= 2  # the seed path always survives

    def test_seed_path_always_included(self):
        g = paper_example_graph()
        index = BCIndex(g)
        candidate = expand_candidate_graph(
            g, ["ql", "qr"], index, "SE", "UI", k_left=99, k_right=99, eta=10
        )
        assert "ql" in candidate and "qr" in candidate


class TestL2PBCCSearch:
    def test_paper_example_community(self):
        g = paper_example_graph()
        result = search_result(g, "l2p-bcc", "ql", "qr", k1=4, k2=3, b=1)
        expected = {"ql", "v1", "v2", "v3", "v4", "v5", "qr", "u1", "u2", "u3"}
        assert result is not None
        assert result.vertices == expected
        assert is_bcc(result.community, result.parameters, ["ql", "qr"])

    def test_automatic_parameters(self):
        g = paper_example_graph()
        result = search_result(g, "l2p-bcc", "ql", "qr", b=1)
        assert result is not None
        assert result.parameters.k1 >= 1
        assert result.parameters.k2 >= 1
        assert "ql" in result.vertices and "qr" in result.vertices

    def test_prebuilt_index_reused(self):
        g = paper_example_graph()
        index = BCIndex(g)
        result = search_result(g, "l2p-bcc", "ql", "qr", k1=4, k2=3, b=1, index=index)
        assert result is not None
        # The shared index has cached the SE/UI butterfly degrees.
        assert len(index.cached_label_pairs()) >= 1

    def test_unbuilt_index_is_built(self):
        g = paper_example_graph()
        index = BCIndex(g, build=False)
        result = search_result(g, "l2p-bcc", "ql", "qr", k1=4, k2=3, b=1, index=index)
        assert result is not None
        assert index.is_built()

    def test_unsatisfiable_query_returns_none(self):
        g = paper_example_graph()
        assert search_result(g, "l2p-bcc", "ql", "qr", k1=4, k2=3, b=99) is None

    def test_small_eta_still_finds_community_via_fallback(self):
        g = paper_example_graph()
        result = search_result(g, "l2p-bcc", "ql", "qr", k1=4, k2=3, b=1, eta=2)
        assert result is not None
        assert is_bcc(result.community, result.parameters, ["ql", "qr"])

    def test_candidate_statistics_recorded(self):
        g = paper_example_graph()
        result = search_result(g, "l2p-bcc", "ql", "qr", k1=4, k2=3, b=1)
        assert "candidate_vertices" in result.statistics


class TestQualityAgainstGlobalSearch:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_comparable_quality_on_baidu_tiny(self, tiny_baidu_bundle, seed):
        """L2P-BCC works on a local candidate, so it may differ from the
        global LP-BCC answer, but for ground-truth project queries it must
        still return a community overlapping the ground truth."""
        from repro.eval.metrics import f1_score

        bundle = tiny_baidu_bundle
        pairs = generate_query_pairs(bundle, QuerySpec(count=2), seed=seed)
        for q_left, q_right in pairs:
            truth = bundle.community_for_query(q_left, q_right)
            if truth is None:
                continue
            local = search_result(bundle.graph, "l2p-bcc", q_left, q_right, b=1)
            global_ = search_result(bundle.graph, "lp-bcc", q_left, q_right, b=1)
            assert local is not None
            assert f1_score(local.vertices, truth.members) > 0.3
            if global_ is not None:
                assert (
                    f1_score(local.vertices, truth.members)
                    >= f1_score(global_.vertices, truth.members) - 0.35
                )

"""End-to-end integration tests crossing module boundaries.

These tests exercise whole pipelines the way the benchmark harness and the
examples do: dataset generation → index construction → community search →
evaluation against ground truth, including the paper's running example and
the case-study scenarios.
"""

from __future__ import annotations

import pytest

from repro import BCIndex, is_bcc, validate_bcc
from repro.datasets import load_dataset
from repro.eval import QuerySpec, describe_community, f1_score, generate_query_pairs
from repro.eval.harness import run_method
from repro.graph.generators import paper_example_graph
from tests.conftest import search_result


class TestRunningExamplePipeline:
    """The full Figure 1 → Figure 2 story of the paper's introduction."""

    def test_all_three_bcc_methods_agree_with_figure2(self):
        g = paper_example_graph()
        expected = {"ql", "v1", "v2", "v3", "v4", "v5", "qr", "u1", "u2", "u3"}
        for method in ("online-bcc", "lp-bcc", "l2p-bcc"):
            result = search_result(g, method, "ql", "qr", k1=4, k2=3, b=1)
            assert result is not None, method
            assert result.vertices == expected, method
            assert is_bcc(result.community, result.parameters, ["ql", "qr"])

    def test_baselines_reproduce_the_introduction_critique(self):
        """The introduction argues label-agnostic models either return the
        whole graph (plain k-core) or a tiny community missing most group
        members; CTC/PSA indeed return the 4-vertex liaison set."""
        g = paper_example_graph()
        ctc = search_result(g, "ctc", "ql", "qr")
        psa = search_result(g, "psa", "ql", "qr")
        assert ctc.vertices == {"ql", "qr", "v5", "u3"}
        assert psa.vertices == {"ql", "qr", "v5", "u3"}
        expected = {"ql", "v1", "v2", "v3", "v4", "v5", "qr", "u1", "u2", "u3"}
        assert f1_score(ctc.vertices, expected) < 1.0
        bcc = search_result(g, "lp-bcc", "ql", "qr", b=1)
        assert f1_score(bcc.vertices, expected) == 1.0

    def test_community_report_matches_figure2_structure(self):
        g = paper_example_graph()
        result = search_result(g, "lp-bcc", "ql", "qr", k1=4, k2=3, b=1)
        report = describe_community(result.community)
        assert report.label_sizes == {"SE": 6, "UI": 4}
        assert report.min_intra_degree == {"SE": 4, "UI": 3}
        assert report.total_butterflies == 1


class TestDatasetToSearchPipeline:
    def test_baidu_project_recovery(self, tiny_baidu_bundle):
        bundle = tiny_baidu_bundle
        pairs = generate_query_pairs(bundle, QuerySpec(count=3), seed=13)
        assert pairs
        index = BCIndex(bundle.graph)
        for q_left, q_right in pairs:
            truth = bundle.community_for_query(q_left, q_right)
            result = search_result(
                bundle.graph, "l2p-bcc", q_left, q_right, b=1, index=index
            )
            assert result is not None
            assert f1_score(result.vertices, truth.members) > 0.4

    def test_snap_like_protocol_supports_bcc_search(self, tiny_snap_bundle):
        bundle = tiny_snap_bundle
        pairs = generate_query_pairs(bundle, QuerySpec(count=2), seed=3)
        found_any = False
        for q_left, q_right in pairs:
            result = search_result(
                bundle.graph, "lp-bcc", q_left, q_right, b=1, max_iterations=100
            )
            if result is not None:
                found_any = True
                assert validate_bcc(
                    result.community, result.parameters, [q_left, q_right]
                ) == []
        assert found_any

    def test_run_method_is_consistent_with_direct_call(self, tiny_baidu_bundle):
        bundle = tiny_baidu_bundle
        q_left, q_right = bundle.default_query()
        via_harness = run_method("LP-BCC", bundle, q_left, q_right, b=1)
        direct = search_result(bundle.graph, "lp-bcc", q_left, q_right, b=1)
        assert via_harness.vertices == direct.vertices


class TestCaseStudyPipelines:
    def test_flight_case_study(self, flight_bundle):
        """Exp-6: the BCC for {Toronto, Frankfurt} must be a two-country
        community containing the transatlantic hub butterfly, while CTC mostly
        returns Canadian cities."""
        graph = flight_bundle.graph
        result = search_result(graph, "lp-bcc", "Toronto", "Frankfurt", b=3)
        assert result is not None
        labels = {graph.label(v) for v in result.vertices}
        assert labels == {"Canada", "Germany"}
        for hub in ("Toronto", "Vancouver", "Frankfurt", "Munich"):
            assert hub in result.vertices
        ctc = search_result(graph, "ctc", "Toronto", "Frankfurt")
        german_in_ctc = [v for v in ctc.vertices if graph.label(v) == "Germany"]
        german_in_bcc = [v for v in result.vertices if graph.label(v) == "Germany"]
        assert len(german_in_bcc) > len(german_in_ctc)

    def test_trade_case_study(self, trade_bundle):
        graph = trade_bundle.graph
        result = search_result(graph, "lp-bcc", "United States", "China", b=3)
        assert result is not None
        labels = {graph.label(v) for v in result.vertices}
        assert labels == {"Asia", "North America"}
        assert "Japan" in result.vertices or "Korea" in result.vertices

    def test_fiction_case_study(self, fiction_bundle):
        graph = fiction_bundle.graph
        result = search_result(graph, "lp-bcc", "Ron Weasley", "Draco Malfoy", b=1)
        assert result is not None
        assert "Lord Voldemort" in result.vertices
        assert "Molly Weasley" in result.vertices or "Arthur Weasley" in result.vertices
        ctc = search_result(graph, "ctc", "Ron Weasley", "Draco Malfoy")
        assert "Lord Voldemort" not in ctc.vertices or len(result.vertices) > len(
            ctc.vertices
        )

    def test_academic_case_study_two_labels(self, academic_bundle):
        graph = academic_bundle.graph
        result = search_result(
            graph, "lp-bcc", "Tim Kraska", "Michael I. Jordan", b=3, k1=3, k2=3
        )
        assert result is not None
        labels = {graph.label(v) for v in result.vertices}
        assert labels == {"Database", "Machine Learning"}

    def test_academic_case_study_three_labels(self, academic_bundle):
        graph = academic_bundle.graph
        query = ["Michael J. Franklin", "Michael I. Jordan", "Ion Stoica"]
        result = search_result(graph, "mbcc", *query, core_parameters=(3, 3, 3), b=3)
        assert result is not None
        assert set(query) <= result.vertices
        spanned = {graph.label(v) for v in result.vertices}
        assert spanned == {"Database", "Machine Learning", "Systems and Networking"}
        assert len(result.interaction_edges) >= 2


class TestRegistryPipeline:
    @pytest.mark.parametrize("name", ["baidu-tiny", "tiny", "fiction", "trade"])
    def test_load_and_query_every_small_dataset(self, name):
        bundle = load_dataset(name, seed=2)
        q_left, q_right = bundle.default_query()
        result = search_result(
            bundle.graph, "lp-bcc", q_left, q_right, b=1, max_iterations=100
        )
        assert result is None or {q_left, q_right} <= result.vertices

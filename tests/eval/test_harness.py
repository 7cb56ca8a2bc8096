"""Unit and integration tests for the experiment harness."""

from __future__ import annotations

import pytest

from repro.core.bc_index import BCIndex
from repro.eval.harness import (
    BCC_METHOD_NAMES,
    METHOD_NAMES,
    MethodSummary,
    evaluate_methods,
    evaluate_multilabel,
    run_method,
)
from repro.eval.instrumentation import SearchInstrumentation
from repro.eval.queries import QuerySpec


class TestRunMethod:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_every_method_runs_on_default_query(self, tiny_baidu_bundle, method):
        q_left, q_right = tiny_baidu_bundle.default_query()
        outcome = run_method(method, tiny_baidu_bundle, q_left, q_right, b=1)
        assert outcome.method == method
        assert outcome.seconds >= 0
        assert outcome.found
        assert outcome.f1 is not None and 0 <= outcome.f1 <= 1
        assert {q_left, q_right} <= outcome.vertices

    def test_bcc_methods_beat_baselines_on_planted_project(self, tiny_baidu_bundle):
        """The headline qualitative claim of Fig. 4: labeled methods recover the
        planted cross-team project better than the label-agnostic baselines."""
        q_left, q_right = tiny_baidu_bundle.default_query()
        scores = {
            method: run_method(method, tiny_baidu_bundle, q_left, q_right, b=1).f1
            for method in METHOD_NAMES
        }
        best_baseline = max(scores["PSA"], scores["CTC"])
        for method in BCC_METHOD_NAMES:
            assert scores[method] >= best_baseline

    def test_unknown_method_rejected(self, tiny_baidu_bundle):
        q_left, q_right = tiny_baidu_bundle.default_query()
        with pytest.raises(ValueError):
            run_method("Louvain", tiny_baidu_bundle, q_left, q_right)

    def test_explicit_k_override(self, tiny_baidu_bundle):
        q_left, q_right = tiny_baidu_bundle.default_query()
        outcome = run_method("LP-BCC", tiny_baidu_bundle, q_left, q_right, k=2, b=1)
        assert outcome.found

    def test_shared_index(self, tiny_baidu_bundle):
        q_left, q_right = tiny_baidu_bundle.default_query()
        index = BCIndex(tiny_baidu_bundle.graph)
        outcome = run_method(
            "L2P-BCC", tiny_baidu_bundle, q_left, q_right, b=1, index=index
        )
        assert outcome.found

    def test_instrumentation_passthrough(self, tiny_baidu_bundle):
        q_left, q_right = tiny_baidu_bundle.default_query()
        outcome = run_method("Online-BCC", tiny_baidu_bundle, q_left, q_right, b=1)
        assert isinstance(outcome.instrumentation, SearchInstrumentation)
        assert outcome.instrumentation.butterfly_counting_calls >= 1


class TestEvaluateMethods:
    def test_summary_structure(self, tiny_baidu_bundle):
        summaries = evaluate_methods(
            tiny_baidu_bundle,
            methods=["PSA", "L2P-BCC"],
            spec=QuerySpec(count=3),
            seed=0,
        )
        assert set(summaries) == {"PSA", "L2P-BCC"}
        for summary in summaries.values():
            assert isinstance(summary, MethodSummary)
            assert summary.queries == 3
            assert 0 <= summary.avg_f1 <= 1
            assert summary.avg_seconds >= 0
            assert summary.dataset == tiny_baidu_bundle.name

    def test_figure4_shape_on_tiny_dataset(self, tiny_baidu_bundle):
        summaries = evaluate_methods(
            tiny_baidu_bundle,
            methods=["PSA", "CTC", "L2P-BCC"],
            spec=QuerySpec(count=3),
            seed=1,
        )
        assert summaries["L2P-BCC"].avg_f1 >= summaries["CTC"].avg_f1
        assert summaries["L2P-BCC"].avg_f1 >= summaries["PSA"].avg_f1

    def test_as_row(self, tiny_baidu_bundle):
        summaries = evaluate_methods(
            tiny_baidu_bundle, methods=["PSA"], spec=QuerySpec(count=2), seed=2
        )
        row = summaries["PSA"].as_row()
        assert row[0] == tiny_baidu_bundle.name
        assert row[1] == "PSA"


class TestRegistryDispatch:
    def test_method_names_derive_from_registry(self):
        from repro.api import method_names

        assert METHOD_NAMES == method_names(kinds=("baseline", "bcc"))
        assert BCC_METHOD_NAMES == method_names(kinds=("bcc",))

    def test_run_method_accepts_canonical_names_and_aliases(self, tiny_baidu_bundle):
        q_left, q_right = tiny_baidu_bundle.default_query()
        for name in ("lp-bcc", "LP-BCC", "lp"):
            outcome = run_method(name, tiny_baidu_bundle, q_left, q_right, b=1)
            assert outcome.found

    def test_registering_a_method_extends_the_harness(self, tiny_baidu_bundle):
        from repro.api import method_names, register_method, unregister_method

        @register_method("noop-bcc", display="Noop-BCC", kind="bcc")
        def _noop(engine, query, config, instrumentation):
            class _Result:
                vertices = set(query.vertices)

            return _Result()

        try:
            # Adding a method is one decorator: the registry-derived name
            # lists pick it up without touching the harness — including the
            # live module attributes (served via module __getattr__).
            from repro.eval import harness

            assert "Noop-BCC" in method_names(kinds=("bcc",))
            assert "Noop-BCC" in harness.METHOD_NAMES
            assert "Noop-BCC" in harness.BCC_METHOD_NAMES
            q_left, q_right = tiny_baidu_bundle.default_query()
            outcome = run_method("Noop-BCC", tiny_baidu_bundle, q_left, q_right)
            assert outcome.vertices == {q_left, q_right}
        finally:
            unregister_method("noop-bcc")

    def test_caller_engine_config_honoured_unless_overridden(self, tiny_baidu_bundle):
        from repro.api import BCCEngine, SearchConfig

        q_left, q_right = tiny_baidu_bundle.default_query()
        # An engine prepared with unreachable core parameters: when the
        # harness caller omits b/k, the engine's base config must govern.
        engine = BCCEngine(tiny_baidu_bundle.graph, SearchConfig(k1=10**6, k2=10**6))
        outcome = run_method("LP-BCC", tiny_baidu_bundle, q_left, q_right, engine=engine)
        assert not outcome.found
        # An explicit symmetric k override replaces both core parameters,
        # beating even explicit k1/k2 in the engine config (Fig. 8 sweeps
        # must actually sweep when driven through a configured engine).
        outcome = run_method(
            "LP-BCC", tiny_baidu_bundle, q_left, q_right, k=2, engine=engine
        )
        assert outcome.found
        engine2 = BCCEngine(tiny_baidu_bundle.graph, SearchConfig(b=1))
        outcome = run_method(
            "LP-BCC", tiny_baidu_bundle, q_left, q_right, b=1, engine=engine2
        )
        assert outcome.found

    def test_baseline_missing_vertex_scores_as_unanswered(self, tiny_baidu_bundle):
        import pytest as _pytest

        from repro.exceptions import VertexNotFoundError

        q_left, _ = tiny_baidu_bundle.default_query()
        for method in ("CTC", "PSA"):
            outcome = run_method(method, tiny_baidu_bundle, q_left, "ghost")
            assert not outcome.found
            assert outcome.reason == "missing-query-vertex"
        with _pytest.raises(VertexNotFoundError):
            run_method("LP-BCC", tiny_baidu_bundle, q_left, "ghost")

    def test_deep_missing_vertex_propagates_even_when_flagged(self, tiny_baidu_bundle):
        """A VertexNotFoundError for a NON-query vertex is an implementation
        bug, not "no community": the harness must not score it unanswered."""
        from repro.api import register_method, unregister_method
        from repro.exceptions import VertexNotFoundError

        @register_method(
            "buggy-baseline",
            display="Buggy-Baseline",
            kind="baseline",
            missing_vertex_is_empty=True,
        )
        def _buggy(engine, query, config, instrumentation):
            raise VertexNotFoundError("internal-liaison-vertex")

        q_left, q_right = tiny_baidu_bundle.default_query()
        try:
            with pytest.raises(VertexNotFoundError, match="internal-liaison-vertex"):
                run_method("buggy-baseline", tiny_baidu_bundle, q_left, q_right)
        finally:
            unregister_method("buggy-baseline")

    def test_run_method_reports_empty_status_and_reason(self, tiny_baidu_bundle):
        q_left, q_right = tiny_baidu_bundle.default_query()
        outcome = run_method(
            "Online-BCC", tiny_baidu_bundle, q_left, q_right, k=10**6
        )
        assert not outcome.found
        assert outcome.status == "empty"
        assert outcome.reason == "no-candidate"
        assert outcome.f1 == 0.0


class TestTimingSplit:
    def test_cold_l2p_reports_index_build_separately(self, tiny_baidu_bundle):
        q_left, q_right = tiny_baidu_bundle.default_query()
        outcome = run_method("L2P-BCC", tiny_baidu_bundle, q_left, q_right, b=1)
        # A throwaway engine builds the BCindex during the call, but the cost
        # is reported apart from query time instead of silently inflating it.
        assert outcome.index_seconds > 0
        assert outcome.seconds >= 0

    def test_warm_engine_pays_index_once(self, tiny_baidu_bundle):
        from repro.api import BCCEngine

        engine = BCCEngine(tiny_baidu_bundle.graph)
        q_left, q_right = tiny_baidu_bundle.default_query()
        first = run_method(
            "L2P-BCC", tiny_baidu_bundle, q_left, q_right, b=1, engine=engine
        )
        second = run_method(
            "L2P-BCC", tiny_baidu_bundle, q_left, q_right, b=1, engine=engine
        )
        assert first.index_seconds > 0
        assert second.index_seconds == 0.0
        assert first.vertices == second.vertices
        assert engine.counters_snapshot()["index_builds"] == 1

    def test_caller_supplied_index_keeps_seconds_pure(self, tiny_baidu_bundle):
        q_left, q_right = tiny_baidu_bundle.default_query()
        index = BCIndex(tiny_baidu_bundle.graph)
        outcome = run_method(
            "L2P-BCC", tiny_baidu_bundle, q_left, q_right, b=1, index=index
        )
        assert outcome.found
        assert outcome.index_seconds == 0.0

    def test_evaluate_methods_aggregates_index_seconds(self, tiny_baidu_bundle):
        summaries = evaluate_methods(
            tiny_baidu_bundle,
            methods=["L2P-BCC", "PSA"],
            spec=QuerySpec(count=2),
            seed=4,
            share_index=True,
        )
        # The shared engine builds the BCindex lazily exactly once; the cost
        # is surfaced in the triggering method's index_seconds (never in
        # avg_seconds) and methods that don't use the index pay nothing.
        assert summaries["L2P-BCC"].index_seconds > 0
        assert summaries["PSA"].index_seconds == 0.0


class TestEvaluateMultilabel:
    def test_multilabel_summary(self):
        from repro.datasets import generate_baidu_network

        bundle = generate_baidu_network("tiny", seed=6, project_labels=3)
        summaries = evaluate_multilabel(
            bundle, num_labels=3, methods=["L2P-BCC", "PSA"], count=2, seed=3
        )
        assert set(summaries) == {"L2P-BCC", "PSA"}
        assert summaries["L2P-BCC"].queries >= 1
        assert "m=3" in summaries["L2P-BCC"].dataset

    def test_unknown_method_rejected(self, tiny_baidu_bundle):
        with pytest.raises(ValueError):
            evaluate_multilabel(tiny_baidu_bundle, 2, methods=["Louvain"], count=1)


class TestErrorRowAggregation:
    def test_error_rows_excluded_from_timing_means(self):
        import math

        from repro.eval.harness import QueryOutcome, _summarize_outcomes

        ran = QueryOutcome(
            method="LP-BCC", query=("a", "b"), found=True, seconds=2.0, f1=1.0,
            query_distance=1.0,
        )
        errored = QueryOutcome(
            method="LP-BCC", query=("a", "ghost"), status="error",
            reason="missing-query-vertex", error="vertex 'ghost' is not in the graph",
        )
        summary = _summarize_outcomes("LP-BCC", "unit", [ran, errored])
        assert summary.queries == 2
        assert summary.answered == 1
        assert summary.errors == 1
        # The error row never ran the algorithm: its placeholder 0.0 seconds
        # and infinite query distance stay out of the means.
        assert summary.avg_seconds == 2.0
        assert summary.total_seconds == 2.0
        assert summary.avg_query_distance == 1.0
        assert math.isinf(errored.query_distance)

    def test_evaluate_methods_batch_mode_matches_sequential(self, tiny_baidu_bundle):
        from repro.eval.harness import evaluate_methods
        from repro.eval.queries import QuerySpec

        batched = evaluate_methods(
            tiny_baidu_bundle, methods=["LP-BCC"], spec=QuerySpec(count=3),
            seed=5, max_workers=4,
        )
        sequential = evaluate_methods(
            tiny_baidu_bundle, methods=["LP-BCC"], spec=QuerySpec(count=3),
            seed=5,
        )
        assert batched["LP-BCC"].answered == sequential["LP-BCC"].answered
        assert batched["LP-BCC"].avg_f1 == sequential["LP-BCC"].avg_f1
        assert batched["LP-BCC"].errors == sequential["LP-BCC"].errors == 0

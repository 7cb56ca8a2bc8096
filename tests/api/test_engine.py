"""Unit and acceptance tests for the prepared BCCEngine."""

from __future__ import annotations

import pytest

import gc
import math
import weakref

from repro.api import (
    STATUS_EMPTY,
    STATUS_ERROR,
    STATUS_OK,
    BatchQuery,
    BCCEngine,
    Query,
    SearchConfig,
    register_method,
    unregister_method,
)
from repro.core.bc_index import BCIndex
from repro.datasets import generate_baidu_network
from repro.eval.queries import QuerySpec, generate_query_pairs
from repro.exceptions import (
    REASON_INVALID_QUERY,
    REASON_MISSING_VERTEX,
    REASON_NO_CANDIDATE,
    REASON_UNKNOWN_METHOD,
    EmptyCommunityError,
    QueryError,
    VertexNotFoundError,
)


def work_counts(response):
    """A search's counters without its timers."""
    return {
        key: value
        for key, value in response.instrumentation.as_dict().items()
        if not key.endswith("_seconds")
    }


class TestConstruction:
    def test_accepts_bundle(self, tiny_baidu_bundle):
        engine = BCCEngine(tiny_baidu_bundle)
        assert engine.graph is tiny_baidu_bundle.graph

    def test_rejects_non_graph(self):
        with pytest.raises(TypeError):
            BCCEngine(42)

    def test_counters_snapshot_is_a_copy(self, paper_graph):
        engine = BCCEngine(paper_graph).prepare()
        snapshot = engine.counters_snapshot()
        assert snapshot["prepare_calls"] == 1
        snapshot["prepare_calls"] = 999  # the caller's copy, not the engine's
        assert engine.counters_snapshot()["prepare_calls"] == 1

    @pytest.mark.parametrize("engine_type", ["monolithic", "sharded"])
    def test_discarded_engine_is_freed_by_refcount(self, paper_graph, engine_type):
        # A reference cycle through an engine (say, its process slot holding
        # a bound method of it) keeps the graph and caches of every
        # discarded engine alive until the cyclic collector happens to run.
        from repro.serving import ShardedBCCEngine

        cls = ShardedBCCEngine if engine_type == "sharded" else BCCEngine
        gc.disable()
        try:
            engine = cls(paper_graph)
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
        finally:
            gc.enable()

    def test_prepare_chains_and_counts_once(self, paper_graph):
        engine = BCCEngine(paper_graph).prepare()
        assert engine.is_prepared()
        assert engine.counters_snapshot()["csr_freezes"] <= 1
        frozen = paper_graph.freeze()
        engine.prepare()
        assert paper_graph.freeze() is frozen
        assert engine.counters_snapshot()["csr_freezes"] <= 1
        assert engine.counters_snapshot()["prepare_calls"] == 2


class TestSearch:
    def test_ok_response_shape(self, paper_graph):
        engine = BCCEngine(paper_graph, SearchConfig(k1=4, k2=3, b=1))
        response = engine.search(Query("online-bcc", ("ql", "qr")))
        assert response.status == STATUS_OK and response.found
        assert response.method == "online-bcc"
        assert response.query == ("ql", "qr")
        assert {"ql", "qr"} <= response.vertices
        assert response.community is not None
        assert response.iterations >= 0
        assert response.reason is None
        assert response.timings["total_seconds"] >= 0
        assert response.timings["query_seconds"] >= 0
        assert response.raise_for_empty() is response

    def test_empty_response_query_distance_is_infinite(self, paper_graph):
        """An empty answer is infinitely far from the query — reporting the
        old 0.0 made it indistinguishable from a perfect community."""
        engine = BCCEngine(paper_graph)
        ok = engine.search(
            Query("online-bcc", ("ql", "qr"), config=SearchConfig(k1=4, k2=3))
        )
        assert ok.found and math.isfinite(ok.query_distance)
        empty = engine.search(
            Query("lp-bcc", ("ql", "qr"), config=SearchConfig(k1=99, k2=99))
        )
        assert empty.query_distance == math.inf

    def test_empty_response_has_machine_readable_reason(self, paper_graph):
        engine = BCCEngine(paper_graph)
        response = engine.search(
            Query("lp-bcc", ("ql", "qr"), config=SearchConfig(k1=99, k2=99))
        )
        assert response.status == STATUS_EMPTY and not response.found
        assert response.result is None
        assert response.vertices == set()
        assert response.reason == REASON_NO_CANDIDATE
        with pytest.raises(EmptyCommunityError) as excinfo:
            response.raise_for_empty()
        assert excinfo.value.reason == REASON_NO_CANDIDATE

    def test_malformed_queries_still_raise(self, paper_graph):
        engine = BCCEngine(paper_graph)
        with pytest.raises(QueryError):
            engine.search(Query("lp-bcc", ("ql", "v1", "qr")))  # wrong arity
        # Unknown vertices raise for every method kind — baselines included
        # (only the eval harness scores a baseline's as unanswered).
        for method in ("lp-bcc", "ctc", "psa", "mbcc"):
            with pytest.raises(VertexNotFoundError):
                engine.search(Query(method, ("ql", "missing")))
        with pytest.raises(ValueError):
            engine.search(Query("Louvain", ("ql", "qr")))

    def test_query_rejects_bare_string_vertices(self):
        with pytest.raises(QueryError):
            Query("ctc", "Toronto")  # would otherwise split into characters
        with pytest.raises(QueryError):
            Query("", ("ql", "qr"))
        with pytest.raises(QueryError):
            Query("ctc", ())

    def test_config_precedence_call_over_query_over_engine(self, paper_graph):
        engine = BCCEngine(paper_graph, SearchConfig(k1=4, k2=3))
        query = Query("online-bcc", ("ql", "qr"), config=SearchConfig(k1=99, k2=99))
        # Query-level override beats the engine base...
        assert engine.search(query).status == STATUS_EMPTY
        # ...and the call-level override beats both.
        response = engine.search(query, config=SearchConfig(k1=4, k2=3))
        assert response.status == STATUS_OK

    def test_instrumentation_passthrough(self, paper_graph):
        engine = BCCEngine(paper_graph)
        query = Query("online-bcc", ("ql", "qr"))
        response = engine.search(query)
        assert response.instrumentation.butterfly_counting_calls >= 1
        # A cache hit ran no algorithm; a bypass gets a fresh object.
        assert engine.search(query).instrumentation is None
        again = engine.search(query, use_cache=False)
        assert again.instrumentation is not response.instrumentation
        assert work_counts(again) == work_counts(response)


class TestIndexLifecycle:
    def test_lazy_index_built_once_and_timed(self, paper_graph):
        engine = BCCEngine(paper_graph)
        first = engine.search(Query("l2p-bcc", ("ql", "qr")))
        second = engine.search(Query("l2p-bcc", ("ql", "qr")))
        assert engine.counters_snapshot()["index_builds"] == 1
        assert first.timings["index_build_seconds"] > 0
        assert second.timings["index_build_seconds"] == 0.0
        assert first.vertices == second.vertices

    def test_prebuilt_index_not_rebuilt(self, paper_graph):
        index = BCIndex(paper_graph)
        engine = BCCEngine(paper_graph, index=index)
        engine.search(Query("l2p-bcc", ("ql", "qr")))
        assert engine.counters_snapshot()["index_builds"] == 0
        assert engine.index is index

    def test_unbuilt_index_is_built_on_first_use(self, paper_graph):
        index = BCIndex(paper_graph, build=False)
        engine = BCCEngine(paper_graph, index=index)
        assert not engine.has_index()
        engine.search(Query("l2p-bcc", ("ql", "qr")))
        assert engine.counters_snapshot()["index_builds"] == 1
        assert engine.has_index()


class TestVersionInvalidation:
    def test_mutation_clears_caches(self, paper_graph):
        engine = BCCEngine(paper_graph).prepare()
        engine.search(Query("lp-bcc", ("ql", "qr")))
        engine.ensure_index()
        assert engine.is_prepared() and engine.has_index()
        assert engine.counters_snapshot()["csr_freezes"] == 1
        paper_graph.add_edge("ql", "u1")
        assert not engine.is_prepared()
        assert not engine.has_index()
        response = engine.search(Query("lp-bcc", ("ql", "qr")))
        assert response.status in (STATUS_OK, STATUS_EMPTY)
        # The pipeline state was rebuilt on the new version's snapshot.
        assert engine.counters_snapshot()["csr_freezes"] == 2

    def test_held_answer_stays_valid_on_its_version(self, paper_graph):
        engine = BCCEngine(paper_graph).prepare()
        query = Query("lp-bcc", ("ql", "qr"))
        response = engine.search(query)
        before = paper_graph.induced_subgraph(response.vertices)
        paper_graph.remove_edge(*min(before.edges(), key=repr))
        # The answer is built from the snapshot it came from.
        assert response.community == before
        snapshot = weakref.ref(response.result.csr)
        engine.search(query)
        del response
        gc.collect()
        # The next search dropped the old version's cached answers, so only
        # the caller's answer kept that snapshot alive.
        assert snapshot() is None


class TestExplain:
    def test_explain_bcc_resolves_coreness_defaults(self, paper_graph):
        engine = BCCEngine(paper_graph).prepare()
        info = engine.explain(Query("lp-bcc", ("ql", "qr")))
        assert info["method"]["display"] == "LP-BCC"
        assert info["engine"]["prepared"] is True
        resolved = info["resolved"]
        assert resolved["left_label"] == "SE" and resolved["right_label"] == "UI"
        # Section 3.5 defaults: coreness of ql within SE is 4, of qr within UI is 3.
        assert resolved["k1"] == 4 and resolved["k2"] == 3
        # Explaining does not run the search.
        assert engine.counters_snapshot()["searches"] == 0

    def test_explain_l2p_defers_unset_k(self, paper_graph):
        info = BCCEngine(paper_graph).explain(Query("l2p-bcc", ("ql", "qr")))
        assert info["resolved"]["k1"] is None
        assert "candidate" in info["resolved"]["note"]

    def test_explain_baselines_and_multilabel(self, paper_graph):
        engine = BCCEngine(paper_graph)
        ctc_info = engine.explain(Query("ctc", ("ql", "qr")))
        assert "trussness" in ctc_info["resolved"]["note"]
        mbcc_info = engine.explain(
            Query("mbcc", ("ql", "qr"), config=SearchConfig(core_parameters=(2, 2)))
        )
        assert mbcc_info["resolved"]["core_parameters"] == {"SE": 2, "UI": 2}

    def test_explain_malformed_query_raises(self, paper_graph):
        with pytest.raises(QueryError):
            BCCEngine(paper_graph).explain(Query("lp-bcc", ("ql", "v1")))
        # explain mirrors run_mbcc's validation: duplicate labels raise.
        with pytest.raises(QueryError):
            BCCEngine(paper_graph).explain(Query("mbcc", ("ql", "v1")))
        # Unknown vertices raise for every kind, baselines included.
        for method in ("lp-bcc", "ctc", "psa", "mbcc"):
            with pytest.raises(VertexNotFoundError):
                BCCEngine(paper_graph).explain(Query(method, ("ql", "ghost")))


class TestSearchMany:
    def test_batch_equals_sequential(self, tiny_baidu_bundle):
        pairs = generate_query_pairs(
            tiny_baidu_bundle, QuerySpec(count=5), seed=3
        )
        queries = [Query("lp-bcc", pair) for pair in pairs]
        batch = BCCEngine(tiny_baidu_bundle).search_many(queries)
        sequential = [
            BCCEngine(tiny_baidu_bundle).search(query) for query in queries
        ]
        assert len(batch) == len(queries)
        for got, want in zip(batch, sequential):
            assert got.status == want.status
            assert got.vertices == want.vertices
            assert got.iterations == want.iterations

    def test_threaded_rows_carry_their_own_counters(self, tiny_baidu_bundle):
        pairs = generate_query_pairs(
            tiny_baidu_bundle, QuerySpec(count=6), seed=3
        )
        queries = [Query("lp-bcc", pair) for pair in pairs]
        batch = BCCEngine(tiny_baidu_bundle).search_many(
            queries, max_workers=4, use_cache=False
        )
        engine = BCCEngine(tiny_baidu_bundle)
        sequential = [engine.search(q, use_cache=False) for q in queries]
        assert len({id(r.instrumentation) for r in batch}) == len(queries)
        assert [work_counts(r) for r in batch] == [
            work_counts(r) for r in sequential
        ]

    def test_batch_query_carries_shared_config(self, paper_graph):
        batch = BatchQuery(
            queries=(Query("online-bcc", ("ql", "qr")),),
            config=SearchConfig(k1=99, k2=99),
        )
        responses = BCCEngine(paper_graph).search_many(batch)
        assert responses[0].status == STATUS_EMPTY

    def test_member_query_config_beats_batch_config(self, paper_graph):
        batch = BatchQuery(
            queries=(
                Query("online-bcc", ("ql", "qr")),  # inherits batch config
                Query(
                    "online-bcc",
                    ("ql", "qr"),
                    config=SearchConfig(k1=4, k2=3),  # its own config wins
                ),
            ),
            config=SearchConfig(k1=99, k2=99),
        )
        inherited, own = BCCEngine(paper_graph).search_many(batch)
        assert inherited.status == STATUS_EMPTY
        assert own.status == STATUS_OK

    def test_call_config_overrides_batch_and_member_configs(self, paper_graph):
        batch = BatchQuery(
            queries=(
                Query(
                    "online-bcc", ("ql", "qr"), config=SearchConfig(k1=99, k2=99)
                ),
            ),
            config=SearchConfig(k1=77, k2=77),
        )
        responses = BCCEngine(paper_graph).search_many(
            batch, config=SearchConfig(k1=4, k2=3)
        )
        assert responses[0].status == STATUS_OK

    def test_batch_rejects_non_query_members_with_index(self, paper_graph):
        with pytest.raises(QueryError, match="member 1"):
            BatchQuery(queries=(Query("ctc", ("ql",)), "not-a-query"))
        # Same guarantee for a plain iterable handed straight to search_many
        # (previously an opaque AttributeError deep inside the batch loop).
        with pytest.raises(QueryError, match="member 0"):
            BCCEngine(paper_graph).search_many(["ql", "qr"])

    def test_acceptance_warm_batch_freezes_and_indexes_at_most_once(self):
        """Acceptance: >= 20 queries on a Table-3 synthetic network perform
        the CSR freeze and the BCIndex build at most once (counters)."""
        bundle = generate_baidu_network("tiny", seed=7)
        assert not bundle.graph.has_frozen()
        pairs = generate_query_pairs(bundle, QuerySpec(count=10), seed=1)
        queries = [
            Query(method, pair)
            for pair in pairs
            for method in ("online-bcc", "lp-bcc", "l2p-bcc")
        ]
        assert len(queries) >= 20
        engine = BCCEngine(bundle.graph)
        responses = engine.search_many(queries)
        assert len(responses) == len(queries)
        assert any(response.found for response in responses)
        assert engine.counters_snapshot()["searches"] == len(queries)
        # The whole batch paid preparation exactly once.
        assert engine.counters_snapshot()["csr_freezes"] == 1
        assert engine.counters_snapshot()["index_builds"] == 1
        assert engine.counters_snapshot()["prepare_calls"] == 1
        # Label groups were built at most once per label, not per query.
        assert engine.counters_snapshot()["group_builds"] <= len(bundle.graph.labels())
        # And only the first L2P-BCC query paid the index build.
        index_payers = [
            r for r in responses if r.timings["index_build_seconds"] > 0
        ]
        assert len(index_payers) == 1


class TestErrorPolicy:
    """search_many(on_error=...): per-query failures vs batch aborts."""

    def _mixed_batch(self):
        return [
            Query("lp-bcc", ("ql", "qr")),
            Query("lp-bcc", ("ql", "ghost")),  # unknown vertex
            Query("online-bcc", ("ql", "qr")),
        ]

    def test_default_raise_policy_aborts_like_search(self, paper_graph):
        with pytest.raises(VertexNotFoundError):
            BCCEngine(paper_graph).search_many(self._mixed_batch())

    def test_return_policy_yields_position_aligned_error_row(self, paper_graph):
        """Acceptance: a batch with one malformed query yields N aligned
        responses with exactly one status="error"."""
        batch = self._mixed_batch()
        responses = BCCEngine(paper_graph).search_many(batch, on_error="return")
        assert len(responses) == len(batch)
        assert [r.status for r in responses] == [STATUS_OK, STATUS_ERROR, STATUS_OK]
        error = responses[1]
        assert error.reason == REASON_MISSING_VERTEX
        assert "ghost" in error.error
        assert error.result is None and error.vertices == set()
        assert not error.found
        assert error.query == ("ql", "ghost")
        assert error.query_distance == math.inf
        with pytest.raises(QueryError):
            error.raise_for_empty()

    def test_return_policy_classifies_failures(self, paper_graph):
        responses = BCCEngine(paper_graph).search_many(
            [
                Query("no-such-method", ("ql", "qr")),
                Query("lp-bcc", ("ql", "v1", "qr")),  # wrong arity
                Query("mbcc", ("ql", "v1")),  # duplicate labels
            ],
            on_error="return",
        )
        assert [r.status for r in responses] == [STATUS_ERROR] * 3
        assert responses[0].reason == REASON_UNKNOWN_METHOD
        assert responses[1].reason == REASON_INVALID_QUERY
        assert responses[2].reason == REASON_INVALID_QUERY
        assert all(r.error for r in responses)

    def test_return_policy_with_threads(self, paper_graph):
        responses = BCCEngine(paper_graph).search_many(
            self._mixed_batch(), on_error="return", max_workers=4
        )
        assert [r.status for r in responses] == [STATUS_OK, STATUS_ERROR, STATUS_OK]

    def test_raise_policy_with_threads(self, paper_graph):
        with pytest.raises(VertexNotFoundError):
            BCCEngine(paper_graph).search_many(self._mixed_batch(), max_workers=4)

    def test_unknown_policy_and_bad_workers_rejected(self, paper_graph):
        engine = BCCEngine(paper_graph)
        with pytest.raises(QueryError):
            engine.search_many([], on_error="ignore")
        with pytest.raises(QueryError):
            engine.search_many([], max_workers=0)
        with pytest.raises(QueryError):
            engine.search_many([], backend="proces")

    def test_process_backend_rejects_policy_and_workers_too(self, paper_graph):
        engine = BCCEngine(paper_graph)
        batch = [Query("lp-bcc", ("ql", "qr"))]
        try:
            with pytest.raises(QueryError):
                engine.search_many(batch, on_error="sideways", backend="process")
            with pytest.raises(QueryError):
                engine.search_many(batch, max_workers=0, backend="process")
        finally:
            engine.close_process_pool()

    def test_return_policy_does_not_mask_deep_missing_vertices(self, paper_graph):
        """A VertexNotFoundError for a NON-query vertex is an implementation
        bug escaping a runner — on_error="return" must not convert it into
        a per-query error row."""

        @register_method("deep-misser", display="Deep-Misser", kind="baseline")
        def _deep(engine, query, config, instrumentation):
            raise VertexNotFoundError("internal-liaison-vertex")

        try:
            with pytest.raises(VertexNotFoundError, match="internal-liaison"):
                BCCEngine(paper_graph).search_many(
                    [Query("deep-misser", ("ql", "qr"))], on_error="return"
                )
        finally:
            unregister_method("deep-misser")

    def test_empty_answers_are_not_errors(self, paper_graph):
        responses = BCCEngine(paper_graph).search_many(
            [Query("lp-bcc", ("ql", "qr"), config=SearchConfig(k1=99, k2=99))],
            on_error="return",
        )
        assert responses[0].status == STATUS_EMPTY
        assert responses[0].reason == REASON_NO_CANDIDATE


class TestResultCache:
    def test_hit_replays_same_answer_with_fresh_timings(self, paper_graph):
        engine = BCCEngine(paper_graph, SearchConfig(k1=4, k2=3))
        query = Query("online-bcc", ("ql", "qr"))
        first = engine.search(query)
        second = engine.search(query)
        assert engine.counters_snapshot()["result_cache_misses"] == 1
        assert engine.counters_snapshot()["result_cache_hits"] == 1
        assert second.timings["cache_hit"] == 1.0
        assert "cache_hit" not in first.timings
        assert second.status == first.status
        assert second.vertices == first.vertices
        assert second.result is first.result  # the native result is shared
        assert second.vertices is not first.vertices  # the member set is not
        assert engine.counters_snapshot()["searches"] == 2

    def test_distinct_configs_do_not_collide(self, paper_graph):
        engine = BCCEngine(paper_graph)
        query = ("ql", "qr")
        found = engine.search(
            Query("online-bcc", query, config=SearchConfig(k1=4, k2=3))
        )
        empty = engine.search(
            Query("online-bcc", query, config=SearchConfig(k1=99, k2=99))
        )
        assert found.status == STATUS_OK and empty.status == STATUS_EMPTY
        assert engine.counters_snapshot()["result_cache_hits"] == 0

    def test_bypass_per_call(self, paper_graph):
        engine = BCCEngine(paper_graph, SearchConfig(k1=4, k2=3))
        query = Query("online-bcc", ("ql", "qr"))
        engine.search(query)
        bypassed = engine.search(query, use_cache=False)
        assert "cache_hit" not in bypassed.timings
        assert engine.counters_snapshot()["result_cache_hits"] == 0

    def test_zero_size_disables_caching(self, paper_graph):
        engine = BCCEngine(
            paper_graph, SearchConfig(k1=4, k2=3), result_cache_size=0
        )
        query = Query("online-bcc", ("ql", "qr"))
        engine.search(query)
        engine.search(query)
        assert engine.counters_snapshot()["result_cache_hits"] == 0
        assert engine.counters_snapshot()["result_cache_misses"] == 0
        assert engine.result_cache_len() == 0

    def test_lru_evicts_oldest_entry(self, paper_graph):
        engine = BCCEngine(paper_graph, result_cache_size=2)
        queries = [
            Query("online-bcc", ("ql", "qr"), config=SearchConfig(k1=k, k2=k))
            for k in (1, 2, 3)
        ]
        for query in queries:
            engine.search(query)
        assert engine.result_cache_len() == 2
        # k=1 was evicted; k=3 is still warm.
        assert "cache_hit" in engine.search(queries[2]).timings
        assert "cache_hit" not in engine.search(queries[0]).timings

    def test_negative_size_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            BCCEngine(paper_graph, result_cache_size=-1)

    def test_search_many_can_bypass_cache(self, paper_graph):
        engine = BCCEngine(paper_graph, SearchConfig(k1=4, k2=3))
        queries = [Query("online-bcc", ("ql", "qr"))] * 2
        cached = engine.search_many(queries)
        assert "cache_hit" in cached[1].timings
        fresh = engine.search_many(queries, use_cache=False)
        assert all("cache_hit" not in r.timings for r in fresh)

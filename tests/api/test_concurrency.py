"""Concurrent-serving tests: thread-safe caches, parity, hostile mutation.

Everything here is marked ``concurrency`` so CI can run it as a dedicated
job under a hard timeout — a deadlocked engine lock then fails fast instead
of hanging the runner (``pytest -m concurrency``).  The tests also run in
the plain tier-1 suite.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (
    STATUS_EMPTY,
    STATUS_OK,
    BCCEngine,
    Query,
    SearchConfig,
    register_method,
    unregister_method,
)
from repro.datasets import generate_baidu_network
from repro.eval.queries import QuerySpec, generate_query_pairs
from repro.exceptions import EmptyCommunityError
from repro.graph.generators import random_labeled_graph

pytestmark = pytest.mark.concurrency

STRESS_WORKERS = 8


def _batch_queries(bundle, count=10, methods=("online-bcc", "lp-bcc", "l2p-bcc")):
    pairs = generate_query_pairs(bundle, QuerySpec(count=count), seed=1)
    return [Query(method, pair) for pair in pairs for method in methods]


class TestFillOnceUnderContention:
    def test_stress_one_freeze_one_index_build_at_max_workers_8(self):
        """Acceptance: a threaded batch pays one CSR freeze, one BCindex
        build and one build per label group — counters prove it."""
        bundle = generate_baidu_network("tiny", seed=7)
        assert not bundle.graph.has_frozen()
        queries = _batch_queries(bundle)
        assert len(queries) >= 24

        engine = BCCEngine(bundle.graph)
        responses = engine.search_many(queries, max_workers=STRESS_WORKERS)
        assert len(responses) == len(queries)
        assert engine.counters_snapshot()["searches"] == len(queries)
        assert engine.counters_snapshot()["csr_freezes"] == 1
        assert engine.counters_snapshot()["index_builds"] == 1
        assert engine.counters_snapshot()["prepare_calls"] == 1

        # One build per label group: a sequential engine serving the same
        # batch builds exactly the groups the workload touches — the
        # threaded engine must not have built any group twice.
        sequential = BCCEngine(generate_baidu_network("tiny", seed=7).graph)
        sequential.search_many(queries)
        assert engine.counters_snapshot()["group_builds"] == sequential.counters_snapshot()["group_builds"]
        assert engine.counters_snapshot()["group_builds"] <= len(bundle.graph.labels())

    def test_group_fills_exactly_once_when_hammered(self, paper_graph):
        engine = BCCEngine(paper_graph)
        barrier = threading.Barrier(STRESS_WORKERS)

        def fetch():
            barrier.wait()
            return engine.group("SE")

        with ThreadPoolExecutor(max_workers=STRESS_WORKERS) as pool:
            groups = list(pool.map(lambda _: fetch(), range(STRESS_WORKERS)))
        assert engine.counters_snapshot()["group_builds"] == 1
        assert all(group is groups[0] for group in groups)

    def test_index_builds_exactly_once_when_hammered(self, paper_graph):
        engine = BCCEngine(paper_graph)
        barrier = threading.Barrier(STRESS_WORKERS)

        def fetch():
            barrier.wait()
            return engine.ensure_index()

        with ThreadPoolExecutor(max_workers=STRESS_WORKERS) as pool:
            indexes = list(pool.map(lambda _: fetch(), range(STRESS_WORKERS)))
        assert engine.counters_snapshot()["index_builds"] == 1
        assert all(index is indexes[0] for index in indexes)

    def test_prepare_freezes_exactly_once_when_hammered(self, paper_graph):
        engine = BCCEngine(paper_graph)
        barrier = threading.Barrier(STRESS_WORKERS)

        def prep():
            barrier.wait()
            engine.prepare()

        with ThreadPoolExecutor(max_workers=STRESS_WORKERS) as pool:
            list(pool.map(lambda _: prep(), range(STRESS_WORKERS)))
        assert engine.counters_snapshot()["csr_freezes"] == 1
        assert engine.counters_snapshot()["prepare_calls"] == STRESS_WORKERS

    def test_attached_engine_splits_labels_exactly_once_when_hammered(
        self, tmp_path, monkeypatch
    ):
        """An attached engine leaves the label split to its first BCC
        queries; concurrent first queries still split exactly once."""
        import repro.graph.csr as csr_module
        from repro.store import Snapshot, attach_engine, persist_engine

        path = tmp_path / "graph.bccsnap"
        built = BCCEngine(generate_baidu_network("tiny", seed=7).graph)
        persist_engine(built, path)
        split = csr_module.split_by_label
        splits = []

        def counted_split(slices, labels):
            splits.append(1)
            time.sleep(0.05)  # hold the window open for the other threads
            return split(slices, labels)

        monkeypatch.setattr(csr_module, "split_by_label", counted_split)
        bundle = generate_baidu_network("tiny", seed=7)
        queries = _batch_queries(bundle, count=3)[:STRESS_WORKERS]
        assert len(queries) == STRESS_WORKERS
        barrier = threading.Barrier(STRESS_WORKERS, timeout=30)
        engine = attach_engine(bundle.graph, Snapshot(path))
        assert splits == []

        def serve(query):
            barrier.wait()
            return engine.search(query, use_cache=False)

        with ThreadPoolExecutor(max_workers=STRESS_WORKERS) as pool:
            responses = list(pool.map(serve, queries))
        assert len(splits) == 1
        assert engine.counters_snapshot()["csr_freezes"] == 0
        expected = [built.search(query, use_cache=False) for query in queries]
        assert [r.vertices for r in responses] == [r.vertices for r in expected]


class TestConcurrentParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_threaded_batch_equals_sequential_search(self, seed):
        """Acceptance: max_workers=8 responses equal sequential answers
        position-for-position on randomized batches."""
        rng = random.Random(47_000 + seed)
        graph = random_labeled_graph(
            rng.randint(10, 24), 0.2 + rng.random() * 0.3, ["A", "B"], seed=seed
        )
        pairs = [edge for edge in graph.cross_edges()][:6]
        if not pairs:
            pytest.skip("random graph has no cross edge")
        config = SearchConfig(b=1, max_iterations=60)
        queries = [
            Query(method, pair, config=config)
            for pair in pairs
            for method in ("online-bcc", "lp-bcc", "l2p-bcc", "ctc", "psa")
        ]
        threaded = BCCEngine(graph).search_many(
            queries, max_workers=STRESS_WORKERS
        )
        sequential_engine = BCCEngine(graph)
        sequential = [sequential_engine.search(query) for query in queries]
        assert len(threaded) == len(queries)
        for got, want in zip(threaded, sequential):
            assert got.method == want.method
            assert got.status == want.status, got.method
            assert got.vertices == want.vertices, got.method
            assert got.iterations == want.iterations, got.method

    def test_threaded_batch_charges_index_build_to_one_query(self):
        """Index-build time is attributed to the thread that built it: one
        payer, and nobody's query_seconds goes negative from somebody
        else's build."""
        bundle = generate_baidu_network("tiny", seed=7)
        queries = _batch_queries(bundle)
        responses = BCCEngine(bundle.graph).search_many(
            queries, max_workers=STRESS_WORKERS
        )
        payers = [r for r in responses if r.timings["index_build_seconds"] > 0]
        assert len(payers) == 1
        assert all(r.timings["query_seconds"] >= 0 for r in responses)

    def test_threaded_batch_counters_match_sequential(self, tiny_baidu_bundle):
        # The CSR snapshot lives on the (session-scoped) graph, so only the
        # per-engine caches are comparable here; freeze-once under
        # contention is covered by the fresh-graph stress test above.
        queries = _batch_queries(tiny_baidu_bundle, count=5)
        threaded = BCCEngine(tiny_baidu_bundle.graph)
        threaded.search_many(queries, max_workers=STRESS_WORKERS)
        sequential = BCCEngine(tiny_baidu_bundle.graph)
        sequential.search_many(queries)
        for key in ("index_builds", "group_builds", "searches"):
            assert threaded.counters_snapshot()[key] == sequential.counters_snapshot()[key], key


class TestMutationDuringServing:
    def test_mutation_between_batches_invalidates_exactly_once(self):
        bundle = generate_baidu_network("tiny", seed=7)
        queries = _batch_queries(bundle, count=4)
        engine = BCCEngine(bundle.graph)
        engine.search_many(queries)
        assert engine.counters_snapshot()["csr_freezes"] == 1
        assert engine.counters_snapshot()["index_builds"] == 1
        assert engine.counters_snapshot()["invalidations"] == 0
        groups_before = engine.counters_snapshot()["group_builds"]

        # One mutation: every cache is invalidated once, then rebuilt once
        # by the next (threaded) batch — no repeated invalidation per query
        # and no duplicated rebuilds under contention.
        u = next(iter(bundle.graph.vertices()))
        bundle.graph.add_vertex("fresh-hire", label=bundle.graph.label(u))
        engine.search_many(queries, max_workers=STRESS_WORKERS)
        assert engine.counters_snapshot()["invalidations"] == 1
        assert engine.counters_snapshot()["csr_freezes"] == 2
        assert engine.counters_snapshot()["index_builds"] == 2
        assert engine.counters_snapshot()["group_builds"] == 2 * groups_before

    def test_hostile_runner_mutating_mid_batch_invalidates_once(self, paper_graph):
        """A runner that mutates the graph between queries of one batch:
        the next query detects the version change and rebuilds exactly once."""

        @register_method("hostile-mutator", display="Hostile-Mutator", kind="baseline")
        def _hostile(engine, query, config, instrumentation):
            engine.graph.add_edge("hostile-a", "hostile-b")
            raise EmptyCommunityError("mutated the serving graph")

        try:
            engine = BCCEngine(paper_graph)
            responses = engine.search_many(
                [
                    Query("lp-bcc", ("ql", "qr")),
                    Query("hostile-mutator", ("ql",)),
                    Query("lp-bcc", ("ql", "qr")),
                    Query("lp-bcc", ("ql", "qr")),
                ]
            )
            assert [r.status for r in responses] == [
                STATUS_OK,
                STATUS_EMPTY,
                STATUS_OK,
                STATUS_OK,
            ]
            # The two post-mutation queries observed one version change:
            # one invalidation, one freeze-and-prepare per graph version
            # (1 before + 1 after), not one per query — and the pipeline
            # never builds a label-group subgraph.
            assert engine.counters_snapshot()["invalidations"] == 1
            assert engine.counters_snapshot()["csr_freezes"] == 2
            assert engine.counters_snapshot()["group_builds"] == 0
        finally:
            unregister_method("hostile-mutator")

    def test_mutation_clears_result_cache(self, paper_graph):
        engine = BCCEngine(paper_graph, SearchConfig(k1=4, k2=3))
        query = Query("online-bcc", ("ql", "qr"))
        engine.search(query)
        assert engine.search(query).timings.get("cache_hit") == 1.0
        assert engine.result_cache_len() == 1
        paper_graph.add_edge("ql", "u1")
        response = engine.search(query)
        assert "cache_hit" not in response.timings
        assert engine.counters_snapshot()["invalidations"] == 1

    def test_concurrent_result_cache_hits_are_consistent(self, paper_graph):
        engine = BCCEngine(paper_graph, SearchConfig(k1=4, k2=3))
        query = Query("online-bcc", ("ql", "qr"))
        baseline = engine.search(query)

        def serve(_):
            return engine.search(query)

        with ThreadPoolExecutor(max_workers=STRESS_WORKERS) as pool:
            responses = list(pool.map(serve, range(32)))
        for response in responses:
            assert response.status == baseline.status
            assert response.vertices == baseline.vertices
        assert engine.counters_snapshot()["result_cache_hits"] == 32
        assert engine.counters_snapshot()["result_cache_misses"] == 1

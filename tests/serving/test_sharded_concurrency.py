"""Concurrent scatter-gather over shards.

Marked ``concurrency`` so CI's dedicated hard-timeout job runs it — a
deadlock between the router's partition/shards locks and the shard engines'
cache locks must fail fast, not hang the runner.  The tests also run in the
plain tier-1 suite.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Query, SearchConfig
from repro.serving import ShardedBCCEngine

from tests.serving.conftest import random_multi_component_graph

pytestmark = pytest.mark.concurrency

STRESS_WORKERS = 8


def _cross_label_pairs(graph, vertices, limit):
    pairs = [
        (u, v)
        for u in vertices
        for v in vertices
        if graph.has_edge(u, v) and graph.label(u) != graph.label(v)
    ]
    return pairs[:limit]


class TestScatterGatherParity:
    @pytest.mark.parametrize("seed", range(3))
    def test_threaded_scatter_gather_equals_sequential(self, seed):
        """Acceptance: max_workers=8 across shards returns answers equal to
        sequential search position-for-position."""
        graph, part_vertices = random_multi_component_graph(52_000 + seed, 3)
        config = SearchConfig(b=1, max_iterations=60)
        queries = []
        for vertices in part_vertices:
            for pair in _cross_label_pairs(graph, vertices, 3):
                for method in ("online-bcc", "lp-bcc", "ctc", "psa"):
                    queries.append(Query(method, pair, config=config))
        # Cross-shard rows ride along in the same threaded batch.
        queries.append(
            Query("lp-bcc", (part_vertices[0][0], part_vertices[1][0]), config=config)
        )
        if len(queries) <= 1:
            pytest.skip("random graph produced no cross edges")

        threaded = ShardedBCCEngine(graph).search_many(
            queries, max_workers=STRESS_WORKERS
        )
        sequential_engine = ShardedBCCEngine(graph)
        sequential = [sequential_engine.search(query) for query in queries]
        assert len(threaded) == len(queries)
        for got, want in zip(threaded, sequential):
            assert got.method == want.method
            assert got.status == want.status, got.method
            assert got.reason == want.reason, got.method
            assert got.vertices == want.vertices, got.method
            assert got.iterations == want.iterations, got.method


class TestFillOnceUnderContention:
    def test_each_shard_engine_builds_exactly_once_when_hammered(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(two_component_paper_graph)
        shard_id = engine.shard_of("ql")
        barrier = threading.Barrier(STRESS_WORKERS)

        def fetch():
            barrier.wait()
            return engine.shard_engine(shard_id)

        with ThreadPoolExecutor(max_workers=STRESS_WORKERS) as pool:
            engines = list(pool.map(lambda _: fetch(), range(STRESS_WORKERS)))
        assert all(built is engines[0] for built in engines)
        assert engine.counters_snapshot()["shard_engines_built"] == 1
        # The single build prepared the shard: one counted freeze.
        assert engines[0].counters_snapshot()["csr_freezes"] == 1

    def test_threaded_batch_prepares_each_touched_shard_once(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(
            two_component_paper_graph, SearchConfig(k1=4, k2=3, b=1)
        )
        queries = [
            Query(method, pair)
            for pair in (("ql", "qr"), ("b:s1", "b:u1"))
            for method in ("online-bcc", "lp-bcc", "online-bcc", "lp-bcc")
        ]
        responses = engine.search_many(queries, max_workers=STRESS_WORKERS)
        assert len(responses) == len(queries)
        assert engine.counters_snapshot()["shard_engines_built"] == 2
        for shard_id in engine.shards_built():
            shard_counters = engine.shard_engine(shard_id).counters_snapshot()
            assert shard_counters["csr_freezes"] == 1
            assert shard_counters["prepare_calls"] == 1


class TestRepartitionUnderContention:
    def test_mutation_repartitions_exactly_once_across_threads(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(
            two_component_paper_graph, SearchConfig(k1=4, k2=3, b=1)
        )
        engine.search(Query("online-bcc", ("ql", "qr")))
        assert engine.counters_snapshot()["partitions"] == 1

        # Mutate, then hammer the engine from many threads: every thread
        # observes the version change, exactly one re-partition runs.
        two_component_paper_graph.add_edge("v10", "b:s3")
        barrier = threading.Barrier(STRESS_WORKERS)

        def serve():
            barrier.wait()
            return engine.search(Query("online-bcc", ("ql", "qr")))

        with ThreadPoolExecutor(max_workers=STRESS_WORKERS) as pool:
            responses = list(pool.map(lambda _: serve(), range(STRESS_WORKERS)))
        assert all(r.status == responses[0].status for r in responses)
        assert engine.counters_snapshot()["partitions"] == 2
        assert engine.shard_count() == 1

    def test_concurrent_mixed_shard_traffic_with_result_cache(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(
            two_component_paper_graph, SearchConfig(k1=4, k2=3, b=1)
        )
        query_a = Query("online-bcc", ("ql", "qr"))
        query_b = Query("online-bcc", ("b:s1", "b:u1"))
        baseline_a = engine.search(query_a)
        baseline_b = engine.search(query_b)

        def serve(index):
            return engine.search(query_a if index % 2 else query_b)

        with ThreadPoolExecutor(max_workers=STRESS_WORKERS) as pool:
            responses = list(pool.map(serve, range(32)))
        for index, response in enumerate(responses):
            want = baseline_a if index % 2 else baseline_b
            assert response.status == want.status
            assert response.vertices == want.vertices
        stats = engine.stats()
        assert stats.cache["hits"] == 32
        assert stats.cache["misses"] == 2

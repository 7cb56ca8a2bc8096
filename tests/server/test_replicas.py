"""ReplicaSet: least-loaded routing, parity, merged stats."""

from __future__ import annotations

import itertools
import threading

import pytest

from repro.api import BCCEngine, Query, SearchConfig
from repro.api.engine import run_with_deadline
from repro.api.query import STATUS_ERROR, STATUS_OK
from repro.exceptions import DeadlineExceededError
from repro.graph.generators import random_labeled_graph
from repro.server import ReplicaSet
from repro.serving import GraphDirectory

CONFIG = SearchConfig(k1=4, k2=3)
OK_QUERY = Query("online-bcc", ("ql", "qr"))


def _spent_clock():
    """A clock that reads 0.0 once, then past any budget: a spent request."""
    readings = iter([0.0])
    return lambda: next(readings, 1e9)


@pytest.fixture
def replica_set(paper_graph):
    return ReplicaSet(paper_graph, CONFIG, replicas=3)


class TestConstruction:
    def test_needs_at_least_one_replica(self, paper_graph):
        with pytest.raises(ValueError):
            ReplicaSet(paper_graph, replicas=0)

    def test_accepts_bundles(self, tiny_baidu_bundle):
        replica_set = ReplicaSet(tiny_baidu_bundle, replicas=2)
        assert replica_set.graph is tiny_baidu_bundle.graph

    def test_replica_count_and_engines(self, replica_set):
        assert replica_set.replica_count() == 3
        engines = {id(replica_set.replica_engine(i)) for i in range(3)}
        assert len(engines) == 3  # distinct engines over one shared graph


class TestRouting:
    def test_single_threaded_traffic_prefers_replica_zero(self, replica_set):
        for _ in range(4):
            replica_set.search(OK_QUERY)
        stats = replica_set.stats()
        routed = [block["routed"] for block in stats.replicas]
        assert routed == [4, 0, 0]  # ties always break to the lowest id

    def test_least_loaded_skips_busy_replicas(self, replica_set):
        # Simulate replicas 0 and 1 being mid-query.
        assert replica_set._acquire() == 0
        assert replica_set._acquire() == 1
        assert replica_set._acquire() == 2
        # All equally busy again: back to the lowest id.
        assert replica_set._acquire() == 0
        replica_set._release(0)
        replica_set._release(0)
        replica_set._release(1)
        replica_set._release(2)
        assert replica_set.in_flight() == [0, 0, 0]

    def test_every_replica_answers_identically(self, paper_graph):
        replica_set = ReplicaSet(paper_graph, CONFIG, replicas=3)
        reference = BCCEngine(paper_graph, CONFIG).search(OK_QUERY)
        for replica_id in range(3):
            answer = replica_set.replica_engine(replica_id).search(OK_QUERY)
            assert answer.vertices == reference.vertices
            assert answer.iterations == reference.iterations

    def test_search_many_spreads_a_concurrent_batch(self, replica_set):
        rows = replica_set.search_many(
            [OK_QUERY] * 12, max_workers=4, use_cache=False
        )
        assert all(row.status == STATUS_OK for row in rows)
        stats = replica_set.stats()
        assert sum(block["routed"] for block in stats.replicas) == 12
        assert stats.counters["searches"] == 12

    def test_error_rows_keep_batch_semantics(self, replica_set):
        rows = replica_set.search_many(
            [OK_QUERY, Query("online-bcc", ("ql", "nope"))], on_error="return"
        )
        assert rows[0].status == STATUS_OK
        assert rows[1].status == STATUS_ERROR

    def test_failed_queries_are_not_counted_as_searches(self, replica_set):
        """Set-level 'searches' must reconcile with the summed per-replica
        engine counters: malformed queries are routed but never served."""
        replica_set.search_many(
            [OK_QUERY, Query("online-bcc", ("ql", "nope")), OK_QUERY],
            on_error="return",
        )
        stats = replica_set.stats()
        engine_total = sum(
            block["counters"]["searches"] for block in stats.replicas
        )
        assert stats.counters["searches"] == 2  # the two served rows
        assert stats.counters["searches"] == engine_total
        # Routing balance still accounts for every attempt.
        assert sum(block["routed"] for block in stats.replicas) == 3


class TestDeadlines:
    @pytest.mark.parametrize(
        "member_backend",
        ["thread", pytest.param("process", marks=pytest.mark.parallel)],
    )
    def test_spent_budget_is_not_a_replica_failure(self, member_backend):
        graph = random_labeled_graph(800, 0.04, ["A", "B"], seed=7)
        pairs = list(itertools.islice(graph.cross_edges(), 3))
        config = SearchConfig(deadline_ms=1.0)
        with ReplicaSet(
            graph, replicas=2, member_backend=member_backend
        ) as replica_set:
            for pair in pairs:
                query = Query("online-bcc", pair)
                with pytest.raises(DeadlineExceededError):
                    # The request's budget is spent, as a gateway request's
                    # can be; a process member's worker also enforces the
                    # config's 1 ms on its own.
                    run_with_deadline(
                        lambda: replica_set.search(
                            query, config=config, use_cache=False
                        ),
                        1.0,
                        clock=_spent_clock(),
                    )
            counters = replica_set.counters_snapshot()
            health = replica_set.health_summary()
            blocks = replica_set.stats().replicas
        assert counters["failovers"] == 0
        assert counters["replica_failures"] == 0
        assert counters["ejections"] == 0
        assert health["state"] == "ok"
        # A cancelled attempt is no latency sample either.
        assert [b["health"]["latency_ewma_seconds"] for b in blocks] == [None, None]


class TestExplain:
    def test_explain_routes_without_claiming_a_slot(self, replica_set):
        report = replica_set.explain(OK_QUERY)
        assert report["replicas"] == 3
        assert report["replica"] == 0
        assert report["engine"]["method"]["name"] == "online-bcc"
        assert replica_set.in_flight() == [0, 0, 0]


class TestStats:
    def test_merged_stats_sum_counters_and_latency(self, replica_set):
        for _ in range(5):
            replica_set.search(OK_QUERY)
        stats = replica_set.stats(name="hot")
        assert stats.kind == "replicated"
        assert stats.name == "hot"
        assert stats.counters["searches"] == 5
        assert stats.counters["replicas"] == 3
        # One miss then four cache hits, all on replica 0.
        assert stats.cache["hits"] == 4
        assert stats.cache["misses"] == 1
        per_replica_counters = [block["counters"] for block in stats.replicas]
        assert per_replica_counters[0]["searches"] == 5
        assert per_replica_counters[1]["searches"] == 0

    def test_stats_payload_is_json_serializable(self, replica_set):
        replica_set.search(OK_QUERY)
        import json

        document = json.loads(replica_set.stats().to_json())
        assert document["kind"] == "replicated"
        assert len(document["replicas"]) == 3
        assert "shards" not in document

    def test_sharded_replicas_compose(self, two_component_graph):
        replica_set = ReplicaSet(
            two_component_graph, CONFIG, replicas=2, sharded=True
        )
        response = replica_set.search(OK_QUERY)
        assert response.status == STATUS_OK
        stats = replica_set.stats()
        assert stats.replicas[0]["shards"] == 2
        assert stats.counters["searches"] == 1


class TestDirectoryIntegration:
    def test_add_with_replicas_hosts_a_replica_set(self, paper_graph):
        directory = GraphDirectory(sharded=False)
        engine = directory.add("paper", paper_graph, replicas=2, config=CONFIG)
        assert isinstance(engine, ReplicaSet)
        response = directory.serve("paper", OK_QUERY)
        assert response.status == STATUS_OK
        stats = directory.stats()["paper"]
        assert stats.kind == "replicated"
        assert len(stats.replicas) == 2

    def test_load_with_replicas(self):
        directory = GraphDirectory(sharded=False)
        engine = directory.load("baidu-tiny", seed=7, replicas=2)
        assert isinstance(engine, ReplicaSet)

    def test_replicas_must_be_positive(self, paper_graph):
        directory = GraphDirectory()
        with pytest.raises(ValueError):
            directory.add("paper", paper_graph, replicas=0)

    def test_serve_many_through_directory(self, paper_graph):
        directory = GraphDirectory(sharded=False)
        directory.add("paper", paper_graph, replicas=2, config=CONFIG)
        rows = directory.serve_many("paper", [OK_QUERY] * 4, max_workers=2)
        assert all(row.status == STATUS_OK for row in rows)


@pytest.fixture
def two_component_graph(paper_graph):
    """Figure 1 plus a disjoint triangle pair (for sharded replicas)."""
    for vertex in ("x:a1", "x:a2"):
        paper_graph.add_vertex(vertex, label="SE")
    for vertex in ("x:b1", "x:b2"):
        paper_graph.add_vertex(vertex, label="UI")
    paper_graph.add_edge("x:a1", "x:a2")
    paper_graph.add_edge("x:b1", "x:b2")
    for left in ("x:a1", "x:a2"):
        for right in ("x:b1", "x:b2"):
            paper_graph.add_edge(left, right)
    return paper_graph


@pytest.mark.concurrency
class TestConcurrentRouting:
    def test_concurrent_searches_balance_across_replicas(self, paper_graph):
        """Under real thread contention the in-flight gauge must spread
        queries over more than one replica (least-loaded routing at work).

        The paper graph serves in well under a millisecond, so queries
        from 8 threads would never overlap — the runner is slowed with a
        GIL-releasing sleep to force genuinely concurrent in-flight
        windows.
        """
        import time

        import repro.api.methods  # noqa: F401  (register built-ins first)
        from repro.api.registry import get_method

        spec = get_method("online-bcc")
        original_runner = spec.runner

        def slow_runner(engine, query, config, instrumentation):
            time.sleep(0.005)
            return original_runner(engine, query, config, instrumentation)

        object.__setattr__(spec, "runner", slow_runner)
        try:
            replica_set = ReplicaSet(paper_graph, CONFIG, replicas=4)
            barrier = threading.Barrier(8)

            def worker():
                barrier.wait(timeout=10.0)
                for _ in range(6):
                    replica_set.search(OK_QUERY, use_cache=False)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            object.__setattr__(spec, "runner", original_runner)
        stats = replica_set.stats()
        assert stats.counters["searches"] == 48
        routed = [block["routed"] for block in stats.replicas]
        assert sum(routed) == 48
        assert sum(1 for count in routed if count > 0) >= 2
        assert replica_set.in_flight() == [0, 0, 0, 0]

"""ServingStats and LatencyHistogram: the stats-endpoint payload."""

from __future__ import annotations

import dataclasses
import json
import threading

import pytest

from repro.api import BCCEngine, Query, SearchConfig
from repro.api.engine import ENGINE_COUNTER_NAMES
from repro.parallel import ProcessEngine
from repro.serving import (
    GraphDirectory,
    LatencyHistogram,
    ServingStats,
    ShardedBCCEngine,
)
from repro.serving.directory import _Served
from repro.serving.stats import aggregate_counters, zero_engine_counters

#: One in-shard pair, searched twice (a cache hit), and one cross-shard
#: pair of ``two_component_paper_graph``.
CONTRACT_QUERIES = [
    Query("online-bcc", ("ql", "qr")),
    Query("online-bcc", ("ql", "qr")),
    Query("lp-bcc", ("ql", "b:u1")),
]

#: Every host kind: ``add`` options, or ``None`` for a bare ProcessEngine.
HOSTS = [
    pytest.param({"sharded": False}, id="engine"),
    pytest.param({"sharded": True}, id="sharded"),
    pytest.param({"replicas": 2}, id="thread-replicas"),
    pytest.param({"replicas": 2, "sharded": True}, id="sharded-replicas"),
    pytest.param(
        {"replicas": 2, "member_backend": "process"},
        id="process-replicas",
        marks=pytest.mark.parallel,
    ),
    pytest.param(None, id="process-engine", marks=pytest.mark.parallel),
]


class TestLatencyHistogram:
    def test_empty_snapshot(self):
        snapshot = LatencyHistogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["mean_seconds"] is None
        assert snapshot["p95_seconds"] is None
        assert snapshot["buckets"][-1]["le"] == "inf"

    def test_observations_land_in_log_buckets(self):
        histogram = LatencyHistogram()
        for value in (0.00005, 0.002, 0.002, 0.2, 100.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 5
        assert snapshot["max_seconds"] == 100.0
        by_bound = {b["le"]: b["count"] for b in snapshot["buckets"]}
        assert by_bound[0.0001] == 1      # 50µs
        assert by_bound[0.00316] == 2     # the two 2ms observations
        assert by_bound[0.316] == 1       # 200ms
        assert by_bound["inf"] == 1       # 100s overflow
        assert sum(b["count"] for b in snapshot["buckets"]) == 5

    def test_quantiles_are_bucket_upper_bounds(self):
        histogram = LatencyHistogram()
        for _ in range(99):
            histogram.observe(0.002)  # bucket le=0.00316
        histogram.observe(0.5)  # bucket le=1.0
        snapshot = histogram.snapshot()
        assert snapshot["p50_seconds"] == 0.00316
        assert snapshot["p95_seconds"] == 0.00316
        assert snapshot["p99_seconds"] == 0.00316
        assert snapshot["max_seconds"] == 0.5

    def test_negative_and_overflow_observations_are_safe(self):
        histogram = LatencyHistogram()
        histogram.observe(-1.0)  # clamped to 0
        histogram.observe(1e9)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 2
        # Overflow quantile reports the observed max, not a fake bound.
        assert snapshot["p99_seconds"] == 1e9

    def test_thread_safe_observation(self):
        histogram = LatencyHistogram()

        def hammer():
            for _ in range(1000):
                histogram.observe(0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.snapshot()["count"] == 8000


class TestHelpers:
    def test_zero_engine_counters_mirror_the_engine(self, paper_graph):
        zeros = zero_engine_counters()
        assert set(zeros) == set(ENGINE_COUNTER_NAMES)
        assert set(zeros) == set(BCCEngine(paper_graph).counters_snapshot())
        assert all(value == 0 for value in zeros.values())

    def test_aggregate_counters_sums_keywise(self):
        total = aggregate_counters([{"a": 1, "b": 2}, {"a": 3, "c": 4}])
        assert total == {"a": 4, "b": 2, "c": 4}

    def test_engine_stats_shape(self, paper_graph):
        engine = BCCEngine(paper_graph).prepare()
        stats = engine.stats()
        assert stats.graph["vertices"] == paper_graph.num_vertices()
        assert stats.prepared is True and stats.index_built is False
        assert stats.counters["prepare_calls"] == 1
        assert stats.cache["capacity"] > 0


class TestServingStats:
    def test_monolithic_snapshot_is_json_serializable(self, paper_graph):
        engine = BCCEngine(paper_graph, SearchConfig(k1=4, k2=3)).prepare()
        engine.search(Query("online-bcc", ("ql", "qr")))
        engine.search(Query("online-bcc", ("ql", "qr")))
        stats = engine.stats(name="paper")
        document = json.loads(stats.to_json())
        assert document["name"] == "paper"
        assert document["kind"] == "monolithic"
        assert document["counters"]["searches"] == 2
        assert document["cache"]["hits"] == 1
        assert "shards" not in document

    def test_sharded_snapshot_aggregates_and_lists_shards(
        self, two_component_paper_graph
    ):
        engine = ShardedBCCEngine(
            two_component_paper_graph, SearchConfig(k1=4, k2=3, b=1)
        )
        query = Query("online-bcc", ("ql", "qr"))
        engine.search(query)
        engine.search(query)  # result-cache hit inside shard A
        engine.search(Query("online-bcc", ("ql", "b:u1")))  # cross-shard
        stats = engine.stats(name="two-components")

        document = json.loads(stats.to_json())
        assert document["kind"] == "sharded"
        assert document["graph"]["components"] == 2
        assert len(document["shards"]) == 2
        # Router counters: 3 served queries, 1 of them cross-shard.
        assert document["counters"]["searches"] == 3
        assert document["counters"]["cross_shard_queries"] == 1
        assert document["counters"]["partitions"] == 1
        # Aggregated cache: one hit, one miss across shards.
        assert document["cache"]["hits"] == 1
        assert document["cache"]["misses"] == 1
        assert document["cache"]["hit_rate"] == 0.5

    def test_shard_accessor_raises_for_unknown_shard(self, paper_graph):
        engine = ShardedBCCEngine(paper_graph)
        with pytest.raises(IndexError):
            engine.stats().shard(99)


class TestHostContract:
    """Every host reports its own stats; the directory passes them on."""

    @pytest.mark.parametrize("options", HOSTS)
    def test_directory_report_is_the_hosts_own(
        self, options, two_component_paper_graph
    ):
        config = SearchConfig(k1=4, k2=3, b=1)
        directory = GraphDirectory()
        if options is None:
            # add() builds every other kind; the directory serves any host.
            host = ProcessEngine(two_component_paper_graph, config, workers=1)
            directory._served["g"] = _Served(host, LatencyHistogram(), None)
        else:
            host = directory.add(
                "g", two_component_paper_graph, config=config, **options
            )
        try:
            for query in CONTRACT_QUERIES:
                directory.serve("g", query)
            directory.serve_many("g", CONTRACT_QUERIES)
            report = host.stats("g")
            assert isinstance(report, ServingStats)
            json.dumps(report.to_dict())
            assert host.counters_snapshot().items() <= report.counters.items()
            served = directory.stats()["g"]
            assert served.latency["count"] == len(CONTRACT_QUERIES) + 1
            assert dataclasses.replace(served, latency=report.latency) == report
        finally:
            directory.remove("g")

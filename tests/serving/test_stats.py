"""ServingStats and LatencyHistogram: the stats-endpoint payload."""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import BCCEngine, Query, SearchConfig
from repro.api.engine import ENGINE_COUNTER_NAMES
from repro.serving import LatencyHistogram, ServingStats, ShardedBCCEngine
from repro.serving.stats import (
    aggregate_counters,
    engine_payload,
    zero_engine_counters,
)


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

    def test_engine_payload_shape(self, paper_graph):
        engine = BCCEngine(paper_graph).prepare()
        payload = engine_payload(engine)
        assert payload["vertices"] == paper_graph.num_vertices()
        assert payload["prepared"] is True
        assert payload["counters"]["prepare_calls"] == 1
        assert payload["cache"]["capacity"] > 0


class TestServingStats:
    def test_monolithic_snapshot_is_json_serializable(self, paper_graph):
        engine = BCCEngine(paper_graph, SearchConfig(k1=4, k2=3)).prepare()
        engine.search(Query("online-bcc", ("ql", "qr")))
        engine.search(Query("online-bcc", ("ql", "qr")))
        stats = ServingStats.from_engine(engine, name="paper")
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

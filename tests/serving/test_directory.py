"""GraphDirectory: many named graphs served from one process."""

from __future__ import annotations

import json

import pytest

from repro.api import BCCEngine, Query, SearchConfig, STATUS_OK
from repro.datasets import load_dataset
from repro.exceptions import DatasetError, GraphNotFoundError
from repro.server.faults import FaultPlan
from repro.server.resilience import HealthPolicy
from repro.serving import GraphDirectory, ServingStats, ShardedBCCEngine


class TestHosting:
    def test_add_returns_sharded_engine_by_default(self, two_component_paper_graph):
        directory = GraphDirectory()
        engine = directory.add("paper", two_component_paper_graph)
        assert isinstance(engine, ShardedBCCEngine)
        assert directory.names() == ["paper"]
        assert "paper" in directory and len(directory) == 1
        assert directory.get("paper") is engine

    def test_add_monolithic_when_asked(self, paper_graph):
        directory = GraphDirectory(sharded=False)
        assert isinstance(directory.add("a", paper_graph), BCCEngine)
        # Per-graph override beats the directory default.
        assert isinstance(
            directory.add("b", paper_graph, sharded=True), ShardedBCCEngine
        )

    def test_add_accepts_bundle(self, tiny_baidu_bundle):
        directory = GraphDirectory()
        engine = directory.add("tiny", tiny_baidu_bundle)
        assert engine.graph is tiny_baidu_bundle.graph

    def test_readd_replaces_engine(self, paper_graph):
        directory = GraphDirectory()
        first = directory.add("g", paper_graph)
        second = directory.add("g", paper_graph)
        assert directory.get("g") is second is not first

    def test_rejects_bad_names(self, paper_graph):
        directory = GraphDirectory()
        with pytest.raises(ValueError):
            directory.add("", paper_graph)
        with pytest.raises(ValueError):
            directory.add(None, paper_graph)

    @pytest.mark.parametrize(
        "hosting, option, host",
        [
            ({"fault_plan": FaultPlan([])}, "fault_plan", "sharded engine"),
            ({"health_policy": HealthPolicy()}, "health_policy", "sharded engine"),
            (
                {"sharded": False, "health_policy": HealthPolicy()},
                "health_policy",
                "monolithic engine",
            ),
            ({"member_backend": "process"}, "member_backend", "sharded engine"),
            (
                {"sharded": False, "max_resident_shards": 2},
                "max_resident_shards",
                "monolithic engine",
            ),
            (
                {"replicas": 2, "max_resident_shards": 2},
                "max_resident_shards",
                "replica set",
            ),
        ],
        ids=[
            "sharded-fault_plan",
            "sharded-health_policy",
            "monolithic-health_policy",
            "sharded-member_backend",
            "monolithic-max_resident_shards",
            "replicated-max_resident_shards",
        ],
    )
    def test_add_rejects_options_the_host_would_drop(
        self, paper_graph, hosting, option, host
    ):
        directory = GraphDirectory()
        with pytest.raises(ValueError, match=f"{option} does not apply to a {host}"):
            directory.add("g", paper_graph, **hosting)
        assert "g" not in directory

    def test_get_and_remove_unknown_raise(self):
        directory = GraphDirectory()
        with pytest.raises(GraphNotFoundError) as excinfo:
            directory.get("nope")
        assert excinfo.value.name == "nope"
        with pytest.raises(GraphNotFoundError):
            directory.remove("nope")

    def test_remove_stops_serving(self, paper_graph):
        directory = GraphDirectory()
        directory.add("g", paper_graph)
        directory.remove("g")
        assert directory.names() == []
        with pytest.raises(GraphNotFoundError):
            directory.get("g")


class TestDatasetWiring:
    def test_load_serves_any_registered_dataset_by_name(self):
        directory = GraphDirectory()
        engine = directory.load("baidu-tiny", seed=7)
        assert directory.names() == ["baidu-tiny"]
        bundle = load_dataset("baidu-tiny", seed=7)
        response = directory.serve(
            "baidu-tiny", Query("lp-bcc", bundle.default_query())
        )
        assert response.status == STATUS_OK
        assert isinstance(engine, ShardedBCCEngine)

    def test_load_with_custom_name_and_generator_kwargs(self):
        directory = GraphDirectory()
        directory.load(
            "tiny", name="snap-small", seed=3, communities=3, community_size=8
        )
        assert directory.names() == ["snap-small"]

    def test_load_unknown_dataset_raises(self):
        with pytest.raises(DatasetError):
            GraphDirectory().load("no-such-network")


class TestServing:
    def test_serve_and_serve_many(self, two_component_paper_graph):
        directory = GraphDirectory(config=SearchConfig(k1=4, k2=3, b=1))
        directory.add("paper", two_component_paper_graph)
        response = directory.serve("paper", Query("online-bcc", ("ql", "qr")))
        assert response.status == STATUS_OK
        batch = directory.serve_many(
            "paper",
            [Query("online-bcc", ("ql", "qr")), Query("ctc", ("ql", "qr"))],
            max_workers=2,
        )
        assert len(batch) == 2

    def test_serve_unknown_graph_raises(self):
        with pytest.raises(GraphNotFoundError):
            GraphDirectory().serve("ghost-graph", Query("ctc", ("a",)))


class TestStats:
    def test_stats_per_graph_and_payload_is_json(self, two_component_paper_graph, paper_graph):
        directory = GraphDirectory(config=SearchConfig(k1=4, k2=3, b=1))
        directory.add("sharded-graph", two_component_paper_graph)
        directory.add("mono-graph", paper_graph, sharded=False)
        directory.serve("sharded-graph", Query("online-bcc", ("ql", "qr")))
        directory.serve("mono-graph", Query("online-bcc", ("ql", "qr")))

        stats = directory.stats()
        assert set(stats) == {"sharded-graph", "mono-graph"}
        assert all(isinstance(s, ServingStats) for s in stats.values())
        assert stats["sharded-graph"].kind == "sharded"
        assert stats["mono-graph"].kind == "monolithic"
        # Monolithic latency is recorded at the directory edge.
        assert stats["mono-graph"].latency["count"] == 1

        payload = directory.stats_payload()
        document = json.loads(json.dumps(payload))
        assert document["served_graphs"] == 2
        assert set(document["graphs"]) == {"sharded-graph", "mono-graph"}
        assert document["graphs"]["sharded-graph"]["counters"]["searches"] == 1

    @pytest.mark.parametrize(
        "hosting",
        [{"sharded": False}, {"sharded": True}, {"sharded": False, "replicas": 2}],
        ids=["monolithic", "sharded", "replicated"],
    )
    def test_latency_is_one_observation_per_serve_call(self, paper_graph, hosting):
        """Every kind of host reports the directory-edge histogram: a
        ``serve_many`` batch is one observation, not one per row."""
        directory = GraphDirectory(config=SearchConfig(k1=4, k2=3))
        directory.add("g", paper_graph, **hosting)
        query = Query("online-bcc", ("ql", "qr"))
        for _ in range(3):
            directory.serve("g", query)
        directory.serve_many("g", [query] * 4)
        assert directory.stats()["g"].latency["count"] == 4
        text = directory.observability.registry.render_prometheus()
        assert 'bcc_graph_latency_seconds_count{graph="g"} 4' in text.splitlines()

    def test_stats_payload_is_self_describing(self, paper_graph):
        import time

        from repro.serving.stats import STATS_SCHEMA_VERSION

        directory = GraphDirectory()
        directory.add("paper", paper_graph)
        first = directory.stats_payload()
        assert first["schema_version"] == STATS_SCHEMA_VERSION
        assert first["uptime_seconds"] >= 0.0
        time.sleep(0.01)
        second = directory.stats_payload()
        # Uptime dates the *process*: it advances between scrapes, so a
        # scraper can tell a restarted server from a quiet one.
        assert second["uptime_seconds"] > first["uptime_seconds"]
        assert directory.uptime_seconds() >= second["uptime_seconds"]

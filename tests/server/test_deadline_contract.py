"""One deadline contract: every entry point honours ``SearchConfig.deadline_ms``.

A bare ``search`` on :class:`BCCEngine`, :class:`ShardedBCCEngine` and a
:class:`ReplicaSet` runs under the deadline of the config it resolves, as
a ``search_many`` row, a worker task and a gateway request do.  Nested
hosts share the one budget of the call: a cold shard build or a failed
replica attempt spends it, and a failover retry never starts afresh.
"""

from __future__ import annotations

import time

import pytest

from repro.api import BCCEngine, Query, SearchConfig
from repro.datasets import load_dataset
from repro.eval.queries import QuerySpec, generate_query_pairs
from repro.exceptions import REASON_DEADLINE_EXCEEDED, DeadlineExceededError
from repro.graph.generators import paper_example_graph
from repro.server import FaultPlan, FaultRule, Gateway, GatewayClient, ReplicaSet
from repro.serving import GraphDirectory, ShardedBCCEngine

SERVED_METHODS = ("online-bcc", "lp-bcc", "l2p-bcc", "mbcc", "ctc", "psa")
QUERY = ("ql", "qr")
HOSTS = ("engine", "sharded", "replicas")
BUDGET = SearchConfig(deadline_ms=5.0)


def make_host(kind, graph, config=None, vertex=QUERY[0]):
    """A host of ``kind`` over ``graph`` and the BCC engines serving ``vertex``."""
    if kind == "engine":
        engine = BCCEngine(graph, config)
        return engine, [engine]
    if kind == "sharded":
        sharded = ShardedBCCEngine(graph, config)
        return sharded, [sharded.shard_engine(sharded.shard_of(vertex))]
    replica_set = ReplicaSet(graph, config, replicas=2)
    return replica_set, [
        replica_set.replica_engine(i) for i in range(replica_set.replica_count())
    ]


def plant_stall(engines):
    """Stall every ``engine.search`` for a minute on a recording fake sleep.

    Under a deadline the stall sleeps out only the budget left and raises
    :class:`DeadlineExceededError`; with none it "sleeps" in full and the
    search answers, so the outcome depends on the token alone.
    """
    slept = []
    plan = FaultPlan(
        [FaultRule("engine.search", kind="stall", delay_seconds=60.0)],
        sleep=slept.append,
    )
    for engine in engines:
        engine.fault_plan = plan
    return slept


def searches(host, engines):
    """Searches counted by the host and by the engines under it."""
    return host.counters_snapshot()["searches"], [
        engine.counters_snapshot()["searches"] for engine in engines
    ]


@pytest.fixture(scope="module")
def perfbench_pair():
    """The perfbench graph and one pair; a CTC search there takes 100+ ms."""
    bundle = load_dataset("dblp", seed=2021, communities=12, community_size=32)
    (pair,) = generate_query_pairs(bundle, QuerySpec(count=1), seed=1)
    return bundle, pair


class TestBareSearch:
    @pytest.mark.parametrize("method", SERVED_METHODS)
    @pytest.mark.parametrize("kind", HOSTS)
    def test_bare_search_raises_and_counts_nothing(self, kind, method):
        host, engines = make_host(kind, paper_example_graph())
        slept = plant_stall(engines)

        with pytest.raises(DeadlineExceededError) as excinfo:
            host.search(Query(method, QUERY), config=BUDGET, use_cache=False)

        assert excinfo.value.deadline_ms == pytest.approx(5.0)
        assert len(slept) == 1 and slept[0] <= 0.005
        assert searches(host, engines) == (0, [0] * len(engines))

    @pytest.mark.parametrize("tier", ["query", "base"])
    @pytest.mark.parametrize("kind", HOSTS)
    def test_every_config_tier_carries_the_budget(self, kind, tier):
        base = BUDGET if tier == "base" else None
        host, engines = make_host(kind, paper_example_graph(), base)
        slept = plant_stall(engines)
        query = Query("online-bcc", QUERY, config=None if base else BUDGET)

        with pytest.raises(DeadlineExceededError):
            host.search(query, use_cache=False)
        assert slept[0] <= 0.005

    @pytest.mark.parametrize("kind", HOSTS)
    def test_a_call_config_without_a_budget_clears_the_base_one(self, kind):
        host, engines = make_host(kind, paper_example_graph(), BUDGET)
        slept = plant_stall(engines)

        response = host.search(
            Query("online-bcc", QUERY), config=SearchConfig(), use_cache=False
        )
        assert response.status == "ok"
        assert slept == [60.0]

    @pytest.mark.parametrize("kind", HOSTS)
    def test_ctc_stops_in_its_kernel(self, kind, perfbench_pair):
        bundle, pair = perfbench_pair
        host, engines = make_host(kind, bundle.graph, vertex=pair[0])

        with pytest.raises(DeadlineExceededError):
            host.search(Query("ctc", pair), config=BUDGET, use_cache=False)

        # No search was counted: a checkpoint stopped the kernel, rather
        # than a late answer failing the post-check.
        assert searches(host, engines) == (0, [0] * len(engines))


class TestOtherEntryPoints:
    @pytest.mark.parallel
    def test_process_batch_row(self, perfbench_pair):
        bundle, pair = perfbench_pair
        engine = BCCEngine(bundle)
        try:
            (row,) = engine.search_many(
                [Query("ctc", pair)],
                config=BUDGET,
                on_error="return",
                use_cache=False,
                backend="process",
            )
            counters = engine.process_pool_stats()["counters"]
        finally:
            engine.close_process_pool()
        assert row.reason == REASON_DEADLINE_EXCEEDED
        # The worker's engine stopped the search; the watchdog never fired.
        assert counters["deadline_kills"] == 0

    @pytest.mark.parallel
    def test_process_replica_member(self, perfbench_pair):
        bundle, pair = perfbench_pair
        with ReplicaSet(bundle, replicas=2, member_backend="process") as replica_set:
            with pytest.raises(DeadlineExceededError):
                replica_set.search(Query("ctc", pair), config=BUDGET, use_cache=False)
            counters = replica_set.counters_snapshot()
        assert counters["searches"] == 0
        assert counters["replica_failures"] == 0

    def test_gateway_answers_504(self, perfbench_pair):
        bundle, pair = perfbench_pair
        directory = GraphDirectory()
        directory.add("g", bundle)
        with Gateway(directory, port=0) as gateway:
            client = GatewayClient(gateway.url, timeout_seconds=10.0)
            with pytest.raises(DeadlineExceededError):
                client.search("g", Query("ctc", pair), config=BUDGET, use_cache=False)
            assert gateway.counters_snapshot()["deadline_exceeded"] == 1


def call(host, entry, query, config):
    """A bare ``search`` or a one-row ``search_many`` that raises its row's error."""
    if entry == "search":
        return host.search(query, config=config, use_cache=False)
    return host.search_many([query], config=config, use_cache=False)[0]


@pytest.mark.chaos
class TestOneBudgetPerCall:
    @pytest.mark.parametrize("entry", ["search", "search_many"])
    def test_failover_runs_on_what_is_left(self, entry):
        # Replica 0 fails after 0.2 s, replica 1 stalls 0.25 s: under one
        # 300 ms budget the failover gets the last 0.1 s and expires there.
        plan = FaultPlan(
            [
                FaultRule("replica.search", where={"replica": 0}, delay_seconds=0.2),
                FaultRule(
                    "replica.search",
                    kind="stall",
                    where={"replica": 1},
                    delay_seconds=0.25,
                ),
            ]
        )
        replica_set = ReplicaSet(paper_example_graph(), replicas=2, fault_plan=plan)
        start = time.monotonic()

        with pytest.raises(DeadlineExceededError):
            call(
                replica_set,
                entry,
                Query("online-bcc", QUERY),
                SearchConfig(deadline_ms=300.0),
            )

        elapsed = time.monotonic() - start
        # A fresh budget per attempt would answer after 0.45 s.
        assert 0.29 <= elapsed < 0.44
        failures = [
            replica_set.replica_health(i).snapshot()["failures"] for i in (0, 1)
        ]
        assert failures == [1, 0]
        assert replica_set.counters_snapshot()["failovers"] == 1

    @pytest.mark.parametrize("entry", ["search", "search_many"])
    def test_a_cold_shard_build_spends_the_budget(self, entry, monkeypatch):
        prepare = BCCEngine.prepare

        def slow_prepare(engine):
            time.sleep(0.06)
            return prepare(engine)

        monkeypatch.setattr(BCCEngine, "prepare", slow_prepare)
        sharded = ShardedBCCEngine(paper_example_graph())

        with pytest.raises(DeadlineExceededError):
            call(sharded, entry, Query("lp-bcc", QUERY), SearchConfig(deadline_ms=20.0))
        assert sharded.counters_snapshot()["shard_engines_built"] == 1
        assert sharded.counters_snapshot()["searches"] == 0

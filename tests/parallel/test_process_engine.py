"""Process backend behind the serving seams: engine, sharded, replicas.

``test_pool.py`` proves the transport; this file proves the integration
contracts: ``backend="process"`` is invisible in answers (value-for-value
parity with the threaded path), a batch that names no backend never
starts a worker, unavailability degrades with one warning and a
counter — never an error — and process-backed replica members live and
die inside the replica health lifecycle.
"""

from __future__ import annotations

import gc
import os
import signal
import sys
import warnings

import pytest

import repro.api.engine as engine_mod
from repro.api import BCCEngine, Query, SearchConfig
from repro.datasets import load_dataset
from repro.eval.queries import QuerySpec, generate_query_pairs
from repro.deadline import reset_deadline, set_deadline
from repro.exceptions import DeadlineExceededError, QueryError, WorkerCrashedError
from repro.graph.generators import paper_example_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.parallel import ProcessEngine
from repro.serving import GraphDirectory, ShardedBCCEngine
from repro.server import Gateway, GatewayClient
from repro.server.replicas import ReplicaSet
from repro.server.protocol import encode_config, encode_response

from tests.api.test_deadline import FakeClock
from tests.serving.conftest import random_multi_component_graph

pytestmark = pytest.mark.parallel

#: Under it the Fig. 1 example answers ``(ql, qr)`` with a community
#: holding ``u1``; without ``u1`` it has none.
PAPER_CONFIG = SearchConfig(k1=4, k2=3)


def cross_pairs(graph, limit):
    pairs = []
    for u, v in graph.cross_edges():
        pairs.append((u, v))
        if len(pairs) >= limit:
            break
    return pairs


@pytest.fixture(scope="module")
def perfbench_bundle():
    """perfbench's baseline graph: dblp, seed 2021, 12 x 32, 4,289 edges."""
    bundle = load_dataset("dblp", seed=2021, communities=12, community_size=32)
    assert bundle.graph.num_edges() == 4289
    return bundle


def perfbench_queries(bundle):
    pairs = generate_query_pairs(bundle, QuerySpec(count=4), seed=2021)
    return [Query("lp-bcc", pair) for pair in pairs]


def canonical(response):
    payload = encode_response(response)
    payload.pop("timings")
    return payload


def relabelled(graph, vertex=lambda v: v, label=lambda l: l):
    """A copy of ``graph`` with its vertices and labels mapped."""
    copy = LabeledGraph()
    for v in graph.vertices():
        copy.add_vertex(vertex(v), label=label(graph.label(v)))
    for u, v in graph.edges():
        copy.add_edge(vertex(u), vertex(v))
    return copy


@pytest.fixture()
def fresh_fallback_state(monkeypatch):
    """Reset the one-time-warning latch and the shm availability cache."""
    import repro.parallel.shm as shm

    monkeypatch.setattr(engine_mod, "_PROCESS_FALLBACK_WARNED", False)
    monkeypatch.setattr(shm, "_AVAILABLE", None)
    yield shm
    shm._AVAILABLE = None  # force a clean re-probe for later tests


# ----------------------------------------------------------------------
# ProcessEngine: the ServingEngine-shaped wrapper
# ----------------------------------------------------------------------
class TestProcessEngine:
    def test_search_and_explain_parity(self, pair_graph):
        reference = BCCEngine(pair_graph).prepare()
        pairs = cross_pairs(pair_graph, 3)
        with ProcessEngine(pair_graph, workers=1) as engine:
            assert engine.prepare() is engine
            assert engine.is_prepared()
            for pair in pairs:
                query = Query("online-bcc", pair)
                assert canonical(engine.search(query)) == canonical(
                    reference.search(query)
                )
            info = engine.explain(Query("online-bcc", pairs[0]))
            want = reference.explain(Query("online-bcc", pairs[0]))
            assert info["method"]["name"] == want["method"]["name"]

    def test_search_many_matches_serve_batch_semantics(self, pair_graph):
        reference = BCCEngine(pair_graph).prepare()
        pair = cross_pairs(pair_graph, 1)[0]
        queries = [
            Query("online-bcc", pair),
            Query("online-bcc", ("ghost", pair[1])),
            Query("no-such-method", pair),
        ]
        expected = reference.search_many(queries, on_error="return")
        with ProcessEngine(pair_graph, workers=2) as engine:
            got = engine.search_many(queries, on_error="return")
            assert [canonical(r) for r in got] == [
                canonical(r) for r in expected
            ]
            with pytest.raises(QueryError):
                engine.search_many(queries, on_error="sideways")
            with pytest.raises(QueryError):
                engine.search_many(queries, max_workers=0)

    def test_follows_graph_mutation(self):
        # The engine exports its own graph, so a mutation rebuilds its pool.
        graph = paper_example_graph()
        query = Query("online-bcc", ("ql", "qr"))
        with ProcessEngine(graph, PAPER_CONFIG, workers=1) as engine:
            assert "u1" in engine.search(query).vertices
            graph.remove_vertex("u1")
            expected = BCCEngine(graph, PAPER_CONFIG).search(query)
            assert expected.status == "empty"
            assert canonical(engine.search(query)) == canonical(expected)

    def test_counters_aggregate_across_workers(self, pair_graph):
        pairs = cross_pairs(pair_graph, 4)
        with ProcessEngine(pair_graph, workers=2) as engine:
            engine.search_many(
                [Query("online-bcc", p) for p in pairs], on_error="return"
            )
            counters = engine.counters_snapshot()
            assert counters["searches"] >= len(pairs)
            cache = engine.result_cache_info()
            assert set(cache) >= {"hits", "misses", "hit_rate", "capacity"}
            assert len(engine.worker_pids()) == 2

    def test_search_spends_no_more_than_the_outer_budget(
        self, pair_graph, monkeypatch
    ):
        # A token does not cross the pipe, so the row carries the budget:
        # never more than the caller has left on the outer deadline.
        import repro.parallel.pool as pool_mod

        encoded = []

        def recording(config):
            encoded.append(config)
            return encode_config(config)

        monkeypatch.setattr(pool_mod, "encode_config", recording)
        clock = FakeClock()
        query = Query("online-bcc", cross_pairs(pair_graph, 1)[0])
        base = SearchConfig(deadline_ms=5000.0)
        with ProcessEngine(pair_graph, base, workers=1) as engine:
            token = set_deadline(0.25, clock(), clock)
            try:
                clock.now += 0.05
                engine.search(query)
                engine.search(query, config=SearchConfig(deadline_ms=100.0))
                clock.now += 0.2
                with pytest.raises(DeadlineExceededError):
                    engine.search(query)
            finally:
                reset_deadline(token)
            engine.search(query)
        rows = [None if c is None else c.deadline_ms for c in encoded[-3:]]
        assert rows == [pytest.approx(200.0), 100.0, None]


# ----------------------------------------------------------------------
# BCCEngine.search_many(backend="process")
# ----------------------------------------------------------------------
class TestEngineBackend:
    def test_explicit_process_backend_parity_and_counters(self, pair_graph):
        engine = BCCEngine(pair_graph)
        pair = cross_pairs(pair_graph, 1)[0]
        queries = [
            Query("online-bcc", p) for p in cross_pairs(pair_graph, 4)
        ] + [Query("no-such-method", pair)]
        expected = engine.search_many(queries, on_error="return")
        got = engine.search_many(
            queries, on_error="return", backend="process", max_workers=2
        )
        try:
            assert [canonical(r) for r in got] == [
                canonical(r) for r in expected
            ]
            counters = engine.counters_snapshot()
            assert counters["process_batches"] == 1
            assert counters["process_tasks"] == len(queries)
            assert counters["process_fallbacks"] == 0
            stats = engine.process_pool_stats()
            assert stats is not None and stats["size"] == 2
        finally:
            engine.close_process_pool()
        assert engine.process_pool_stats() is None
        # The pool respawns lazily on the next process batch.
        again = engine.search_many(
            queries[:2], on_error="return", backend="process"
        )
        try:
            assert [canonical(r) for r in again] == [
                canonical(r) for r in expected[:2]
            ]
        finally:
            engine.close_process_pool()

    def test_default_transport_is_threads_on_the_perfbench_graph(
        self, perfbench_bundle
    ):
        # A multi-row, multi-worker batch that names no backend stays on
        # threads and never pays a pool spawn (or a fallback).
        engine = BCCEngine(perfbench_bundle)
        queries = perfbench_queries(perfbench_bundle)
        try:
            rows = engine.search_many(queries, max_workers=4)
            assert len(rows) == len(queries)
            counters = engine.counters_snapshot()
            assert counters["process_batches"] == 0
            assert counters["process_fallbacks"] == 0
            assert engine.process_pool_stats() is None
        finally:
            engine.close_process_pool()

    def test_no_gateway_request_reaches_worker_processes(self, perfbench_bundle):
        # The wire carries no transport: an HTTP batch is served on threads.
        directory = GraphDirectory(sharded=False)
        directory.add("dblp", perfbench_bundle)
        engine = directory.get("dblp")
        queries = perfbench_queries(perfbench_bundle)
        try:
            with Gateway(directory, port=0) as gateway:
                client = GatewayClient(gateway.url, timeout_seconds=30.0)
                rows = client.search_many("dblp", queries, max_workers=2)
            assert len(rows) == len(queries)
            assert engine.counters_snapshot()["process_batches"] == 0
            assert engine.process_pool_stats() is None
        finally:
            engine.close_process_pool()

    def test_unavailable_substrate_falls_back_with_one_warning(
        self, pair_graph, fresh_fallback_state
    ):
        shm = fresh_fallback_state

        def broken():
            from repro.parallel.shm import ProcessBackendUnavailable

            raise ProcessBackendUnavailable("forced by test")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shm, "_probe_shared_memory", broken)
            engine = BCCEngine(pair_graph)
            queries = [
                Query("online-bcc", p) for p in cross_pairs(pair_graph, 3)
            ]
            expected = engine.search_many(queries, on_error="return")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                first = engine.search_many(
                    queries, on_error="return", backend="process"
                )
                second = engine.search_many(
                    queries, on_error="return", backend="process"
                )
            runtime = [
                w for w in caught if issubclass(w.category, RuntimeWarning)
            ]
            assert len(runtime) == 1  # warned once, not per batch
            assert "process backend unavailable" in str(runtime[0].message)
            for got in (first, second):
                assert [canonical(r) for r in got] == [
                    canonical(r) for r in expected
                ]
            assert engine.counters_snapshot()["process_fallbacks"] == 2
            assert engine.process_pool_stats() is None

    def test_unexportable_vertex_falls_back_to_threads(
        self, pair_graph, fresh_fallback_state
    ):
        # A snapshot holds only str and int vertices, so a tuple vertex
        # fails the export and the batch is served on threads instead.
        graph = relabelled(pair_graph, vertex=lambda v: (v,))
        queries = [
            Query("online-bcc", ((u,), (v,))) for u, v in cross_pairs(pair_graph, 3)
        ]
        engine = BCCEngine(graph)
        expected = engine.search_many(queries, on_error="return")
        assert any(r.status == "ok" for r in expected)
        with pytest.warns(RuntimeWarning, match="process backend unavailable"):
            got = engine.search_many(queries, on_error="return", backend="process")
        assert [(r.status, r.vertices) for r in got] == [
            (r.status, r.vertices) for r in expected
        ]
        counters = engine.counters_snapshot()
        assert counters["process_fallbacks"] == 1
        assert counters["process_batches"] == 0
        assert engine.process_pool_stats() is None

    def test_none_labelled_group_serves_on_processes(self, pair_graph):
        # A snapshot header holds a None label, so this graph exports.
        graph = relabelled(pair_graph, label=lambda l: None if l == "A" else l)
        assert None in graph.labels()
        queries = [Query("online-bcc", p) for p in cross_pairs(graph, 3)]
        engine = BCCEngine(graph)
        expected = engine.search_many(queries, on_error="return")
        assert any(r.status == "ok" for r in expected)
        got = engine.search_many(queries, on_error="return", backend="process")
        try:
            assert [canonical(r) for r in got] == [canonical(r) for r in expected]
            counters = engine.counters_snapshot()
            assert counters["process_batches"] == 1
            assert counters["process_fallbacks"] == 0
        finally:
            engine.close_process_pool()


# ----------------------------------------------------------------------
# ShardedBCCEngine: shard-pinned workers
# ----------------------------------------------------------------------
class TestShardedBackend:
    def test_process_parity_including_cross_shard_rows(self):
        graph, parts = random_multi_component_graph(90125, num_components=3)
        sharded = ShardedBCCEngine(graph)
        same_shard = cross_pairs(graph, 4)
        queries = [Query("online-bcc", p) for p in same_shard]
        # Cross-component row: answered parent-side, never dispatched.
        queries.append(Query("online-bcc", (parts[0][0], parts[1][0])))
        queries.append(Query("no-such-method", same_shard[0]))
        expected = sharded.search_many(queries, on_error="return")
        got = sharded.search_many(
            queries, on_error="return", backend="process", max_workers=2
        )
        try:
            assert [canonical(r) for r in got] == [
                canonical(r) for r in expected
            ]
            counters = sharded.counters_snapshot()
            assert counters["process_batches"] == 1
            # The cross-shard and unknown-method rows never went remote.
            assert counters["process_tasks"] == len(same_shard)
            stats = sharded.stats()
            assert stats.workers is not None
            assert "workers" in stats.to_dict()
        finally:
            sharded.close_process_pool()
        assert sharded.stats().workers is None

    def test_both_transports_record_every_served_row(self):
        graph, _ = random_multi_component_graph(90125, num_components=3)
        queries = [Query("lp-bcc", p) for p in cross_pairs(graph, 6)]
        seen = {}
        for backend in ("thread", "process"):
            sharded = ShardedBCCEngine(graph)
            try:
                sharded.search_many(
                    queries, backend=backend, max_workers=2, use_cache=False
                )
                seen[backend] = sharded.counters_snapshot()["searches"]
            finally:
                sharded.close_process_pool()
        assert seen["process"] == seen["thread"] == len(queries)


@pytest.mark.parametrize("engine_type", [BCCEngine, ShardedBCCEngine])
def test_process_batches_follow_graph_mutation(engine_type):
    # The mutation empties the engine's process slot, and the pool, keyed
    # on the graph version, is rebuilt on the next batch's export.
    graph = paper_example_graph()
    queries = [Query("online-bcc", ("ql", "qr"))]
    engine = engine_type(graph, PAPER_CONFIG)
    try:
        assert "u1" in engine.search_many(queries, backend="process")[0].vertices
        graph.remove_vertex("u1")
        expected = BCCEngine(graph, PAPER_CONFIG).search(queries[0])
        assert expected.status == "empty"
        got = engine.search_many(queries, backend="process")
        assert [canonical(r) for r in got] == [canonical(expected)]
        counters = engine.counters_snapshot()
        assert counters["process_batches"] == 2
        assert counters["process_fallbacks"] == 0
    finally:
        engine.close_process_pool()


# ----------------------------------------------------------------------
# ReplicaSet: process-backed members
# ----------------------------------------------------------------------
class TestReplicaProcessMembers:
    def test_members_share_one_export_and_answer_identically(
        self, pair_graph
    ):
        reference = BCCEngine(pair_graph).prepare()
        pairs = cross_pairs(pair_graph, 4)
        with ReplicaSet(
            pair_graph, replicas=2, member_backend="process"
        ) as replica_set:
            assert replica_set.member_backend == "process"
            for pair in pairs:
                query = Query("online-bcc", pair)
                assert canonical(replica_set.search(query)) == canonical(
                    reference.search(query)
                )
            stats = replica_set.stats().to_dict()
            blocks = stats["replicas"]
            assert len(blocks) == 2
            for block in blocks:
                assert "workers" in block
                assert block["health"]["state"] == "ok"
        # close() is idempotent.
        replica_set.close()

    def test_members_follow_graph_mutation(self, monkeypatch):
        graph = paper_example_graph()
        query = Query("online-bcc", ("ql", "qr"))
        with ReplicaSet(
            graph, PAPER_CONFIG, replicas=1, member_backend="process"
        ) as replica_set:
            stale_member = replica_set.replica_engine(0)
            assert "u1" in replica_set.search(query).vertices
            builds = []
            build = replica_set._build_members
            monkeypatch.setattr(
                replica_set,
                "_build_members",
                lambda replicas: builds.append(replicas) or build(replicas),
            )
            graph.remove_vertex("u1")
            expected = canonical(BCCEngine(graph, PAPER_CONFIG).search(query))
            assert expected["status"] == "empty"
            # After each mutation more threads than cores race to notice it.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for round_ in range(4):
                    if round_:  # an isolated vertex leaves the answer alone
                        graph.add_vertex(f"isolated-{round_}", "SE")
                    rows = replica_set.search_many(
                        [query] * 8, max_workers=8, use_cache=False
                    )
                    assert [canonical(r) for r in rows] == [expected] * 8
            finally:
                sys.setswitchinterval(interval)
            assert builds == [1] * 4  # one rebuild per mutation
            assert replica_set.counters_snapshot()["replica_failures"] == 0
            with pytest.raises(RuntimeError):
                stale_member.search(query)

    def test_worker_crashed_is_a_replica_failure_that_fails_over(
        self, pair_graph
    ):
        pair = cross_pairs(pair_graph, 1)[0]
        query = Query("online-bcc", pair)
        with ReplicaSet(
            pair_graph, replicas=2, member_backend="process"
        ) as replica_set:
            expected = canonical(replica_set.search(query))
            victim = replica_set.replica_engine(0)
            real_search = victim.search
            fired = {"n": 0}

            def crash_once(*args, **kwargs):
                if fired["n"] == 0:
                    fired["n"] += 1
                    raise WorkerCrashedError(worker=0, pid=12345)
                return real_search(*args, **kwargs)

            victim.search = crash_once
            try:
                # Replica 0 is least-loaded and claims the query; the
                # crash is a non-caller error, so the set fails over.
                response = replica_set.search(query, use_cache=False)
            finally:
                victim.search = real_search
            assert fired["n"] == 1
            assert canonical(response) == expected
            counters = replica_set.counters_snapshot()
            assert counters["failovers"] >= 1
            assert counters["replica_failures"] >= 1
            assert (
                replica_set.replica_health(0).snapshot()[
                    "consecutive_failures"
                ]
                >= 1
            )

    @pytest.mark.chaos
    def test_killed_member_process_respawns_transparently(self, pair_graph):
        pair = cross_pairs(pair_graph, 1)[0]
        query = Query("online-bcc", pair)
        with ReplicaSet(
            pair_graph, replicas=2, member_backend="process"
        ) as replica_set:
            expected = canonical(replica_set.search(query))
            victim = replica_set.replica_engine(0)
            victim.prepare()
            os.kill(victim.worker_pids()[0], signal.SIGKILL)
            # An idle-killed worker is detected at the next send (broken
            # pipe), respawned, and the task retried: the caller sees a
            # correct answer, not an error.
            for _ in range(4):
                got = replica_set.search(query, use_cache=False)
                assert canonical(got) == expected
            counters = victim.worker_stats()["counters"]
            assert counters["crashes"] >= 1
            assert counters["respawns"] >= 1


# ----------------------------------------------------------------------
# GraphDirectory wiring
# ----------------------------------------------------------------------
class TestDirectory:
    def test_add_process_replicas_and_remove_closes_them(self, pair_graph):
        directory = GraphDirectory()
        engine = directory.add(
            "demo", pair_graph, replicas=2, member_backend="process"
        )
        assert isinstance(engine, ReplicaSet)
        assert engine.member_backend == "process"
        pair = cross_pairs(pair_graph, 1)[0]
        response = directory.get("demo").search(Query("online-bcc", pair))
        assert response.status in ("ok", "empty")
        directory.remove("demo")
        assert "demo" not in directory
        # remove() closed the members: their pools refuse new batches.
        with pytest.raises(RuntimeError):
            engine.replica_engine(0).search(Query("online-bcc", pair))

    def test_replaced_engine_unlinks_its_export(self, pair_graph):
        from multiprocessing import shared_memory

        directory = GraphDirectory()
        engine = directory.add("demo", pair_graph)
        queries = [Query("online-bcc", p) for p in cross_pairs(pair_graph, 2)]
        directory.serve_many("demo", queries, backend="process", max_workers=2)
        pool = engine._process._engine._current_pool()
        name = pool.handle.name
        del engine, pool
        # Re-adding swaps the engine without closing it (requests may
        # still be in flight); dropping the last reference unlinks.
        directory.add("demo", pair_graph)
        gc.collect()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

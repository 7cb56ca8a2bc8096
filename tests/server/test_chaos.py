"""Chaos suite: seeded fault plans driving the fault-tolerant serving path.

Everything here is deterministic — injection schedules are seeded and
counted, breaker clocks are fake, retry sleeps are recorded instead of
slept — so ejection, re-admission, failover, deadlines and degraded mode
are asserted exactly, with no wall-clock races.

Run standalone with ``pytest -m chaos``.
"""

from __future__ import annotations

import http.client
import threading
import time

import pytest

from repro.api import BCCEngine, Query, SearchConfig
from repro.exceptions import (
    REASON_DEADLINE_EXCEEDED,
    AllReplicasEjectedError,
    VertexNotFoundError,
)
from repro.graph.generators import paper_example_graph
from repro.server import (
    FaultPlan,
    FaultRule,
    Gateway,
    GatewayClient,
    GatewayError,
    GatewayUnavailableError,
    InjectedFault,
    HealthPolicy,
    ReplicaSet,
    RetryPolicy,
)
from repro.server.resilience import HEALTH_DOWN, HEALTH_OK
from repro.serving import GraphDirectory

pytestmark = pytest.mark.chaos

#: A deterministic query trace over the Figure 1 graph: found communities,
#: empty answers, and repeats (cache-friendly), in a fixed order.
TRACE = [
    Query("lp-bcc", ("ql", "qr")),
    Query("lp-bcc", ("ql", "u1")),
    Query("lp-bcc", ("ql", "z1")),
    Query("lp-bcc", ("qr", "v1")),
    Query("lp-bcc", ("ql", "qr")),
    Query("lp-bcc", ("u1", "v1")),
    Query("lp-bcc", ("ql", "u2")),
    Query("lp-bcc", ("z1", "u5")),
    Query("lp-bcc", ("ql", "qr")),
    Query("lp-bcc", ("qr", "z2")),
]

CONFIG = SearchConfig(k1=4, k2=3)


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def fault_free_answers():
    engine = BCCEngine(paper_example_graph(), CONFIG)
    return [engine.search(query) for query in TRACE]


class TestReplicaFailureCycle:
    """The acceptance scenario: 1-of-4 replicas fails, is ejected, probes
    back in, and the whole trace answers with exact fault-free parity."""

    def test_ejection_readmission_and_parity(self):
        clock = FakeClock()
        # Replica 0 (the tie-break favorite, so it actually gets traffic)
        # fails its first 3 dispatches, then recovers.
        plan = FaultPlan(
            [FaultRule("replica.search", where={"replica": 0}, count=3)]
        )
        replica_set = ReplicaSet(
            paper_example_graph(),
            CONFIG,
            replicas=4,
            health_policy=HealthPolicy(failure_threshold=3, ejection_seconds=30.0),
            fault_plan=plan,
            clock=clock,
        )
        expected = fault_free_answers()

        answers = []
        for index, query in enumerate(TRACE):
            if index == 6:
                # Past the ejection window: the next acquisition of replica
                # 0 is its probe, which succeeds (the fault budget is spent)
                # and re-admits it.
                clock.advance(31.0)
            answers.append(replica_set.search(query))

        # Zero failed rows: every fault was absorbed by failover.
        for got, want in zip(answers, expected):
            assert got.status == want.status
            assert got.vertices == want.vertices
            assert got.reason == want.reason

        health = replica_set.replica_health(0).snapshot()
        assert health["failures"] == 3
        assert health["ejections"] == 1
        assert health["readmissions"] == 1
        assert health["state"] == HEALTH_OK

        counters = replica_set.counters_snapshot()
        assert counters["failovers"] == 3
        assert counters["replica_failures"] == 3
        assert counters["ejections"] == 1
        assert counters["readmissions"] == 1
        assert counters["searches"] == len(TRACE)

        # The plan spent exactly its budget, nothing leaked.
        assert plan.injected() == 3
        assert replica_set.in_flight() == [0, 0, 0, 0]
        assert replica_set.health_summary()["state"] == "ok"

    def test_all_replicas_ejected_raises_instead_of_hanging(self):
        clock = FakeClock()
        plan = FaultPlan([FaultRule("replica.search")])  # every dispatch
        replica_set = ReplicaSet(
            paper_example_graph(),
            CONFIG,
            replicas=2,
            health_policy=HealthPolicy(failure_threshold=1, ejection_seconds=60.0),
            fault_plan=plan,
            clock=clock,
        )
        # First query burns through both replicas; its own error surfaces.
        with pytest.raises(InjectedFault):
            replica_set.search(TRACE[0])
        summary = replica_set.health_summary()
        assert summary["state"] == "down"
        assert summary["available"] == 0
        assert summary["states"] == [HEALTH_DOWN, HEALTH_DOWN]
        # Further queries fail fast with the set-level error.
        with pytest.raises(AllReplicasEjectedError):
            replica_set.search(TRACE[1])
        assert replica_set.in_flight() == [0, 0]

    def test_caller_errors_never_penalize_replicas(self):
        plan = FaultPlan()  # inert
        replica_set = ReplicaSet(
            paper_example_graph(), CONFIG, replicas=2, fault_plan=plan
        )
        for _ in range(10):
            with pytest.raises(VertexNotFoundError):
                replica_set.search(Query("lp-bcc", ("ql", "nope")))
        assert replica_set.health_summary()["state"] == "ok"
        assert replica_set.counters_snapshot()["replica_failures"] == 0
        assert replica_set.in_flight() == [0, 0]


class TestInFlightAccounting:
    """Satellite regression: the in-flight gauge survives failing replicas."""

    def test_gauge_never_negative_and_returns_to_zero_after_failures(self):
        plan = FaultPlan(
            [FaultRule("replica.search", where={"replica": 0}, count=50)]
        )
        replica_set = ReplicaSet(
            paper_example_graph(),
            CONFIG,
            replicas=3,
            health_policy=HealthPolicy(failure_threshold=10_000),  # never eject
            fault_plan=plan,
        )
        errors = []

        def worker():
            for _ in range(10):
                try:
                    replica_set.search(TRACE[0], use_cache=False)
                except Exception as exc:  # pragma: no cover - defensive
                    errors.append(exc)
                gauge = replica_set.in_flight()
                assert all(value >= 0 for value in gauge), gauge

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors  # every fault failed over to a healthy replica
        assert replica_set.in_flight() == [0, 0, 0]
        # Routing still works and still balances after the failure storm.
        stats = replica_set.stats()
        routed = [block["routed"] for block in stats.replicas]
        assert sum(routed) >= 40

    def test_gauge_returns_to_zero_after_caller_errors(self):
        replica_set = ReplicaSet(paper_example_graph(), CONFIG, replicas=2)
        for _ in range(6):
            with pytest.raises(VertexNotFoundError):
                replica_set.search(Query("lp-bcc", ("ql", "missing")))
        assert replica_set.in_flight() == [0, 0]


class TestDeadlines:
    """One stalled row costs its own budget, never the batch's liveness."""

    def test_stalled_row_becomes_deadline_row_rest_parity(self):
        stall_vertices = ("ql", "z1")  # TRACE[2]
        plan = FaultPlan(
            [
                FaultRule(
                    "engine.search",
                    kind="stall",
                    where={"vertices": stall_vertices},
                    delay_seconds=20.0,
                )
            ]
        )
        engine = BCCEngine(paper_example_graph(), CONFIG, fault_plan=plan)
        expected = fault_free_answers()

        started = time.perf_counter()
        # Config precedence replaces whole configs, so the deadline rides a
        # config that also restates the engine's k1/k2.
        deadline_config = SearchConfig(k1=4, k2=3, deadline_ms=300.0)
        responses = engine.search_many(
            [Query(q.method, q.vertices, config=deadline_config) for q in TRACE],
            on_error="return",
        )
        elapsed = time.perf_counter() - started

        # The batch returned long before the 20s stall would have.
        assert elapsed < 10.0
        assert len(responses) == len(TRACE)
        for index, (got, want) in enumerate(zip(responses, expected)):
            if TRACE[index].vertices == stall_vertices:
                assert got.status == "error"
                assert got.reason == REASON_DEADLINE_EXCEEDED
            else:
                assert got.status == want.status
                assert got.vertices == want.vertices

    def test_gateway_search_enforces_deadline_as_504(self):
        plan = FaultPlan(
            [FaultRule("engine.search", kind="stall", delay_seconds=20.0)]
        )
        directory = GraphDirectory(sharded=False)
        directory.add(
            "paper", paper_example_graph(), config=CONFIG, fault_plan=plan
        )
        with Gateway(directory, port=0) as gateway:
            client = GatewayClient(gateway.url, timeout_seconds=10.0)
            from repro.exceptions import DeadlineExceededError

            started = time.perf_counter()
            with pytest.raises(DeadlineExceededError):
                client.search(
                    "paper",
                    TRACE[0],
                    config=SearchConfig(k1=4, k2=3, deadline_ms=300.0),
                )
            assert time.perf_counter() - started < 10.0
            assert gateway.counters_snapshot()["deadline_exceeded"] == 1


class TestClientRetries:
    """Backoff schedules asserted against a recorded fake sleep."""

    def test_429_retry_waits_at_least_retry_after(self, paper_directory):
        with Gateway(
            paper_directory, port=0, max_in_flight=2, retry_after_seconds=2
        ) as gateway:
            slept = []

            def sleep_and_free_slot(seconds: float) -> None:
                # The recorded "sleep" doubles as the event that frees a
                # slot, so the retry deterministically succeeds.
                slept.append(seconds)
                gateway.release()

            client = GatewayClient(
                gateway.url,
                timeout_seconds=10.0,
                retry_policy=RetryPolicy(
                    max_attempts=3, base_delay_seconds=0.05, max_delay_seconds=0.1
                ),
                sleep=sleep_and_free_slot,
            )
            assert gateway.try_acquire() and gateway.try_acquire()
            try:
                response = client.search("paper", TRACE[0])
            finally:
                gateway.release()  # the second held slot
            assert response.status == "ok"
            # Jitter caps at 0.1s but the server asked for 2s: the client
            # honors the larger of the two, exactly once.
            assert slept == [2.0]
            assert client.retries() == 1
            assert gateway.counters_snapshot()["rejections"] == 1

    def test_retry_schedule_is_deterministic_and_bounded(self):
        # A dead port: every attempt is a transport failure, so the client
        # retries exactly max_attempts times and the recorded schedule is
        # the policy's seeded jitter.
        import socket

        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        dead_port = placeholder.getsockname()[1]
        placeholder.close()

        policy = RetryPolicy(
            max_attempts=4,
            base_delay_seconds=0.1,
            max_delay_seconds=1.0,
            multiplier=2.0,
        )
        slept = []
        client = GatewayClient(
            f"http://127.0.0.1:{dead_port}",
            timeout_seconds=1.0,
            retry_policy=policy,
            sleep=slept.append,
        )
        with pytest.raises(GatewayError):
            client.healthz()
        assert client.retries() == 3  # 4 attempts = 3 retries
        assert len(slept) == 3
        for attempt, delay in enumerate(slept):
            assert 0.0 <= delay <= min(1.0, 0.1 * (2.0 ** attempt))

        # Same policy, same seed, fresh client: identical schedule.
        slept_again = []
        repeat = GatewayClient(
            f"http://127.0.0.1:{dead_port}",
            timeout_seconds=1.0,
            retry_policy=policy,
            sleep=slept_again.append,
        )
        with pytest.raises(GatewayError):
            repeat.healthz()
        assert slept_again == slept

    def test_no_policy_means_no_retries(self):
        import socket

        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        dead_port = placeholder.getsockname()[1]
        placeholder.close()

        client = GatewayClient(f"http://127.0.0.1:{dead_port}", timeout_seconds=1.0)
        with pytest.raises(GatewayError):
            client.healthz()
        assert client.retries() == 0


class TestDegradedGateway:
    """All replicas down: /healthz flips, cached answers replay degraded,
    uncached requests answer 503 + Retry-After."""

    def _down_directory(self):
        # Replica dispatches succeed once (warming the degraded cache via
        # the gateway), then every dispatch faults; with a one-failure
        # threshold and an hour-long window both replicas stay ejected for
        # the whole test.
        plan = FaultPlan([FaultRule("replica.search", after=1)])
        directory = GraphDirectory(sharded=False)
        directory.add(
            "paper",
            paper_example_graph(),
            config=CONFIG,
            replicas=2,
            health_policy=HealthPolicy(failure_threshold=1, ejection_seconds=3600.0),
            fault_plan=plan,
        )
        return directory

    def test_degraded_replay_then_503_for_cold_queries(self):
        directory = self._down_directory()
        with Gateway(directory, port=0, retry_after_seconds=9) as gateway:
            client = GatewayClient(gateway.url, timeout_seconds=10.0)

            live = client.search("paper", TRACE[0])
            assert live.status == "ok" and not live.degraded
            assert client.healthz()["status"] == "ok"

            # This request kills both replicas (fault → eject, failover,
            # fault → eject) and surfaces the last replica's own error.
            with pytest.raises(GatewayError):
                client.search("paper", TRACE[1])

            # Same request as the warm one: replayed from the degraded
            # cache, marked so, byte-for-byte the same answer otherwise.
            stale = client.search("paper", TRACE[0])
            assert stale.degraded
            assert stale.status == "ok"
            assert stale.vertices == live.vertices
            assert gateway.counters_snapshot()["degraded"] == 1

            # A request never served before has nothing to replay: 503
            # with the server's Retry-After hint.
            with pytest.raises(GatewayUnavailableError) as failure:
                client.search("paper", TRACE[3])
            assert failure.value.retry_after_seconds == 9.0
            assert gateway.counters_snapshot()["unavailable"] == 1

    def test_other_graphs_do_not_evict_degraded_answers(self):
        # Only a replica set can be down, so a monolithic graph's answers
        # never take a slot of the (here one-entry) last-good cache.
        directory = self._down_directory()
        directory.add("mono", paper_example_graph(), config=CONFIG)
        with Gateway(directory, port=0, degraded_cache_size=1) as gateway:
            client = GatewayClient(gateway.url, timeout_seconds=10.0)
            live = client.search("paper", TRACE[0])  # warm
            assert client.search("mono", TRACE[0]).status == "ok"
            with pytest.raises(GatewayError):
                client.search("paper", TRACE[1])  # ejects both replicas
            stale = client.search("paper", TRACE[0])
            assert stale.degraded
            assert stale.vertices == live.vertices

    def test_healthz_reports_down_with_503(self):
        directory = self._down_directory()
        with Gateway(directory, port=0) as gateway:
            client = GatewayClient(gateway.url, timeout_seconds=10.0)
            assert client.healthz()["graphs"]["paper"]["state"] == "ok"

            client.search("paper", TRACE[0])  # warm (one good dispatch)
            with pytest.raises(GatewayError):
                client.search("paper", TRACE[1])  # ejects both replicas

            # /healthz now answers 503 with the full readiness payload.
            connection = http.client.HTTPConnection(
                gateway.host, gateway.port, timeout=10.0
            )
            try:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                body = response.read()
                assert response.status == 503
            finally:
                connection.close()
            import json

            payload = json.loads(body)
            assert payload["status"] == "down"
            assert payload["graphs"]["paper"]["state"] == "down"
            assert payload["graphs"]["paper"]["available"] == 0

    def test_degraded_cache_disabled_means_plain_503(self):
        directory = self._down_directory()
        with Gateway(directory, port=0, degraded_cache_size=0) as gateway:
            client = GatewayClient(gateway.url, timeout_seconds=10.0)
            client.search("paper", TRACE[0])
            with pytest.raises(GatewayError):
                client.search("paper", TRACE[1])
            with pytest.raises(GatewayUnavailableError):
                client.search("paper", TRACE[0])  # warm, but cache disabled


class TestRequestIds:
    def test_supplied_request_id_is_echoed(self, gateway):
        connection = http.client.HTTPConnection(
            gateway.host, gateway.port, timeout=10.0
        )
        try:
            connection.request(
                "GET", "/healthz", headers={"X-Request-Id": "trace-abc-123"}
            )
            response = connection.getresponse()
            response.read()
            assert response.getheader("X-Request-Id") == "trace-abc-123"
        finally:
            connection.close()

    def test_missing_request_id_is_generated(self, gateway):
        connection = http.client.HTTPConnection(
            gateway.host, gateway.port, timeout=10.0
        )
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            generated = response.getheader("X-Request-Id")
            assert generated and len(generated) == 32
        finally:
            connection.close()

    def test_unprintable_request_id_is_replaced(self, gateway):
        connection = http.client.HTTPConnection(
            gateway.host, gateway.port, timeout=10.0
        )
        try:
            connection.request(
                "GET", "/healthz", headers={"X-Request-Id": "x" * 500}
            )
            response = connection.getresponse()
            response.read()
            echoed = response.getheader("X-Request-Id")
            assert echoed and echoed != "x" * 500
        finally:
            connection.close()

    def test_request_id_lands_in_error_payloads_and_access_log(
        self, gateway, caplog
    ):
        import json
        import logging

        connection = http.client.HTTPConnection(
            gateway.host, gateway.port, timeout=10.0
        )
        try:
            with caplog.at_level(logging.INFO, logger="repro.server.access"):
                connection.request(
                    "GET", "/nowhere", headers={"X-Request-Id": "err-42"}
                )
                response = connection.getresponse()
                body = json.loads(response.read())
                assert response.status == 404
        finally:
            connection.close()
        assert body["request_id"] == "err-42"
        logged = [json.loads(record.message) for record in caplog.records]
        assert any(entry.get("request_id") == "err-42" for entry in logged)

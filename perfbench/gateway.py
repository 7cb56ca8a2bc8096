"""Gateway workload: cached round trips through the HTTP gateway.

The gateway runs in its own process (:mod:`perfbench.gateway_main`) over a
default, sharded ``GraphDirectory``.  Two keep-alive ``GatewayClient``
connections (one per load-generator thread, matching a 2-core host) send a
48-query hot set (16 pairs x 3 methods) in closed loop.  The hot set is
warmed during set-up and fits the default 128-entry result cache, so every
timed request is a cache hit: the serving stack does nearly all the work
and the kernel almost none.  Every request carries ``deadline_ms=1000``,
the way production callers send a time budget.

Traffic runs in rounds; between rounds nothing is in flight and both cores
are probed.  ``qps`` is the median round's request rate, so one round
stalled by a neighbour on the host does not move it.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional

from repro.api import BCCEngine, Query
from repro.exceptions import ReproError
from repro.server import GatewayClient

from perfbench import inputs, ledger as ledger_mod
from perfbench.check import Answer, Gate
from perfbench.probe import Timeline
from perfbench.report import RunResult

HOT_PAIRS = 16
CONNECTIONS = 2
#: Requests per connection per round.
ROUND_REQUESTS = 16
#: Gateway boots timed per run (their median is ``setup_s``).
SETUP_REPEATS = 3
DEADLINE_MS = 1000.0
#: Longest a round may take before the run is declared wedged.
ROUND_TIMEOUT_SECONDS = 60.0

GATEWAY_LAYERS = ("serving.directory", "serving.sharded", "api.engine")


class GatewayProcess:
    """One gateway process and its stdin/stdout control channel."""

    def __init__(self, root: Path) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "gateway_main.py")],
            cwd=str(root),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = self._read()["port"]
        self.url = f"http://127.0.0.1:{self.port}"

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            self.process.wait(timeout=30)
            raise RuntimeError(f"gateway process exited with {self.process.returncode}")
        return json.loads(line)

    def command(self, name: str) -> dict:
        self.process.stdin.write(name + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> int:
        """Stop the gateway; return its peak RSS in KiB."""
        try:
            rss_kb = self.command("stop")["rss_kb"]
        finally:
            self.process.stdin.close()
            self.process.wait(timeout=30)
            self.process.stdout.close()
        return rss_kb

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)


class Traffic:
    """Closed-loop rounds over persistent client threads."""

    def __init__(self, client: GatewayClient, queries: List[Query], config) -> None:
        self.client = client
        self.queries = queries
        self.config = config
        self._start = threading.Barrier(CONNECTIONS + 1, timeout=ROUND_TIMEOUT_SECONDS)
        self._end = threading.Barrier(CONNECTIONS + 1, timeout=ROUND_TIMEOUT_SECONDS)
        self._stop = False
        self._latencies: List[List[float]] = [[] for _ in range(CONNECTIONS)]
        self.answers: Dict[int, set] = {}
        self.first: Dict[int, Answer] = {}
        self.failed = 0
        self.errors: List[str] = []
        self.requests = 0
        self._lock = threading.Lock()
        self._cursor = [index * len(queries) // CONNECTIONS for index in range(CONNECTIONS)]
        self._threads = [
            threading.Thread(target=self._worker, args=(index,), name=f"load-{index}")
            for index in range(CONNECTIONS)
        ]
        for thread in self._threads:
            thread.start()

    def _worker(self, index: int) -> None:
        import time

        clock = time.perf_counter
        latencies = self._latencies[index]
        while True:
            self._start.wait()
            if self._stop:
                self.client.close()
                return
            for _ in range(ROUND_REQUESTS):
                slot = self._cursor[index] % len(self.queries)
                self._cursor[index] += 1
                query = self.queries[slot]
                start = clock()
                try:
                    response = self.client.search(inputs.DATASET, query, config=self.config)
                except ReproError as exc:
                    # 429/5xx, deadline and transport failures: a failed
                    # request, counted against the attempted ones.
                    with self._lock:
                        self.failed += 1
                        self.errors.append(repr(exc))
                    continue
                latencies.append(clock() - start)
                answer = Answer.of(response)
                with self._lock:
                    if response.status == "error":
                        self.failed += 1
                    self.first.setdefault(slot, answer)
                    self.answers.setdefault(slot, set()).add(answer.signature())
            self._end.wait()

    def rounds(self, timeline: Timeline, seconds: float, kind: str) -> int:
        """Run rounds for ``seconds``; record each request and round."""
        clock = timeline.clock
        deadline = clock() + seconds
        served = 0
        while True:
            timeline.probe()
            if clock() >= deadline:
                return served
            start = clock()
            self._start.wait()
            self._end.wait()
            timeline.record(f"{kind}-round", clock() - start)
            for latencies in self._latencies:
                for value in latencies:
                    timeline.record(kind, value)
                served += len(latencies)
                latencies.clear()
            self.requests += CONNECTIONS * ROUND_REQUESTS

    def close(self) -> None:
        self._stop = True
        self._start.wait()
        for thread in self._threads:
            thread.join(timeout=30)


def _boot(root: Path, client_config, queries, timeline: Timeline):
    """Start a gateway and warm its cache with the hot set (timed as set-up)."""
    process: Optional[GatewayProcess] = None

    def boot():
        nonlocal process
        process = GatewayProcess(root)
        client = GatewayClient(process.url)
        for query in queries:
            client.search(inputs.DATASET, query, config=client_config)
        client.close()

    timeline.probe()
    try:
        timeline.time("setup", boot)
    except BaseException:
        if process is not None:
            process.kill()
        raise
    timeline.probe()
    return process


def run(ctx) -> RunResult:
    result = RunResult(ctx.workload, ctx.seed, ctx.trace)
    bundle = inputs.load_bundle()
    pairs = inputs.stratified_pairs(bundle, 2, ctx.seed)[:HOT_PAIRS]
    queries = [Query(method, pair) for pair in pairs for method in inputs.METHODS]
    client_config = inputs.search_config(deadline_ms=DEADLINE_MS)
    timeline = ctx.timeline()
    gate = Gate()
    repeats = 1 if ctx.trace else SETUP_REPEATS
    process = None
    try:
        for repeat in range(repeats):
            process = _boot(ctx.root, client_config, queries, timeline)
            if repeat < repeats - 1:
                process.stop()
        client = GatewayClient(process.url)
        traffic = Traffic(client, queries, client_config)
        try:
            if ctx.trace:
                _traced(ctx, process, client, traffic, timeline, result)
            else:
                traffic.rounds(timeline, ctx.seconds, "request")
                latencies = timeline.normalized("request")
                rounds = timeline.normalized("request-round")
                result.metrics["p50_ms"] = statistics.median(latencies) * 1e3
                result.raw["p50_ms"] = statistics.median(timeline.raw("request")) * 1e3
                per_round = CONNECTIONS * ROUND_REQUESTS
                result.metrics["qps"] = per_round / statistics.median(rounds)
                result.raw["qps"] = per_round / statistics.median(timeline.raw("request-round"))
        finally:
            traffic.close()
        result.metrics["rss_mb"] = process.stop() / 1024.0
        process = None
    finally:
        if process is not None:
            process.kill()

    _check(bundle, queries, traffic, gate)
    result.attempted = traffic.requests
    result.failed = traffic.failed
    result.notes["errors"] = traffic.errors[:10]
    result.metrics["setup_s"] = statistics.median(timeline.normalized("setup"))
    result.raw["setup_s"] = statistics.median(timeline.raw("setup"))
    result.probe = timeline.probe_summary()
    result.operations = timeline.summary()
    result.problems = gate.problems
    return result


def _check(bundle, queries, traffic: Traffic, gate: Gate) -> None:
    """Gateway answers must equal in-process answers, field for field."""
    engine = BCCEngine(bundle.graph.copy(), inputs.search_config()).prepare()
    for slot, query in enumerate(queries):
        reference = Answer.of(engine.search(query))
        gate.check(engine.graph, reference, f"{query.method} {query.vertices} (in-process)")
        if slot not in traffic.first:
            continue
        gate.same(traffic.first[slot], reference, f"{query.method} {query.vertices} over HTTP")
        if len(traffic.answers[slot]) != 1:
            gate.problems.append(f"{query.method} {query.vertices}: repeated HTTP answers disagree")


def _engine_counters(stats: dict) -> dict:
    return stats["graphs"][inputs.DATASET]["counters"]


def _traced(ctx, process, client, traffic, timeline, result) -> None:
    traffic.rounds(timeline, ctx.seconds * 0.35, "plain")
    plain_requests = timeline.count("plain")
    stats_before = _engine_counters(client.stats())
    health_before = client.healthz()
    process.command("install")
    ledger = ledger_mod.Ledger()
    ledger_mod.install_client(ledger)
    probes_before = len(timeline.probes)
    try:
        served = traffic.rounds(timeline, ctx.seconds * 0.5, "traced")
    finally:
        ledger.uninstall()
    child = process.command("dump")
    stats_after = _engine_counters(client.stats())
    health_after = client.healthz()

    factor = timeline.reference_seconds / statistics.median(timeline.probes[probes_before:])
    per_request = factor * 1e3 / served
    local = ledger.snapshot()["self_seconds"]
    remote_self = child["self_seconds"]
    remote_incl = child["inclusive_seconds"]
    access = child["access_ms"] / 1e3
    protocol = remote_self.get("server.protocol", 0.0)
    named = {
        "server.client": local.get("server.client", 0.0),
        "server.http": local.get("server.exchange", 0.0) - access,
        "server.app": access - protocol - remote_incl.get("server.deadline", 0.0),
        "server.protocol": protocol,
        "server.deadline": remote_self.get("server.deadline", 0.0),
    }
    for layer in GATEWAY_LAYERS:
        named[layer] = remote_self.get(layer, 0.0)
    for layer, seconds in named.items():
        result.metrics[f"{layer}_ms"] = seconds * per_request
    result.metrics["bench.unattributed_ms"] = (
        sum(timeline.raw("traced")) - sum(named.values())
    ) * per_request
    result.metrics["bench.tracing_overhead_pct"] = 100.0 * (
        statistics.median(timeline.normalized("traced"))
        / statistics.median(timeline.normalized("plain"))
        - 1.0
    )
    hits = stats_after["result_cache_hits"] - stats_before["result_cache_hits"]
    misses = stats_after["result_cache_misses"] - stats_before["result_cache_misses"]
    threads = child["counts"].get("server.thread_starts", 0)
    counts = {
        "server.deadline_threads": threads / served,
        "api.cache_misses": float(misses),
        "server.rejections": float(health_after["rejections"] - health_before["rejections"]),
    }
    result.metrics.update(counts)
    result.metrics["api.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    result.counts = dict(counts)
    # The plain phase must agree: no misses and no rejections there either.
    mismatches = [
        name
        for name, plain_value in (
            ("api.cache_misses", stats_before["result_cache_misses"] - len(traffic.queries)),
            ("server.rejections", float(health_before["rejections"])),
        )
        if plain_value != counts[name]
    ]
    result.metrics["bench.count_mismatches"] = float(len(mismatches))
    result.notes["plain_requests"] = plain_requests
    result.notes["access_posts"] = child["access_posts"]
    result.notes["unmeasurable"] = {
        "server.app_ms": "derived: the handler class is private, so app self time is "
        "the access log's duration minus the protocol and deadline calls inside it",
    }

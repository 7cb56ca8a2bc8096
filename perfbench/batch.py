"""Batch workload: offline ``search_many`` batches on worker processes.

One caller sends the same 32 distinct queries (32 pairs, two or three per
community, methods rotated) through ``BCCEngine.search_many`` with
``backend="process"``, ``max_workers=2``, ``on_error="return"`` and
``use_cache=False``, batch after batch, each batch in a fresh seeded order
(so which long search lands last on a worker varies from batch to batch
instead of being fixed for a seed).  This is the only workload that runs
``parallel``: shared-memory export, wire marshalling and scatter-gather.

Set-up is engine prepare plus index plus the pool spawn (timed as the first,
two-row batch); one untimed full batch then lets the workers fill their own
label groups and index before timing starts.  Both cores are probed between
batches, when nothing is in flight; ``qps`` is rows per second of the
median batch.
"""

from __future__ import annotations

import random
import resource
import statistics
from typing import List, Tuple

from repro.api import BCCEngine, Query
from repro.obs.tracing import Trace

from perfbench import inputs, ledger as ledger_mod
from perfbench.check import Answer, Gate
from perfbench.kernel import prepared_engine
from perfbench.probe import Timeline
from perfbench.report import RunResult

BATCH_SIZE = 32
WORKERS = 2
#: Pool set-ups timed per run (their median is ``setup_s``).
SETUP_REPEATS = 3
PROCESS = {"backend": "process", "max_workers": WORKERS, "on_error": "return", "use_cache": False}


def batch_queries(bundle, seed: int) -> List[Query]:
    """``BATCH_SIZE`` distinct queries, each on its own seeded pair.

    Draw round ``r`` gives community ``c`` a fresh pair searched with method
    ``(c + r) % 3``; the rounds are cut at ``BATCH_SIZE``, so every seed
    fills the same (community, method) cells and only the pairs change.
    """
    methods = inputs.METHODS
    per_community = inputs.community_pairs(bundle, len(methods), seed)
    cells = [
        Query(methods[(community + draw) % len(methods)], drawn[draw])
        for draw in range(len(methods))
        for community, drawn in enumerate(per_community)
    ]
    return cells[:BATCH_SIZE]


def _spawn_setups(bundle, queries, timeline: Timeline, repeats: int) -> BCCEngine:
    engine = None
    for repeat in range(repeats):
        graph = bundle.graph.copy()
        timeline.probe()

        def setup():
            fresh = prepared_engine(graph)
            fresh.search_many(queries[:WORKERS], **PROCESS)
            return fresh

        engine = timeline.time("setup", setup)
        if repeat < repeats - 1:
            engine.close_process_pool()
    timeline.probe()
    return engine


class Batches:
    def __init__(self, engine: BCCEngine, queries: List[Query], timeline: Timeline, seed: int) -> None:
        self.engine = engine
        self.queries = queries
        self._rng = random.Random(seed)
        self.timeline = timeline
        self.batches = 0
        self.failed = 0
        self.signatures = [set() for _ in queries]
        self.first: List[Answer] = []

    def one(self, kind: str, trace: bool = False):
        order = self._rng.sample(range(len(self.queries)), len(self.queries))
        batch = [self.queries[slot] for slot in order]
        clock = self.timeline.clock
        start = clock()
        if trace:
            with Trace(f"batch-{self.batches}", name="batch") as context:
                responses = self.engine.search_many(batch, **PROCESS)
        else:
            context = None
            responses = self.engine.search_many(batch, **PROCESS)
        self.timeline.record(kind, clock() - start)
        self.batches += 1
        answers = [None] * len(order)
        for slot, response in zip(order, responses):
            answers[slot] = Answer.of(response)
        self.failed += sum(1 for answer in answers if answer.status == "error")
        if not self.first:
            self.first = answers
        for slot, answer in enumerate(answers):
            self.signatures[slot].add(answer.signature())
        return context

    def run(self, seconds: float, kind: str, on_batch=None) -> None:
        clock = self.timeline.clock
        deadline = clock() + seconds
        while True:
            self.timeline.probe()
            if clock() >= deadline:
                return
            context = self.one(kind, trace=on_batch is not None)
            if on_batch is not None:
                on_batch(context)

    def check(self, gate: Gate) -> None:
        """Process rows must equal threaded rows; threaded rows must be valid."""
        threaded = self.engine.search_many(self.queries, on_error="return", use_cache=False)
        for slot, (query, response) in enumerate(zip(self.queries, threaded)):
            reference = Answer.of(response)
            what = f"{query.method} {query.vertices}"
            gate.check(self.engine.graph, reference, what)
            if self.first:
                gate.same(self.first[slot], reference, f"{what} (process row)")
            if len(self.signatures[slot]) > 1:
                gate.problems.append(f"{what}: process rows disagree across batches")


def run(ctx) -> RunResult:
    result = RunResult(ctx.workload, ctx.seed, ctx.trace)
    bundle = inputs.load_bundle()
    queries = batch_queries(bundle, ctx.seed)
    timeline = ctx.timeline()
    gate = Gate()
    engine = _spawn_setups(bundle, queries, timeline, 1 if ctx.trace else SETUP_REPEATS)
    try:
        batches = Batches(engine, queries, timeline, ctx.seed)
        batches.one("warm")
        fallbacks_before = engine.counters_snapshot()["process_fallbacks"]
        if ctx.trace:
            _traced(ctx, engine, batches, timeline, result)
        else:
            batches.run(ctx.seconds, "batch")
            normalized = timeline.normalized("batch")
            raw = timeline.raw("batch")
            result.metrics["p50_ms"] = statistics.median(normalized) * 1e3
            result.raw["p50_ms"] = statistics.median(raw) * 1e3
            result.metrics["qps"] = len(queries) / statistics.median(normalized)
            result.raw["qps"] = len(queries) / statistics.median(raw)
        fallbacks = engine.counters_snapshot()["process_fallbacks"] - fallbacks_before
        batches.check(gate)
    finally:
        engine.close_process_pool()
    # Workers are joined by now: the children's peak RSS covers them.
    parent_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.metrics["rss_mb"] = (parent_kb + WORKERS * worker_kb) / 1024.0
    result.attempted = batches.batches * len(queries)
    result.failed = batches.failed + fallbacks * len(queries)
    result.metrics["setup_s"] = statistics.median(timeline.normalized("setup"))
    result.raw["setup_s"] = statistics.median(timeline.raw("setup"))
    result.probe = timeline.probe_summary()
    result.operations = timeline.summary()
    result.problems = gate.problems
    return result


def _worker_busy(trace: Trace) -> Tuple[List[float], List[int]]:
    """Busy seconds and rows per worker in one batch, from the worker span
    trees grafted under the pool's row spans."""
    busy = [0.0] * WORKERS
    tasks = [0] * WORKERS

    def walk(span: dict) -> None:
        for child in span.get("children", ()):
            if child.get("name") == "row":
                slot = child.get("meta", {}).get("worker", 0)
                for remote in child.get("children", ()):
                    if remote.get("name") == "worker":
                        busy[slot] += remote["duration_ms"] / 1e3
                tasks[slot] += 1
            else:
                walk(child)

    walk(trace.to_dict()["spans"])
    return busy, tasks


def _traced(ctx, engine, batches: Batches, timeline: Timeline, result: RunResult) -> None:
    """Untraced batches, then traced batches with worker span trees."""
    batches.run(ctx.seconds * 0.35, "plain")
    pool_before = engine.process_pool_stats()["counters"]
    busy_total = 0.0
    wait_total = 0.0
    utilization: List[float] = []
    max_tasks: List[int] = []
    tasks_per_batch: List[int] = []

    def on_batch(trace) -> None:
        nonlocal busy_total, wait_total
        wall = timeline.raw("traced")[-1]
        busy, tasks = _worker_busy(trace)
        busy_total += sum(busy)
        wait_total += wall - max(busy)
        utilization.append(sum(busy) / (WORKERS * wall))
        max_tasks.append(max(tasks))
        tasks_per_batch.append(sum(tasks))

    ledger = ledger_mod.Ledger()
    ledger_mod.install_pool(ledger)
    probes_before = len(timeline.probes)
    try:
        batches.run(ctx.seconds * 0.5, "traced", on_batch=on_batch)
    finally:
        ledger.uninstall()
    pool_after = engine.process_pool_stats()["counters"]
    traced = timeline.count("traced")
    snapshot = ledger.snapshot()["self_seconds"]
    factor = timeline.reference_seconds / statistics.median(timeline.probes[probes_before:])
    per_batch = factor * 1e3 / traced
    named = {
        "parallel.pool": snapshot.get("parallel.pool", 0.0),
        "parallel.marshal": snapshot.get("parallel.marshal", 0.0),
    }
    for layer, seconds in named.items():
        result.metrics[f"{layer}_ms"] = seconds * per_batch
    result.metrics["parallel.worker_busy_ms"] = busy_total * per_batch
    result.metrics["parallel.wait_ms"] = wait_total * per_batch
    result.metrics["parallel.utilization"] = statistics.median(utilization)
    result.metrics["parallel.tasks_per_worker"] = statistics.median(max_tasks)
    result.metrics["bench.unattributed_ms"] = (
        sum(timeline.raw("traced")) - sum(named.values())
    ) * per_batch
    result.metrics["bench.tracing_overhead_pct"] = 100.0 * (
        statistics.median(timeline.normalized("traced"))
        / statistics.median(timeline.normalized("plain"))
        - 1.0
    )
    counts = {
        "parallel.respawns": float(pool_after["respawns"] - pool_before["respawns"]),
        "parallel.fallbacks": float(engine.counters_snapshot()["process_fallbacks"]),
        "pool.tasks_per_batch": float((pool_after["tasks"] - pool_before["tasks"]) / traced),
    }
    result.metrics["parallel.respawns"] = counts["parallel.respawns"]
    result.metrics["parallel.fallbacks"] = counts["parallel.fallbacks"]
    mismatches = sorted(set(tasks_per_batch)) != [len(batches.queries)]
    result.metrics["bench.count_mismatches"] = float(mismatches)
    result.counts = counts
    result.notes["unmeasurable"] = {
        "core.*/graph.* inside workers": "worker processes import only the program, so "
        "the benchmark's wrappers cannot reach them; the traced run uses the span "
        "trees the workers already ship back (engine-level spans only)",
    }

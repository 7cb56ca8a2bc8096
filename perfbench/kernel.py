"""Kernel workloads: uncached ``BCCEngine.search`` calls, one method each.

One thread, closed loop.  The engine is prepared and indexed before timing
starts; every search passes ``use_cache=False``, so each one runs the whole
algorithm.  The kernel is ~97% of an uncached request, so ``core`` and
``graph`` changes show here undiluted.  One workload per method keeps every
gated median to one kind of operation.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List

from repro.api import BCCEngine, Query

from perfbench import inputs, ledger as ledger_mod
from perfbench.check import Answer, Gate
from perfbench.probe import Timeline
from perfbench.report import RunResult

#: Query pairs drawn per ground-truth community (12 communities).
PAIRS_PER_COMMUNITY = 30
#: Fresh engine set-ups timed per run (their median is ``setup_s``).
SETUP_REPEATS = 15
#: A probe is taken before every ``PROBE_EVERY``-th search.
PROBE_EVERY = 2
#: Pairs in the traced run's counting passes (two per community).
COUNTING_PAIRS = 24

#: Exact per-search work counts read from the search's instrumentation.
INSTRUMENTATION_COUNTS = {
    "core.butterfly_calls": "butterfly_counting_calls",
    "core.iterations": "iterations",
    "core.vertices_deleted": "vertices_deleted",
    "core.leader_full_recounts": "leader_full_recounts",
    "core.distance_partial_updates": "distance_partial_updates",
    "core.distance_full_recomputations": "distance_full_recomputations",
}

KERNEL_LAYERS = (
    "core.params", "core.find_g0", "core.kcore", "core.butterfly",
    "graph.bipartite", "graph.union", "core.sweep", "core.maintain",
    "core.query_distance", "core.leader_pair", "core.local_search",
    "graph.materialize", "api.engine",
)


def prepared_engine(graph) -> BCCEngine:
    """A ready-to-serve engine: CSR frozen, BCindex (and label groups) built."""
    engine = BCCEngine(graph, inputs.search_config()).prepare()
    engine.ensure_index()
    return engine


def timed_setups(bundle, timeline: Timeline, repeats: int):
    """Time ``repeats`` fresh set-ups from a copy of the generated graph."""
    engine = None
    for _ in range(repeats):
        graph = bundle.graph.copy()
        timeline.probe()
        engine = timeline.time("setup", lambda: prepared_engine(graph))
    timeline.probe()
    return engine


class Loop:
    """Closed-loop searches with a probe before every other search."""

    def __init__(self, engine: BCCEngine, queries: List[Query], timeline: Timeline, kind: str) -> None:
        self.engine = engine
        self.queries = queries
        self.timeline = timeline
        self.kind = kind
        self.first: Dict[int, Answer] = {}
        self.signatures: Dict[int, set] = {}
        self.searches = 0

    def run(self, seconds: float) -> None:
        timeline = self.timeline
        clock = timeline.clock
        deadline = clock() + seconds
        index = 0
        while True:
            if index % PROBE_EVERY == 0:
                timeline.probe()
                if clock() >= deadline:
                    break
            slot = index % len(self.queries)
            query = self.queries[slot]
            start = clock()
            response = self.engine.search(query, use_cache=False)
            timeline.record(self.kind, clock() - start)
            answer = Answer.of(response)
            if slot not in self.first:
                self.first[slot] = answer
            self.signatures.setdefault(slot, set()).add(answer.signature())
            index += 1
            self.searches += 1

    def check(self, graph, gate: Gate) -> None:
        for slot, answer in self.first.items():
            query = self.queries[slot]
            gate.check(graph, answer, f"{query.method} {query.vertices}")
            if len(self.signatures[slot]) != 1:
                gate.problems.append(f"{query.method} {query.vertices}: repeated searches disagree")


def _counting_pass(engine: BCCEngine, queries: List[Query]) -> Dict[str, float]:
    """Exact work counts per search over a fixed list of queries."""
    ledger = ledger_mod.Ledger()
    ledger_mod.install_kernel_counters(ledger)
    totals = {name: 0.0 for name in INSTRUMENTATION_COUNTS}
    try:
        for query in queries:
            response = engine.search(query, use_cache=False)
            stats = response.instrumentation.as_dict()
            for name, key in INSTRUMENTATION_COUNTS.items():
                totals[name] += stats.get(key, 0.0)
    finally:
        ledger.uninstall()
    totals["graph.add_edge_calls"] = ledger.counts["graph.add_edge_calls"]
    totals["graph.induced_calls"] = ledger.counts["graph.induced_calls"]
    return {name: value / len(queries) for name, value in totals.items()}


def run(ctx, method: str) -> RunResult:
    result = RunResult(ctx.workload, ctx.seed, ctx.trace)
    bundle = inputs.load_bundle()
    pairs = inputs.stratified_pairs(bundle, PAIRS_PER_COMMUNITY, ctx.seed)
    queries = [Query(method, pair) for pair in pairs]
    timeline = ctx.timeline()
    timeline.probe()
    engine = timed_setups(bundle, timeline, SETUP_REPEATS)
    gate = Gate()

    if not ctx.trace:
        loop = Loop(engine, queries, timeline, "search")
        loop.run(ctx.seconds)
        loop.check(engine.graph, gate)
        searches = timeline.normalized("search")
        raw = timeline.raw("search")
        result.metrics["p50_ms"] = statistics.median(searches) * 1e3
        result.raw["p50_ms"] = statistics.median(raw) * 1e3
        result.metrics["qps"] = len(searches) / sum(searches)
        result.raw["qps"] = len(raw) / sum(raw)
        result.attempted = loop.searches
    else:
        _traced(ctx, engine, queries, timeline, gate, result)

    setups = timeline.normalized("setup")
    result.metrics["setup_s"] = statistics.median(setups)
    result.raw["setup_s"] = statistics.median(timeline.raw("setup"))
    result.metrics["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.probe = timeline.probe_summary()
    result.operations = timeline.summary()
    result.problems = gate.problems
    result.notes["pairs"] = len(pairs)
    result.notes["distinct_pairs"] = len(set(pairs))
    return result


def _traced(ctx, engine, queries, timeline, gate, result) -> None:
    """Untraced phase, traced phase, then two counting passes."""
    plain = Loop(engine, queries, timeline, "plain")
    plain.run(ctx.seconds * 0.35)
    ledger = ledger_mod.Ledger()
    ledger_mod.install_kernel(ledger)
    traced = Loop(engine, queries, timeline, "traced")
    probes_before = len(timeline.probes)
    try:
        traced.run(ctx.seconds * 0.5)
    finally:
        ledger.uninstall()
    plain.check(engine.graph, gate)
    traced.check(engine.graph, gate)
    snapshot = ledger.snapshot()["self_seconds"]
    factor = timeline.reference_seconds / statistics.median(timeline.probes[probes_before:])
    per_search = factor * 1e3 / traced.searches
    for layer in KERNEL_LAYERS:
        result.metrics[f"{layer}_ms"] = snapshot.get(layer, 0.0) * per_search
    named = sum(snapshot.get(layer, 0.0) for layer in KERNEL_LAYERS)
    result.metrics["bench.unattributed_ms"] = (
        sum(timeline.raw("traced")) - named
    ) * per_search
    result.metrics["bench.tracing_overhead_pct"] = 100.0 * (
        statistics.median(timeline.normalized("traced"))
        / statistics.median(timeline.normalized("plain"))
        - 1.0
    )
    counting = queries[:COUNTING_PAIRS]
    first = _counting_pass(engine, counting)
    second = _counting_pass(engine, counting)
    mismatches = [name for name in first if first[name] != second[name]]
    result.metrics.update(first)
    result.metrics["bench.count_mismatches"] = float(len(mismatches))
    result.counts = dict(first)
    if mismatches:
        result.notes["nondeterministic_counts"] = mismatches
    result.attempted = plain.searches + traced.searches + 2 * len(counting)

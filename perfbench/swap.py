"""Swap workload: graph versions published beside reads, one thread.

An in-process ``GraphDirectory(store=..., sharded=False)`` persists every
version to a snapshot store under the run's work directory.  Each cycle
publishes the next precomputed version with ``directory.add`` (which builds,
indexes and persists it; the stale snapshot's attach attempt fails first),
then serves a seeded burst of reads through ``directory.serve`` with the
result cache on: each of 12 hot queries (one pair per community) once, plus
20 Zipf(1.1) repeats, so every version takes exactly 12 misses.  Cycles
rotate over six such hot sets (six pairs per community; set ``i`` reads
community ``c`` with method ``(c + i) % 3``).  Each version toggles 20 edges, none touching a query vertex.  This is the only workload where engine prepare, the BCindex and
label-group builds and store persistence do most of the work, and every
cycle invalidates the caches.

``p50_ms`` is the median publish (one kind of operation); ``qps`` is reads
per second of cycle time, publishes included, over one rotation of the hot
sets with each set's cycle at the median of its cycles (with as many versions
as hot sets, set ``i`` always meets version ``i``, so its cycles repeat the
same work), so a preempted
cycle or an unfinished last rotation does not move it.
Garbage left by the replaced version is collected between cycles, beside
the probe, so peak RSS tracks live versions rather than collector timing.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
from typing import Dict, List

from repro.api import Query
from repro.serving import GraphDirectory

from perfbench import inputs, ledger as ledger_mod
from perfbench.check import Answer, Gate
from perfbench.kernel import KERNEL_LAYERS
from perfbench.probe import Timeline
from perfbench.report import RunResult

NAME = inputs.DATASET
#: Distinct graph versions published in turn.
VERSIONS = 6
FLIPS = 20
#: Hot sets the cycles rotate over (one pair per community in each).
HOT_SETS = 6
#: Zipf repeats per cycle on top of one read of each hot query.
REPEATS = 20
#: A probe is taken before every ``READS_PER_PROBE``-th read of a burst.
READS_PER_PROBE = 4
#: First publishes timed per run (their median is ``setup_s``).
SETUP_REPEATS = 7

PUBLISH_LAYERS = (
    "store.persist", "store.attach", "api.prepare", "core.index_build", "api.group_build",
)


class Cycles:
    """Publish-then-read cycles over a directory."""

    def __init__(self, directory: GraphDirectory, versions, bursts: List[List[Query]], timeline: Timeline) -> None:
        self.directory = directory
        self.versions = versions
        self.bursts = bursts
        self.timeline = timeline
        self.cycles = 0
        self.reads = 0
        self.failed = 0
        #: (version index, query) -> answer of the cycle's first read of it.
        self.answers: Dict[tuple, Answer] = {}
        self.per_version: List[Dict[str, float]] = []
        self.problems: List[str] = []

    def run(self, seconds: float, kind: str, after_cycle=None) -> None:
        """Run cycles for ``seconds``, probing between cycles."""
        clock = self.timeline.clock
        deadline = clock() + seconds
        while True:
            version = self.cycles % len(self.versions)
            graph = self.versions[version].copy()
            gc.collect()
            self.timeline.probe()
            if clock() >= deadline:
                return
            self._cycle(version, graph, kind)
            if after_cycle is not None:
                after_cycle()

    def _cycle(self, version: int, graph, kind: str) -> None:
        """Publish, then the burst, with a probe after the publish and
        between every few reads."""
        clock = self.timeline.clock
        start = clock()
        self.directory.add(NAME, graph)
        self.timeline.record(f"{kind}-publish", clock() - start)
        self.timeline.probe()
        first_seen: Dict[Query, Answer] = {}
        burst = self.bursts[self.cycles % len(self.bursts)]
        shift = (self.cycles // len(self.bursts)) % len(burst)
        for index, query in enumerate(burst[shift:] + burst[:shift]):
            if index and index % READS_PER_PROBE == 0:
                self.timeline.probe()
            start = clock()
            response = self.directory.serve(NAME, query)
            self.timeline.record(f"{kind}-read", clock() - start)
            if response.status == "error":
                self.failed += 1
            answer = Answer.of(response)
            seen = first_seen.setdefault(query, answer)
            if seen.signature() != answer.signature():
                self.problems.append(f"cycle {self.cycles}: cached {query} differs from its first read")
        self.per_version.append(self.directory.get(NAME).counters_snapshot())
        for query, answer in first_seen.items():
            reference = self.answers.setdefault((version, query), answer)
            if reference.signature() != answer.signature():
                self.problems.append(f"version {version}: {query} answered differently across cycles")
        self.cycles += 1
        self.reads += len(burst)

    def check(self, gate: Gate) -> None:
        gate.problems.extend(self.problems)
        for (version, query), answer in self.answers.items():
            gate.check(self.versions[version], answer, f"version {version} {query.method} {query.vertices}")


def _publish_setups(ctx, base, timeline: Timeline, repeats: int) -> GraphDirectory:
    """Time ``repeats`` first publishes into fresh stores."""
    directory = None
    for repeat in range(repeats):
        root = ctx.work_dir / f"store-{repeat}"
        graph = base.copy()
        timeline.probe()

        def publish():
            fresh = GraphDirectory(config=inputs.search_config(), store=root, sharded=False)
            fresh.add(NAME, graph)
            return fresh

        directory = timeline.time("setup", publish)
        if repeat < repeats - 1:
            shutil.rmtree(root)
    timeline.probe()
    return directory


def run(ctx) -> RunResult:
    result = RunResult(ctx.workload, ctx.seed, ctx.trace)
    bundle = inputs.load_bundle()
    per_community = inputs.community_pairs(bundle, HOT_SETS, ctx.seed)
    methods = inputs.METHODS
    bursts = [
        inputs.read_burst(
            [
                Query(methods[(community + index) % len(methods)], drawn[index])
                for community, drawn in enumerate(per_community)
            ],
            REPEATS,
            ctx.seed * HOT_SETS + index,
        )
        for index in range(HOT_SETS)
    ]
    protected = {vertex for drawn in per_community for pair in drawn for vertex in pair}
    versions = inputs.flipped_versions(bundle.graph, protected, VERSIONS, FLIPS, ctx.seed)
    timeline = ctx.timeline()
    directory = _publish_setups(ctx, bundle.graph, timeline, SETUP_REPEATS)
    gate = Gate()
    cycles = Cycles(directory, versions, bursts, timeline)
    if ctx.trace:
        _traced(ctx, directory, cycles, timeline, result)
    else:
        cycles.run(ctx.seconds, "timed")
        publishes = timeline.normalized("timed-publish")
        result.metrics["p50_ms"] = statistics.median(publishes) * 1e3
        result.raw["p50_ms"] = statistics.median(timeline.raw("timed-publish")) * 1e3
        result.metrics["qps"] = _rotation_qps(timeline, "timed", bursts, normalized=True)
        result.raw["qps"] = _rotation_qps(timeline, "timed", bursts, normalized=False)
    cycles.check(gate)
    result.attempted = cycles.reads + cycles.cycles
    result.failed = cycles.failed
    result.metrics["setup_s"] = statistics.median(timeline.normalized("setup"))
    result.raw["setup_s"] = statistics.median(timeline.raw("setup"))
    result.metrics["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.probe = timeline.probe_summary()
    result.operations = timeline.summary()
    result.problems = gate.problems
    result.notes["distinct_reads_per_cycle"] = [len(set(burst)) for burst in bursts]
    return result


def _cycle_times(timeline: Timeline, kind: str, normalized: bool) -> List[float]:
    """Seconds per cycle: its publish plus its reads."""
    series = timeline.normalized if normalized else timeline.raw
    publishes = series(f"{kind}-publish")
    reads = series(f"{kind}-read")
    per_cycle = len(reads) // len(publishes)
    return [
        publish + sum(reads[index * per_cycle:(index + 1) * per_cycle])
        for index, publish in enumerate(publishes)
    ]


def _rotation_qps(timeline: Timeline, kind: str, bursts: List[List[Query]], normalized: bool) -> float:
    """Reads per second over one rotation of the hot sets that ran, each
    set's cycle taken at the median time of its cycles."""
    per_set: Dict[int, List[float]] = {}
    for index, seconds in enumerate(_cycle_times(timeline, kind, normalized)):
        per_set.setdefault(index % len(bursts), []).append(seconds)
    reads = sum(len(bursts[slot]) for slot in per_set)
    return reads / sum(statistics.median(times) for times in per_set.values())


def _traced(ctx, directory, cycles: Cycles, timeline: Timeline, result: RunResult) -> None:
    """Untraced cycles, then traced cycles with per-version work counts."""
    cycles.run(ctx.seconds * 0.35, "plain")
    plain_cycles = cycles.cycles
    snapshot_path = ctx.work_dir / f"store-{SETUP_REPEATS - 1}" / NAME / "graph.bccsnap"
    counts: List[Dict[str, float]] = []
    store_counters = [directory.store_summary()["counters"]]

    def count_version() -> None:
        engine = cycles.per_version[-1]
        store_counters.append(directory.store_summary()["counters"])
        counts.append(
            {
                "api.csr_freezes": float(engine["csr_freezes"]),
                "api.index_builds": float(engine["index_builds"]),
                "api.group_builds": float(engine["group_builds"]),
                "api.cache_misses": float(engine["result_cache_misses"]),
                "store.persists": float(
                    store_counters[-1]["persists"] - store_counters[-2]["persists"]
                ),
                "store.bytes_written": float(snapshot_path.stat().st_size),
            }
        )

    ledger = ledger_mod.Ledger()
    ledger_mod.install_kernel(ledger)
    ledger_mod.install_publish(ledger)
    probes_before = len(timeline.probes)
    try:
        cycles.run(ctx.seconds * 0.5, "traced", after_cycle=count_version)
    finally:
        ledger.uninstall()
    traced_cycles = cycles.cycles - plain_cycles
    snapshot = ledger.snapshot()["self_seconds"]
    factor = timeline.reference_seconds / statistics.median(timeline.probes[probes_before:])
    per_cycle = factor * 1e3 / traced_cycles
    layers = PUBLISH_LAYERS + KERNEL_LAYERS
    for layer in layers:
        result.metrics[f"{layer}_ms"] = snapshot.get(layer, 0.0) * per_cycle
    result.metrics["bench.unattributed_ms"] = (
        sum(_cycle_times(timeline, "traced", normalized=False))
        - sum(snapshot.get(layer, 0.0) for layer in layers)
    ) * per_cycle
    result.metrics["bench.tracing_overhead_pct"] = 100.0 * (
        statistics.median(_cycle_times(timeline, "traced", normalized=True))
        / statistics.median(_cycle_times(timeline, "plain", normalized=True))
        - 1.0
    )
    first = counts[0]
    mismatches = sorted({name for later in counts[1:] for name in first if later[name] != first[name]})
    result.metrics.update(first)
    reads = len(cycles.bursts[0])
    result.metrics["api.cache_hit_ratio"] = (reads - first["api.cache_misses"]) / reads
    result.metrics["bench.count_mismatches"] = float(len(mismatches))
    result.counts = dict(first)
    if mismatches:
        result.notes["nondeterministic_counts"] = mismatches
    result.notes["traced_cycles"] = traced_cycles

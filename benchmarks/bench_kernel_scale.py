#!/usr/bin/env python
"""Online-, LP- and L2P-BCC at two scales, and on one input over the bit-table budget.

Every kernel claim is made at two scales (ROADMAP item 8).  The tiers:

* **baseline** — perfbench's graph: dblp, seed 2021, 12 × 32 (396 ids,
  4,289 edges);
* **91k** — dblp, seed 2021, 16 × 128 (2,088 ids, 91,253 edges);
* **over-budget** — amazon, seed 1, 400 communities (4,794 ids, 44,193
  edges).  Its adjacency bit table would take 65 bytes per edge, over
  ``BIT_TABLE_BYTES_PER_EDGE``, so the three methods keep set frontiers
  and per-id distance lists there: both sides of the budget have a number.

Each method gets its own prepared engine per tier (a fresh snapshot, so
no method reads another's G0 memo entries or bit table) and searches
``perfbench.inputs.stratified_pairs`` uncached: first one **cold** pass, in
which the G0 memo fills as it goes (its very first search also fills the
snapshot's lazy state: the bit table, and L2P's label-pair χ), then
**warm** passes that hit the memo.  Reported per tier and method: cold and
warm p50/p90, the first search on a fresh snapshot (the median over three
snapshots), G0 builds per 100 pairs (the distinct G0s while
``g0_evictions`` is 0) and the cold pass's memo hit rate, the snapshot's
memo of connected cores (``CSRGraph.core_entries()``: its tables, one per
k, and its component ids per vertex), the RSS after
the method (each tier runs in its own interpreter), and mean F1 against
the generator's communities.  Per tier also: the bit table's bytes per
edge and its fill time on a fresh snapshot, and perfbench's host-speed
probe before and after the tier: the times are raw wall clock, and a
shared host's speed can drift between tiers (a probe above
``reference_probe_ms`` marks a slow spell).

Gate (both modes), before any number is reported: every ``ok`` cold answer
passes ``perfbench/check.py``'s checks — Def. 4 through ``validate_bcc``,
and Def. 5 recomputed by a BFS that shares no code with the program — and
every warm answer equals its cold one, and the warm passes publish no new
connected core; every method fills the table exactly when the tier is
within budget.

Results land in ``benchmarks/results/BENCH_kernel_scale.json`` (a full run
also at the repo root).  Usage::

    PYTHONPATH=src python benchmarks/bench_kernel_scale.py          # full, ~75 s
    PYTHONPATH=src python benchmarks/bench_kernel_scale.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from itertools import chain
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
for path in (REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from reporting import git_sha, write_results  # noqa: E402

from perfbench import inputs  # noqa: E402
from perfbench.check import Answer, Gate  # noqa: E402
from perfbench.probe import REFERENCE_PROBE_SECONDS, fastest  # noqa: E402
from repro.api import BCCEngine, Query  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.eval.metrics import f1_score  # noqa: E402
from repro.graph.csr import BIT_TABLE_BYTES_PER_EDGE, adjacency_bit_rows  # noqa: E402

RESULTS_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_kernel_scale.json"

#: Fresh snapshots whose first search is timed, per tier and method, the
#: cold pass's own included (only that one in smoke mode).
FIRST_SEARCHES = 3

#: name -> (dataset, load_dataset kwargs, pairs per community, pair seed,
#: pair limit, warm passes)
FULL_TIERS = {
    "baseline": ("dblp", {"seed": 2021, "communities": 12, "community_size": 32}, 10, 1, 120, 3),
    "91k": ("dblp", {"seed": 2021, "communities": 16, "community_size": 128}, 3, 41, 48, 2),
    "over-budget": ("amazon", {"seed": 1, "communities": 400}, 1, 1, 48, 3),
}
SMOKE_TIERS = {
    "baseline": ("dblp", {"seed": 2021, "communities": 12, "community_size": 32}, 1, 1, 12, 1),
    "91k": ("dblp", {"seed": 2021, "communities": 16, "community_size": 128}, 1, 41, 4, 1),
    "over-budget": ("amazon", {"seed": 1, "communities": 400}, 1, 1, 4, 1),
}


def percentile(values: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def rss_mb() -> float:
    """This process's resident set now (its peak where /proc is missing)."""
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def bit_table(graph) -> Dict[str, object]:
    """The tier's table size per edge, and its best-of-3 fill on a fresh snapshot."""
    csr = graph.copy().freeze()
    n, m = csr.num_vertices(), csr.num_edges()
    per_edge = n * n / 8 / m
    fill_ms = None
    if per_edge <= BIT_TABLE_BYTES_PER_EDGE:
        slices = csr.adjacency_slices()
        fill_ms = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            adjacency_bit_rows(slices)
            fill_ms = min(fill_ms, (time.perf_counter() - started) * 1000.0)
    return {
        "vertices": n,
        "edges": m,
        "bytes_per_edge": per_edge,
        "within_budget": per_edge <= BIT_TABLE_BYTES_PER_EDGE,
        "fill_ms": fill_ms,
    }


def fresh_engine(graph) -> BCCEngine:
    """A prepared, indexed engine on its own snapshot of ``graph``."""
    engine = BCCEngine(graph.copy(), inputs.search_config()).prepare()
    engine.ensure_index()
    return engine


def first_search_ms(graph, pair, method: str) -> float:
    """The first search of ``pair`` on a fresh snapshot."""
    engine = fresh_engine(graph)
    started = time.perf_counter()
    engine.search(Query(method, pair), use_cache=False)
    return (time.perf_counter() - started) * 1000.0


def run_method(bundle, pairs, method: str, warm_passes: int, first_searches: int, gate: Gate, tier: str):
    """One method's first searches, then its cold and warm passes on one engine.

    The first search is a median over fresh snapshots: one sample is at
    the mercy of a garbage collection landing inside it.
    """
    first_ms = [first_search_ms(bundle.graph, pairs[0], method) for _ in range(first_searches - 1)]
    engine = fresh_engine(bundle.graph)
    cold_ms: List[float] = []
    answers = []
    f1_scores: List[float] = []
    for pair in pairs:
        started = time.perf_counter()
        response = engine.search(Query(method, pair), use_cache=False)
        cold_ms.append((time.perf_counter() - started) * 1000.0)
        answer = Answer.of(response)
        gate.check(bundle.graph, answer, f"{tier} {method} {pair}")
        answers.append(answer)
        truth = bundle.community_for_query(*pair)
        if truth is not None:
            f1_scores.append(f1_score(response.vertices, truth.members) if response.status == "ok" else 0.0)
    counters = engine.counters_snapshot()
    hits, misses = counters["g0_memo_hits"], counters["g0_memo_misses"]
    csr = engine.frozen_graph()
    filled = csr.has_adjacency_bits()
    cores = csr.core_entries()

    warm_ms: List[float] = []
    for _ in range(warm_passes):
        for pair, cold in zip(pairs, answers):
            started = time.perf_counter()
            response = engine.search(Query(method, pair), use_cache=False)
            warm_ms.append((time.perf_counter() - started) * 1000.0)
            gate.same(Answer.of(response), cold, f"{tier} {method} {pair} warm")
    if csr.core_entries() != cores:
        gate.problems.append(f"{tier} {method}: the warm passes published a connected core")
    return {
        "pairs": len(pairs),
        "ok": sum(answer.status == "ok" for answer in answers),
        "first_search_ms": statistics.median(first_ms + cold_ms[:1]),
        "cold_p50_ms": statistics.median(cold_ms),
        "cold_p90_ms": percentile(cold_ms, 0.9),
        "warm_p50_ms": statistics.median(warm_ms),
        "warm_p90_ms": percentile(warm_ms, 0.9),
        "g0_builds_per_100_pairs": 100.0 * misses / len(pairs),
        "g0_evictions": misses - len(csr.g0_entries()),
        "cold_memo_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "core_tables": len(cores),
        "core_ids_per_vertex": sum(map(len, chain.from_iterable(cores.values())))
        / csr.num_vertices(),
        "bit_table_filled": filled,
        "rss_mb": rss_mb(),
        "mean_f1": statistics.fmean(f1_scores) if f1_scores else None,
    }


def run_tier(tier: str, spec, first_searches: int) -> Dict[str, object]:
    """One tier's three methods, gated; returns its report and any problems."""
    dataset, kwargs, per_community, seed, limit, warm_passes = spec
    gate = Gate()
    probe_before = fastest()
    bundle = load_dataset(dataset, **kwargs)
    pairs = inputs.stratified_pairs(bundle, per_community, seed)[:limit]
    methods = {
        method: run_method(bundle, pairs, method, warm_passes, first_searches, gate, tier)
        for method in inputs.METHODS
    }
    table = bit_table(bundle.graph)
    probes_ms = [1000.0 * probe for probe in (probe_before, fastest())]
    for method, row in methods.items():
        if row["bit_table_filled"] != table["within_budget"]:
            gate.problems.append(
                f"{tier} {method}: bit table filled={row['bit_table_filled']}, "
                f"expected {table['within_budget']}"
            )
    return {
        "dataset": dataset,
        "shape": kwargs,
        "pair_seed": seed,
        "warm_passes": warm_passes,
        "host_probe_ms": probes_ms,
        "bit_table": table,
        "methods": methods,
        "problems": gate.problems,
    }


def print_tier(tier: str, report: Dict[str, object]) -> None:
    table = report["bit_table"]
    fill = table["fill_ms"]
    print(
        f"{tier}: {table['vertices']} ids, {table['edges']} edges, "
        f"{table['bytes_per_edge']:.1f} B/edge, table "
        + (f"fill {fill:.2f} ms" if fill is not None else "over budget")
        + ", host probe " + " / ".join(f"{probe:.3f}" for probe in report["host_probe_ms"]) + " ms"
    )
    for method, row in report["methods"].items():
        f1 = row["mean_f1"]
        print(
            f"  {method:<11} {row['pairs']:>3} pairs  first {row['first_search_ms']:8.2f} ms"
            f"  cold p50 {row['cold_p50_ms']:7.2f} p90 {row['cold_p90_ms']:7.2f}"
            f"  warm p50 {row['warm_p50_ms']:7.2f} p90 {row['warm_p90_ms']:7.2f} ms"
            f"  G0/100 {row['g0_builds_per_100_pairs']:5.1f}"
            f"  cores {row['core_tables']:2d} x |V|, {row['core_ids_per_vertex']:4.1f} ids/|V|"
            f"  RSS {row['rss_mb']:5.1f} MB"
            f"  F1 {'-' if f1 is None else f'{f1:.3f}'}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="few pairs, one warm pass, for CI")
    parser.add_argument("--results", default=str(RESULTS_PATH), help="where to write the JSON results")
    parser.add_argument("--tier", help=argparse.SUPPRESS)  # one tier, its report on stdout
    args = parser.parse_args()
    tiers = SMOKE_TIERS if args.smoke else FULL_TIERS
    if args.tier:
        first_searches = 1 if args.smoke else FIRST_SEARCHES
        print(json.dumps(run_tier(args.tier, tiers[args.tier], first_searches)))
        return 0

    # Each tier runs in its own interpreter, so its RSS is its own.
    report: Dict[str, object] = {}
    started = time.perf_counter()
    for tier in tiers:
        command = [sys.executable, __file__, "--tier", tier] + (["--smoke"] if args.smoke else [])
        child = subprocess.run(command, capture_output=True, text=True)
        if child.returncode:
            sys.stderr.write(child.stderr)
            return child.returncode
        report[tier] = json.loads(child.stdout.splitlines()[-1])
        print_tier(tier, report[tier])
    elapsed = time.perf_counter() - started

    problems = [problem for tier in report.values() for problem in tier.pop("problems")]
    for problem in problems:
        print("INCORRECT:", problem, file=sys.stderr)
    if problems:
        return 1
    write_results(
        {
            "benchmark": "kernel_scale",
            "smoke": args.smoke,
            "git_sha": git_sha(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "bit_table_bytes_per_edge": BIT_TABLE_BYTES_PER_EDGE,
            "reference_probe_ms": 1000.0 * REFERENCE_PROBE_SECONDS,
            "elapsed_s": elapsed,
            "tiers": report,
        },
        Path(args.results),
    )
    print(f"correct; {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

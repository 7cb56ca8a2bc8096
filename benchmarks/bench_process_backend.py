"""Process-backend batch throughput vs the single-process threaded path.

Scatter-gathers a compute-bound search trace over a 4-worker
:class:`~repro.parallel.ProcessWorkerPool` (shared-memory CSR, zero-copy)
and times it against the same batch on the threaded in-process path.
**Parity gates the timing**: every process-backend row must equal its
threaded row value-for-value (the wire payload minus timings) before a
single stopwatch starts — a fast wrong answer is a failure, not a result.

Results are written to ``benchmarks/results/BENCH_process.json`` and
mirrored to the repo-root ``BENCH_process.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_process_backend.py          # full
    PYTHONPATH=src python benchmarks/bench_process_backend.py --smoke  # CI

The acceptance floor is a >= 1.5x speed-up over the threaded batch with 4
workers.  Worker processes dodge the GIL, so the floor is an honest
multi-core expectation — and **dishonest on a single-core host**, where
four workers time-slice one CPU and parallelism cannot exceed 1x no
matter the implementation.  When the effective core count is 1 the
benchmark still runs the parity gate and records the measured speed-up,
but reports ``"floor_met": null`` with an explanatory note and exits 0:
the floor is *unevaluable* there, not failed.  ``--smoke`` (CI) asserts
parity at a reduced scale and never enforces the floor.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from reporting import write_results  # noqa: E402

from repro.api import BCCEngine, Query, SearchConfig  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.server.protocol import encode_response  # noqa: E402

RESULTS_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_process.json"

NETWORK = "dblp"
SEED = 2021
WORKERS = 4
FLOOR = 1.5
FULL_SCALE = {"communities": 12, "community_size": 32}
SMOKE_SCALE = {"communities": 6, "community_size": 12}
#: Methods driven by the trace, heaviest first — all pure-Python compute.
TRACE_METHODS = ("online-bcc", "lp-bcc", "l2p-bcc", "ctc", "psa")
TRACE_CONFIG = SearchConfig(b=1, max_iterations=60)


def effective_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux fallback
        affinity = os.cpu_count() or 1
    return max(1, min(affinity, os.cpu_count() or 1))


def build_trace(graph, pairs_per_method: int) -> List[Query]:
    """Distinct cross-label pair queries: compute-bound, cache-proof.

    Every query is unique, so the threaded baseline cannot serve repeats
    from the LRU result cache — both sides pay the full kernel cost and
    the comparison isolates the *transport*.
    """
    pairs = []
    for u, v in graph.cross_edges():
        pairs.append((u, v))
        if len(pairs) >= pairs_per_method * len(TRACE_METHODS):
            break
    queries = []
    for index, pair in enumerate(pairs):
        method = TRACE_METHODS[index % len(TRACE_METHODS)]
        queries.append(Query(method, pair, config=TRACE_CONFIG))
    return queries


def canonical(response) -> Dict[str, object]:
    payload = encode_response(response)
    payload.pop("timings")
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scale, parity-only, no floor enforcement (for CI)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repetitions (best-of)"
    )
    args = parser.parse_args(argv)

    scale = SMOKE_SCALE if args.smoke else FULL_SCALE
    repeats = args.repeats or (1 if args.smoke else 3)
    pairs_per_method = 4 if args.smoke else 12

    bundle = load_dataset(NETWORK, seed=SEED, **scale)
    graph = bundle.graph
    engine = BCCEngine(graph)
    queries = build_trace(graph, pairs_per_method)
    if not queries:
        print("FAIL: the trace is empty (no cross edges)")
        return 1
    print(
        f"[{NETWORK}] |V|={graph.num_vertices()} |E|={graph.num_edges()} "
        f"trace={len(queries)} queries, {WORKERS} workers"
    )

    # ------------------------------------------------------------------
    # Parity gate: process rows == threaded rows, value for value.  The
    # result cache is disabled on both sides so each row pays its kernel.
    # ------------------------------------------------------------------
    threaded_rows = engine.search_many(
        queries, on_error="return", backend="thread", use_cache=False
    )
    process_rows = engine.search_many(
        queries,
        on_error="return",
        backend="process",
        max_workers=WORKERS,
        use_cache=False,
    )
    process_served = engine.counters_snapshot()["process_batches"] >= 1
    mismatches = sum(
        1
        for got, want in zip(process_rows, threaded_rows)
        if canonical(got) != canonical(want)
    )
    if not process_served:
        print("FAIL: the process backend fell back to the threaded path")
        engine.close_process_pool()
        return 1
    if mismatches:
        print(f"FAIL: {mismatches}/{len(queries)} parity mismatches")
        engine.close_process_pool()
        return 1
    print(f"parity gate: {len(queries)}/{len(queries)} rows identical")

    # ------------------------------------------------------------------
    # Timings: threaded batch (GIL-bound baseline) vs 4 process workers.
    # ------------------------------------------------------------------
    def run_threaded() -> None:
        engine.search_many(
            queries,
            on_error="return",
            backend="thread",
            max_workers=WORKERS,
            use_cache=False,
        )

    def run_process() -> None:
        engine.search_many(
            queries,
            on_error="return",
            backend="process",
            max_workers=WORKERS,
            use_cache=False,
        )

    def best_of(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    threaded_s = best_of(run_threaded)
    process_s = best_of(run_process)  # pool is already warm (parity gate)
    speedup = round(threaded_s / process_s, 3) if process_s else 0.0
    pool_stats = engine.process_pool_stats()
    engine.close_process_pool()

    cores = effective_cores()
    single_core = cores <= 1
    if args.smoke:
        floor_met: Optional[bool] = None
        note = "smoke mode: parity asserted, floor not enforced (CI noise)"
    elif single_core:
        floor_met = None
        note = (
            f"single-core host ({cores} effective CPU): {WORKERS} workers "
            "time-slice one core, so a parallel speed-up floor is "
            "physically unevaluable here; the parity gate and crash "
            "semantics are still fully asserted, and the measured "
            "speed-up reflects transport overhead, not the backend's "
            "multi-core behavior"
        )
    else:
        floor_met = speedup >= FLOOR
        note = "floor evaluated on a multi-core host"

    payload = {
        "benchmark": "process_backend",
        "mode": "smoke" if args.smoke else "full",
        "network": NETWORK,
        "seed": SEED,
        "vertices": graph.num_vertices(),
        "edges": graph.num_edges(),
        "trace_queries": len(queries),
        "workers": WORKERS,
        "effective_cores": cores,
        "repeats": repeats,
        "parity_rows": len(queries),
        "parity_mismatches": mismatches,
        "threaded_batch_seconds": threaded_s,
        "process_batch_seconds": process_s,
        "speedup_vs_threaded_batch": speedup,
        "speedup_floor": FLOOR,
        "floor_met": floor_met,
        "note": note,
        "pool": {
            "size": pool_stats["size"] if pool_stats else None,
            "counters": pool_stats["counters"] if pool_stats else None,
        },
    }
    written = write_results(payload, RESULTS_PATH)
    print(
        f"threaded {threaded_s * 1000:.1f}ms | process {process_s * 1000:.1f}ms "
        f"| speedup {speedup:.2f}x (floor {FLOOR}x, cores={cores})"
    )
    for path in written:
        print(f"  wrote {path.relative_to(REPO_ROOT)}")
    if floor_met is None:
        print(f"floor: not evaluated — {note.splitlines()[0]}")
    elif floor_met:
        print("floor: MET")
    else:
        print(f"FAIL: speedup {speedup:.2f}x below the {FLOOR}x floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Batch-serving throughput: sequential vs concurrent ``search_many``.

Serves one repeat-heavy query trace (hot queries recur, as in any real
serving workload) over the largest Table-3 synthetic network through four
engine configurations:

* ``sequential_uncached`` — the pre-concurrency serving path (the baseline);
* ``sequential_cached``   — LRU result cache on;
* ``threaded_uncached``   — ``max_workers=8``, cache off;
* ``threaded_cached``     — ``max_workers=8``, cache on (the full stack).

Every mode must return position-for-position identical answers — the run
asserts parity before reporting a single number.  The headline
``speedup_threaded_batch`` compares the full concurrent stack against the
sequential uncached baseline; the pure thread-pool and pure cache effects
are recorded separately.  On a GIL build serving pure-Python kernels the
thread pool alone cannot beat 1.0x on a single core (recorded honestly as
``speedup_threads_only``) — the stack's gain comes from answering repeated
queries out of the result cache, and grows on multi-core / GIL-releasing
backends.

Results land in ``benchmarks/results/BENCH_batch.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_batch_concurrency.py          # full
    PYTHONPATH=src python benchmarks/bench_batch_concurrency.py --smoke  # CI

``--smoke`` shrinks the network and trace and skips the speed-up floor
(CI runners are too noisy for timing assertions); the full mode records
whether the acceptance floor (threaded batch >= 1.5x) was met.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from reporting import write_results  # noqa: E402

from repro.api import BCCEngine, Query, SearchConfig  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.eval.queries import QuerySpec, generate_query_pairs  # noqa: E402

RESULTS_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_batch.json"

#: The largest (densest) Table-3 synthetic network at full scale; --smoke
#: shrinks it.
LARGEST = "orkut"
FULL_SCALE = {"communities": 8, "community_size": 128}
SMOKE_SCALE = {"communities": 4, "community_size": 20}
SEED = 2021

MAX_WORKERS = 8
METHOD = "lp-bcc"
FLOOR = 1.5  # acceptance: threaded-batch throughput >= 1.5x the baseline

#: Serving-trace shape: ``unique`` distinct query pairs, stretched to
#: ``length`` requests with a skewed repetition pattern (hot pairs recur).
FULL_TRACE = {"unique": 10, "length": 60}
SMOKE_TRACE = {"unique": 4, "length": 12}


def build_trace(bundle, unique: int, length: int) -> List[Query]:
    """A repeat-heavy trace of ``length`` queries over ``unique`` hot pairs."""
    pairs = generate_query_pairs(
        bundle, QuerySpec(count=unique, degree_rank=0.8), seed=3
    )
    config = SearchConfig(b=1, max_iterations=200)
    rng = random.Random(7)
    trace = [Query(METHOD, pair, config=config) for pair in pairs]
    while len(trace) < length:
        # Zipf-ish skew: low-rank (hot) pairs repeat far more often.
        rank = min(int(rng.paretovariate(1.2)) - 1, len(pairs) - 1)
        trace.append(Query(METHOD, pairs[rank], config=config))
    return trace[:length]


def serve_mode(graph, trace: List[Query], *, max_workers: int, cached: bool):
    """Time one fresh engine serving the whole trace; return (responses, s).

    Each mode serves its own frozen copy of the graph: modes sharing one
    snapshot would share its G0 memo, and every mode after the first
    would time warm G0 lookups.
    """
    graph = graph.copy()
    graph.freeze()
    engine = BCCEngine(graph, result_cache_size=256 if cached else 0)
    start = time.perf_counter()
    responses = engine.search_many(
        trace, max_workers=max_workers, on_error="return"
    )
    return responses, time.perf_counter() - start


def assert_parity(baseline, other, mode: str) -> None:
    """Every mode must serve position-aligned answers equal to the baseline."""
    assert len(baseline) == len(other), mode
    for position, (want, got) in enumerate(zip(baseline, other)):
        assert got.status == want.status, (mode, position)
        assert got.vertices == want.vertices, (mode, position)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scale, parity only — no speed-up floor (CI)",
    )
    args = parser.parse_args()

    scale = SMOKE_SCALE if args.smoke else FULL_SCALE
    trace_shape = SMOKE_TRACE if args.smoke else FULL_TRACE
    bundle = load_dataset(LARGEST, seed=SEED, **scale)
    graph = bundle.graph
    trace = build_trace(bundle, **trace_shape)
    print(
        f"{LARGEST}-like network: |V|={graph.num_vertices()} "
        f"|E|={graph.num_edges()}; trace: {len(trace)} queries over "
        f"{trace_shape['unique']} hot pairs ({METHOD})"
    )

    modes = {
        "sequential_uncached": {"max_workers": 1, "cached": False},
        "sequential_cached": {"max_workers": 1, "cached": True},
        "threaded_uncached": {"max_workers": MAX_WORKERS, "cached": False},
        "threaded_cached": {"max_workers": MAX_WORKERS, "cached": True},
    }
    timings: Dict[str, float] = {}
    baseline_responses = None
    for mode, knobs in modes.items():
        responses, seconds = serve_mode(graph, trace, **knobs)
        if baseline_responses is None:
            baseline_responses = responses
        else:
            assert_parity(baseline_responses, responses, mode)
        timings[mode] = seconds
        print(
            f"  {mode:>20}: {seconds:8.3f}s  "
            f"({len(trace) / seconds:7.1f} queries/s)"
        )

    baseline = timings["sequential_uncached"]
    speedups = {
        "speedup_threaded_batch": baseline / timings["threaded_cached"],
        "speedup_threads_only": baseline / timings["threaded_uncached"],
        "speedup_cache_only": baseline / timings["sequential_cached"],
    }
    for name, value in speedups.items():
        print(f"  {name}: {value:.2f}x")

    floor_met = speedups["speedup_threaded_batch"] >= FLOOR
    payload = {
        "benchmark": "batch_concurrency",
        "network": LARGEST,
        "scale": scale,
        "num_vertices": graph.num_vertices(),
        "num_edges": graph.num_edges(),
        "method": METHOD,
        "trace": {**trace_shape, "repeats": len(trace) - trace_shape["unique"]},
        "max_workers": MAX_WORKERS,
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "parity": "all modes position-aligned equal",
        "seconds": timings,
        "queries_per_second": {
            mode: len(trace) / seconds for mode, seconds in timings.items()
        },
        **{name: round(value, 3) for name, value in speedups.items()},
        "floor": FLOOR,
        "floor_met": None if args.smoke else floor_met,
        "note": (
            "threads alone cannot exceed 1.0x for pure-Python kernels on a "
            "single GIL core; the threaded-batch gain comes from the LRU "
            "result cache on the repeat-heavy trace and scales further on "
            "GIL-releasing backends"
        ),
    }
    write_results(payload, RESULTS_PATH)
    print(f"[written to {RESULTS_PATH}]")

    if not args.smoke and not floor_met:
        print(
            f"FAIL: threaded-batch speed-up "
            f"{speedups['speedup_threaded_batch']:.2f}x below {FLOOR}x floor"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Observability overhead: the cost of instrumentation when nobody traces.

The tracing layer's contract (see :mod:`repro.obs.tracing`) is that every
``span(...)`` call site costs one ``ContextVar.get`` when no trace is
active — cheap enough to leave compiled into every hot path.  This bench
puts a number on that promise by serving the same uncached search workload
three ways:

``uninstrumented``
    ``repro.api.engine``'s ``obs_span`` swapped for a factory that returns
    a shared null object without even the ``ContextVar`` lookup — the
    counterfactual engine with no tracing hooks at all.
``tracing_off``
    The shipped engine, no active trace: the production default, and the
    path the acceptance floor governs.
``tracing_on``
    Every search under its own enabled :class:`~repro.obs.tracing.Trace`,
    span tree built and discarded — the worst case an operator opts into.

A micro row also times the raw disabled ``span()`` call so the per-site
cost is visible in nanoseconds, independent of kernel noise.

Results are written to ``benchmarks/results/BENCH_obs.json`` (mirrored to
the repo root by :mod:`reporting`) and echoed as a table.  Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py          # full
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke  # CI

``--smoke`` shrinks the workload to a few searches and one repetition; it
writes the JSON but does not enforce the overhead floor (CI runners are
too noisy for timing assertions).  The full mode records whether the PR's
acceptance floor — tracing-off overhead <= 3% over uninstrumented — was
met.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from reporting import write_results  # noqa: E402

import repro.api.engine as engine_mod  # noqa: E402
from repro.api import BCCEngine, Query  # noqa: E402
from repro.graph.generators import random_labeled_graph  # noqa: E402
from repro.obs.tracing import Trace, span  # noqa: E402

RESULTS_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_obs.json"

#: Acceptance floor: tracing-off may cost at most this much over the
#: uninstrumented engine (full mode only; --smoke skips enforcement).
MAX_OFF_OVERHEAD_PCT = 3.0
SEED = 2021
MICRO_CALLS = 200_000


class _NullCtx:
    """The uninstrumented counterfactual: no ContextVar lookup at all."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_CTX = _NullCtx()


def _null_span(name, **meta):
    return _NULL_CTX


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Return the best wall time of ``repeats`` runs of ``fn`` (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def build_workload(smoke: bool):
    """An engine (result cache off) and a list of distinct cross queries."""
    if smoke:
        graph = random_labeled_graph(60, 0.10, ["A", "B"], seed=SEED)
        limit = 6
    else:
        # Big enough that each search does milliseconds of kernel work —
        # the floor is about overhead on a serving workload, not on the
        # raw per-call cost (the micro row reports that separately).
        graph = random_labeled_graph(400, 0.04, ["A", "B"], seed=SEED)
        limit = 12
    engine = BCCEngine(graph, result_cache_size=0)  # every search runs the kernel
    engine.prepare()
    queries = []
    for pair in graph.cross_edges():
        queries.append(Query("online-bcc", pair))
        if len(queries) >= limit:
            break
    if not queries:
        raise SystemExit("workload graph has no cross edges")
    return engine, queries


def serve_all(engine: BCCEngine, queries: List[Query]) -> None:
    for query in queries:
        engine.search(query)


def bench_modes(engine: BCCEngine, queries: List[Query], repeats: int) -> Dict:
    """Best-of wall time of the batch under each instrumentation mode."""
    serve_all(engine, queries)  # warm the CSR snapshot out of the timings

    shipped_span = engine_mod.obs_span
    engine_mod.obs_span = _null_span
    try:
        uninstrumented_s = best_of(lambda: serve_all(engine, queries), repeats)
    finally:
        engine_mod.obs_span = shipped_span

    tracing_off_s = best_of(lambda: serve_all(engine, queries), repeats)

    def traced() -> None:
        for index, query in enumerate(queries):
            with Trace(f"bench-{index}"):
                engine.search(query)

    tracing_on_s = best_of(traced, repeats)

    def overhead_pct(mode_s: float) -> float:
        if uninstrumented_s <= 0.0:
            return 0.0
        return round((mode_s / uninstrumented_s - 1.0) * 100.0, 2)

    return {
        "searches": len(queries),
        "uninstrumented_s": uninstrumented_s,
        "tracing_off_s": tracing_off_s,
        "tracing_on_s": tracing_on_s,
        "tracing_off_overhead_pct": overhead_pct(tracing_off_s),
        "tracing_on_overhead_pct": overhead_pct(tracing_on_s),
    }


def bench_micro(calls: int) -> Dict:
    """Nanoseconds per call: null factory vs the real disabled ``span()``."""

    def null_calls() -> None:
        for _ in range(calls):
            with _null_span("micro"):
                pass

    def disabled_calls() -> None:
        for _ in range(calls):
            with span("micro"):
                pass

    null_s = best_of(null_calls, 3)
    disabled_s = best_of(disabled_calls, 3)
    return {
        "calls": calls,
        "null_ns_per_call": round(null_s / calls * 1e9, 1),
        "disabled_ns_per_call": round(disabled_s / calls * 1e9, 1),
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload, one repetition, no floor enforcement (for CI)",
    )
    parser.add_argument(
        "--results",
        type=Path,
        default=RESULTS_PATH,
        help="where to write the JSON payload",
    )
    args = parser.parse_args(argv)
    repeats = 1 if args.smoke else 3

    engine, queries = build_workload(args.smoke)
    first = engine.search(queries[0])
    if first.status not in ("ok", "empty"):
        raise SystemExit(f"workload sanity check failed: {first.status!r}")

    modes = bench_modes(engine, queries, repeats)
    micro = bench_micro(MICRO_CALLS // 20 if args.smoke else MICRO_CALLS)

    payload: Dict = {
        "bench": "obs_overhead",
        "mode": "smoke" if args.smoke else "full",
        "repeats": repeats,
        "workload": modes,
        "micro": micro,
        "floors": {
            "max_tracing_off_overhead_pct": MAX_OFF_OVERHEAD_PCT,
            "enforced": not args.smoke,
            "tracing_off_met": (
                modes["tracing_off_overhead_pct"] <= MAX_OFF_OVERHEAD_PCT
            ),
        },
    }
    for path in write_results(payload, args.results):
        print(f"wrote {path}")

    print(json.dumps(payload, indent=2))
    print(
        f"\ntracing off: {modes['tracing_off_overhead_pct']:+.2f}% vs "
        f"uninstrumented ({modes['searches']} searches, best of {repeats}); "
        f"tracing on: {modes['tracing_on_overhead_pct']:+.2f}%; disabled "
        f"span(): {micro['disabled_ns_per_call']:.0f}ns/call"
    )
    if not args.smoke and not payload["floors"]["tracing_off_met"]:
        print(
            "FLOOR MISSED: tracing-off overhead "
            f"{modes['tracing_off_overhead_pct']:.2f}% > "
            f"{MAX_OFF_OVERHEAD_PCT}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Cold start: rebuild-from-scratch vs attach-from-snapshot time-to-ready.

The persistent store (`repro.store`) promises that restarting a serving
process costs an mmap attach, not a CSR freeze + coreness pass + BCindex
build.  This benchmark measures both paths on the orkut-like network and
enforces the contract:

* **time-to-ready** — median over trials of (engine constructed → index
  ready to answer).  The rebuild path freezes the graph, runs core
  decomposition and builds butterfly-degree tables; the attach path opens
  the snapshot (which re-validates every checksum), maps the arrays and
  replays the stored tables;
* **speedup floor** — attach must be at least **10x** faster than rebuild
  (asserted in full runs; reported but not asserted under ``--smoke``,
  where the graph is too small for stable ratios);
* **parity gate** — the attached engine must answer a query set
  identically to the rebuilt engine, with zero CSR freezes.

Results land in ``benchmarks/results/BENCH_store.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_cold_start.py          # full
    PYTHONPATH=src python benchmarks/bench_cold_start.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from reporting import write_results  # noqa: E402

from repro.api import BCCEngine, Query  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.eval.queries import QuerySpec, generate_query_pairs  # noqa: E402
from repro.store import Snapshot, attach_engine, persist_engine  # noqa: E402

RESULTS_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_store.json"

NETWORK = "orkut"
SEED = 2021
METHOD = "l2p-bcc"
SPEEDUP_FLOOR = 10.0

FULL_SHAPE = {"communities": 8, "community_size": 96, "trials": 5, "queries": 8}
SMOKE_SHAPE = {"communities": 2, "community_size": 14, "trials": 3, "queries": 4}


def fresh_graph(shape):
    bundle = load_dataset(
        NETWORK,
        seed=SEED,
        communities=shape["communities"],
        community_size=shape["community_size"],
    )
    return bundle


def time_rebuild(shape) -> float:
    """Seconds from cold graph to ready index, building everything."""
    bundle = fresh_graph(shape)  # regeneration deliberately outside the clock
    started = time.perf_counter()
    engine = BCCEngine(bundle.graph).prepare()
    engine.ensure_index()
    return time.perf_counter() - started


def time_attach(shape, path: Path) -> float:
    """Seconds from cold graph to ready index, attaching the snapshot."""
    bundle = fresh_graph(shape)
    started = time.perf_counter()
    engine = attach_engine(bundle.graph, Snapshot(path))
    engine.ensure_index()
    return time.perf_counter() - started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scale for CI; the 10x floor is reported, not asserted",
    )
    parser.add_argument(
        "--results",
        default=str(RESULTS_PATH),
        help="where to write the JSON results",
    )
    args = parser.parse_args()
    shape = SMOKE_SHAPE if args.smoke else FULL_SHAPE

    bundle = fresh_graph(shape)
    pairs = generate_query_pairs(
        bundle, QuerySpec(count=shape["queries"], degree_rank=0.8), seed=3
    )
    queries = [Query(METHOD, tuple(pair)) for pair in pairs]
    print(
        f"{NETWORK}-like network: |V|={bundle.graph.num_vertices()} "
        f"|E|={bundle.graph.num_edges()}; {shape['trials']} trials, "
        f"{len(queries)} parity queries ({METHOD})"
    )

    # Write the snapshot once from a fully-built engine (the "warm process
    # before the restart"), and record how long persisting costs.
    snapshot_path = RESULTS_PATH.parent / f"{NETWORK}-cold-start.bccsnap"
    snapshot_path.parent.mkdir(parents=True, exist_ok=True)
    reference = BCCEngine(bundle.graph).prepare()
    reference.ensure_index()
    started = time.perf_counter()
    info = persist_engine(reference, snapshot_path)
    persist_seconds = time.perf_counter() - started
    print(
        f"  snapshot: {info['bytes']} bytes, {info['segments']} segments, "
        f"persisted in {persist_seconds * 1000:.1f}ms"
    )

    rebuild_times: List[float] = []
    attach_times: List[float] = []
    for _ in range(shape["trials"]):
        rebuild_times.append(time_rebuild(shape))
        attach_times.append(time_attach(shape, snapshot_path))
    rebuild_median = statistics.median(rebuild_times)
    attach_median = statistics.median(attach_times)
    speedup = rebuild_median / attach_median if attach_median > 0 else float("inf")
    print(
        f"  time-to-ready: rebuild {rebuild_median * 1000:.2f}ms, "
        f"attach {attach_median * 1000:.2f}ms, speedup {speedup:.1f}x"
    )

    # Parity gate: the attached engine answers exactly like the rebuilt one,
    # without ever freezing the graph itself.
    attached_bundle = fresh_graph(shape)
    attached = attach_engine(attached_bundle.graph, Snapshot(snapshot_path))
    mismatches = 0
    for query in queries:
        expected = reference.search(query)
        actual = attached.search(query)
        same = (
            actual.status == expected.status
            and sorted(map(str, actual.community or ()))
            == sorted(map(str, expected.community or ()))
        )
        mismatches += 0 if same else 1
    counters = attached.counters_snapshot()
    print(
        f"  parity: {len(queries) - mismatches}/{len(queries)} identical, "
        f"csr_freezes={counters['csr_freezes']}"
    )

    assert mismatches == 0, f"{mismatches} parity mismatches rebuild vs attach"
    assert counters["csr_freezes"] == 0, "attach path must never freeze"
    if not args.smoke:
        assert speedup >= SPEEDUP_FLOOR, (
            f"attach speedup {speedup:.1f}x is under the "
            f"{SPEEDUP_FLOOR:.0f}x floor"
        )

    results_path = Path(args.results)
    write_results(
        {
            "benchmark": "cold_start",
            "smoke": args.smoke,
            "network": NETWORK,
            "vertices": bundle.graph.num_vertices(),
            "edges": bundle.graph.num_edges(),
            "trials": shape["trials"],
            "snapshot_bytes": info["bytes"],
            "persist_seconds": persist_seconds,
            "rebuild_seconds_median": rebuild_median,
            "attach_seconds_median": attach_median,
            "rebuild_seconds": rebuild_times,
            "attach_seconds": attach_times,
            "speedup": speedup,
            "speedup_floor": SPEEDUP_FLOOR,
            "floor_asserted": not args.smoke,
            "parity_queries": len(queries),
            "parity_mismatches": mismatches,
        },
        results_path,
    )
    snapshot_path.unlink(missing_ok=True)
    print(f"  wrote {results_path}")
    print("cold-start benchmark: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())

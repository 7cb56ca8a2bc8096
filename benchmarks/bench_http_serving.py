#!/usr/bin/env python
"""Loopback HTTP serving: gateway throughput, replicas, and the 429 path.

The gateway (`repro.server.Gateway`) turns the in-process serving tier into
a network service; this benchmark measures what that boundary costs and
what replication buys on a repeat-heavy trace against an orkut-like
network, all over real loopback HTTP:

* **parity gate** — before any number is reported, responses decoded from
  the wire must equal in-process ``GraphDirectory.serve_many`` answers
  position-for-position (communities, reasons, exact ``math.inf``
  distances);
* **throughput, 1 vs N replicas** — concurrent clients hammer
  ``POST /graphs/hot/search``; the replicated directory serves the same
  trace through N engines behind least-loaded routing.  Under CPython's
  GIL the kernels themselves cannot parallelize, so the honest expectation
  is parity-or-better (floor 1.0x): replicas buy reduced lock contention
  and independent result caches, not extra cores;
* **backpressure** — a gateway capped at fewer in-flight slots than the
  offered concurrency must answer ``429`` + ``Retry-After`` for the
  overflow (and still serve every admitted request correctly), proving
  bounded admission engages instead of queueing unboundedly.

Results land in ``benchmarks/results/BENCH_http.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_http_serving.py          # full
    PYTHONPATH=src python benchmarks/bench_http_serving.py --smoke  # CI

``--smoke`` shrinks the network and skips the throughput floor (CI runners
are too noisy for timing assertions); parity and the 429 path are always
asserted.
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from reporting import write_results  # noqa: E402

from repro.api import Query, SearchConfig  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.eval.queries import QuerySpec, generate_query_pairs  # noqa: E402
from repro.server import (  # noqa: E402
    Gateway,
    GatewayClient,
    GatewayOverloadedError,
)
from repro.serving import GraphDirectory  # noqa: E402

RESULTS_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_http.json"

NETWORK = "orkut"
SEED = 2021
METHOD = "lp-bcc"
CONFIG = SearchConfig(b=1, max_iterations=200)
REPLICAS = 4

FULL_SHAPE = {"communities": 4, "community_size": 48}
SMOKE_SHAPE = {"communities": 2, "community_size": 14}
FULL_TRACE = {"unique": 6, "length": 640, "concurrency": 8}
SMOKE_TRACE = {"unique": 2, "length": 16, "concurrency": 4}

#: Replicated throughput floor.  Under CPython's GIL an all-hit trace is
#: HTTP-handling-bound and identical for both modes (ReplicaSet routing
#: adds ~5µs against ~450µs/request), so the truthful expectation is
#: parity; the margin absorbs loopback timing noise (repeat-to-repeat
#: spread is ±4% even for the *same* mode; measured paired ratios sit at
#: 0.96-1.00), and the measured ratio is recorded raw next to it.
FLOOR_REPLICAS = 1.0
NOISE_MARGIN = 0.05

BACKPRESSURE = {"max_in_flight": 2, "offered": 8, "requests": 24}


def build_trace(pairs, unique: int, length: int) -> List[Query]:
    """A repeat-heavy (Zipf-ish) single-graph trace over ``unique`` pairs."""
    rng = random.Random(7)
    hot = [tuple(pair) for pair in pairs[:unique]]
    trace = [Query(METHOD, pair) for pair in hot]
    while len(trace) < length:
        rank = min(int(rng.paretovariate(1.2)) - 1, len(hot) - 1)
        trace.append(Query(METHOD, hot[rank]))
    rng.shuffle(trace)
    return trace[:length]


def assert_parity(local_rows, remote_rows) -> None:
    """Wire-decoded answers must equal in-process answers, field for field."""
    assert len(local_rows) == len(remote_rows)
    for position, (local, remote) in enumerate(zip(local_rows, remote_rows)):
        context = (position, local.method, local.query)
        assert remote.status == local.status, context
        assert remote.reason == local.reason, context
        assert remote.vertices == local.vertices, context
        assert remote.iterations == local.iterations, context
        if math.isinf(local.query_distance):
            assert remote.query_distance == math.inf, context
        else:
            assert remote.query_distance == local.query_distance, context


def drive_gateway(
    gateway: Gateway, trace: List[Query], concurrency: int
) -> float:
    """Hammer ``POST /graphs/hot/search`` from N client threads; seconds."""
    client = GatewayClient(gateway.url, timeout_seconds=120.0)

    def call(query: Query):
        return client.search("hot", query)

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        responses = list(pool.map(call, trace))
    elapsed = time.perf_counter() - start
    assert all(response.status == "ok" for response in responses)
    return elapsed


def measure_modes(
    bundle, trace: List[Query], concurrency: int, repeats: int
) -> Dict[str, float]:
    """Serve the trace with 1 vs N replicas; median-of-``repeats`` seconds.

    Both gateways stay up for the whole measurement and the drives
    alternate single/replicated, so OS-level drift (socket warm-up, page
    cache, CPU frequency) cancels instead of biasing whichever mode ran
    last; the median is the stable estimator for a throughput *ratio*
    (best-of races the two modes' luckiest outliers against each other).
    """
    gateways: Dict[str, Gateway] = {}
    samples: Dict[str, List[float]] = {}
    try:
        for mode, replicas in (("single", 1), ("replicated", REPLICAS)):
            directory = GraphDirectory(config=CONFIG, sharded=False)
            directory.add("hot", bundle, replicas=replicas)
            gateway = Gateway(
                directory, port=0, max_in_flight=max(64, concurrency)
            ).start()
            gateways[mode] = gateway
            # Warm every unique pair on every replica: the measurement is
            # steady-state serving, not one-off freeze/index builds.
            warm_client = GatewayClient(gateway.url, timeout_seconds=120.0)
            for query in {q.vertices: q for q in trace}.values():
                for _ in range(replicas):
                    warm_client.search("hot", query)
        for _ in range(repeats):
            for mode, gateway in gateways.items():
                elapsed = drive_gateway(gateway, trace, concurrency)
                samples.setdefault(mode, []).append(elapsed)
    finally:
        for gateway in gateways.values():
            gateway.stop()
    return samples


def paired_speedup(samples: Dict[str, List[float]]) -> float:
    """Median of per-repeat single/replicated ratios.

    The two modes' drives alternate within each repeat, so pairing them
    cancels the drift both share (CPU frequency ramp-up, background load)
    — the ratio distribution is several times tighter than either mode's
    raw throughput distribution.
    """
    ratios = [
        single / replicated
        for single, replicated in zip(samples["single"], samples["replicated"])
    ]
    return statistics.median(ratios)


def demonstrate_backpressure(bundle, trace: List[Query]) -> Dict[str, object]:
    """Offered concurrency above the in-flight cap must produce 429s.

    The result cache is disabled so every admitted request performs a real
    search (holding its slot long enough for the overflow to be refused) —
    with caching on, requests drain too fast to saturate two slots.
    """
    directory = GraphDirectory(config=CONFIG, sharded=False)
    directory.add("hot", bundle, result_cache_size=0)
    shape = BACKPRESSURE
    with Gateway(
        directory, port=0, max_in_flight=shape["max_in_flight"]
    ) as gateway:
        client = GatewayClient(gateway.url, timeout_seconds=120.0)
        client.search("hot", trace[0])  # pay freeze/index before the storm
        served = 0
        rejected = 0
        retry_after = None

        def call(query: Query) -> str:
            nonlocal retry_after
            try:
                response = client.search("hot", query, use_cache=False)
                assert response.status == "ok"
                return "served"
            except GatewayOverloadedError as refusal:
                retry_after = refusal.retry_after_seconds
                return "rejected"

        requests = [trace[i % len(trace)] for i in range(shape["requests"])]
        with ThreadPoolExecutor(max_workers=shape["offered"]) as pool:
            outcomes = list(pool.map(call, requests))
        served = outcomes.count("served")
        rejected = outcomes.count("rejected")
        counters = gateway.counters_snapshot()
    assert rejected > 0, (
        "offered concurrency above the in-flight cap must trip 429s"
    )
    assert served > 0, "admitted requests must still be served correctly"
    assert counters["rejections"] == rejected
    return {
        "max_in_flight": shape["max_in_flight"],
        "offered_concurrency": shape["offered"],
        "requests": shape["requests"],
        "served": served,
        "rejected_429": rejected,
        "retry_after_seconds": retry_after,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scale, parity + 429 only — no throughput floor (CI)",
    )
    args = parser.parse_args()

    shape = SMOKE_SHAPE if args.smoke else FULL_SHAPE
    trace_shape = SMOKE_TRACE if args.smoke else FULL_TRACE
    bundle = load_dataset(NETWORK, seed=SEED, **shape)
    pairs = generate_query_pairs(
        bundle,
        QuerySpec(count=trace_shape["unique"], degree_rank=0.8),
        seed=3,
    )
    trace = build_trace(pairs, trace_shape["unique"], trace_shape["length"])
    print(
        f"{NETWORK}-like network: |V|={bundle.graph.num_vertices()} "
        f"|E|={bundle.graph.num_edges()}; trace: {len(trace)} queries "
        f"({METHOD}), client concurrency {trace_shape['concurrency']}"
    )

    # ------------------------------------------------------------------
    # Parity gate: the wire changes nothing about the answers.
    # ------------------------------------------------------------------
    parity_directory = GraphDirectory(config=CONFIG, sharded=False)
    parity_directory.add("hot", bundle)
    parity_batch = trace[: min(24, len(trace))] + [
        Query(METHOD, (trace[0].vertices[0], "no-such-vertex"))
    ]
    local_rows = parity_directory.serve_many(
        "hot", parity_batch, on_error="return"
    )
    with Gateway(parity_directory, port=0) as gateway:
        remote_rows = GatewayClient(
            gateway.url, timeout_seconds=120.0
        ).search_many("hot", parity_batch, on_error="return")
    assert_parity(local_rows, remote_rows)
    print(f"  parity: {len(parity_batch)} wire rows equal in-process rows "
          f"(error row included)")

    # ------------------------------------------------------------------
    # Throughput: 1 replica vs N replicas over loopback HTTP.
    # ------------------------------------------------------------------
    samples = measure_modes(
        bundle,
        trace,
        concurrency=trace_shape["concurrency"],
        repeats=1 if args.smoke else 9,
    )
    single_seconds = statistics.median(samples["single"])
    replicated_seconds = statistics.median(samples["replicated"])
    throughput = {
        "single": len(trace) / single_seconds,
        "replicated": len(trace) / replicated_seconds,
    }
    speedup = paired_speedup(samples)
    print(
        f"  throughput: 1 replica {throughput['single']:7.1f} q/s, "
        f"{REPLICAS} replicas {throughput['replicated']:7.1f} q/s "
        f"({speedup:.2f}x)"
    )

    # ------------------------------------------------------------------
    # Backpressure: the 429 path engages under an undersized cap.
    # ------------------------------------------------------------------
    backpressure = demonstrate_backpressure(bundle, trace)
    print(
        f"  backpressure: cap {backpressure['max_in_flight']}, offered "
        f"{backpressure['offered_concurrency']} -> "
        f"{backpressure['rejected_429']}/{backpressure['requests']} requests "
        f"answered 429 (Retry-After {backpressure['retry_after_seconds']}s), "
        f"{backpressure['served']} served"
    )

    floors_met = speedup >= FLOOR_REPLICAS - NOISE_MARGIN
    payload = {
        "benchmark": "http_serving",
        "network": NETWORK,
        "shape": shape,
        "num_vertices": bundle.graph.num_vertices(),
        "num_edges": bundle.graph.num_edges(),
        "method": METHOD,
        "trace": dict(trace_shape, length=len(trace)),
        "replicas": REPLICAS,
        "smoke": args.smoke,
        "parity": "wire rows equal in-process rows position-for-position",
        "throughput_queries_per_second": {
            mode: round(value, 1) for mode, value in throughput.items()
        },
        "seconds": {
            "single": single_seconds,
            "replicated": replicated_seconds,
        },
        "speedup_replicas": round(speedup, 3),
        "floor_replicas": FLOOR_REPLICAS,
        "noise_margin": NOISE_MARGIN,
        "floors_met": None if args.smoke else floors_met,
        "backpressure": backpressure,
        "note": (
            "loopback HTTP/1.1 keep-alive through ThreadingHTTPServer "
            "(TCP_NODELAY on both sides; without it delayed-ACK stalls cap "
            "loopback at ~25 q/s/conn); speedup is the median of per-repeat "
            "paired single/replicated ratios, which cancels shared drift; "
            "pure-Python kernels under the GIL mean replication buys "
            "reduced lock contention and independent result caches "
            "(parity expected, ~2% routing overhead measured), not "
            "core-parallel compute; the 429 path proves bounded admission "
            "engages when offered concurrency exceeds the in-flight cap"
        ),
    }
    write_results(payload, RESULTS_PATH)
    print(f"[written to {RESULTS_PATH}]")

    if not args.smoke and not floors_met:
        print(
            f"FAIL: replicated speedup {speedup:.3f}x below the "
            f"{FLOOR_REPLICAS}x floor (noise margin {NOISE_MARGIN})"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

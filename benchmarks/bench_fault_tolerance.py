#!/usr/bin/env python
"""Fault-tolerant serving: kill 1-of-4 replicas mid-trace, measure the blast.

The fault-tolerance layer (`repro.server.faults` / `resilience`) promises
that one sick replica costs failovers, not answers.  This benchmark proves
it end-to-end over real loopback HTTP:

* **availability** — a seeded :class:`FaultPlan` makes replica 0 fail every
  dispatch from mid-trace on; concurrent clients drive the full trace and
  the fraction answered successfully must stay **above 99%** (with in-set
  failover it is in fact 100% — the assertion leaves room only for
  transport noise);
* **ejection** — by the end of the trace the failing replica must be
  ejected from routing (circuit open) and the set degraded-but-serving;
* **bounded tail** — per-request p99 latency must stay under a bound: a
  failing replica adds one failover hop, never a hang;
* **parity gate** — answers served during the failure storm must equal the
  fault-free in-process answers for every unique query in the trace.

Results land in ``benchmarks/results/BENCH_faults.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_fault_tolerance.py          # full
    PYTHONPATH=src python benchmarks/bench_fault_tolerance.py --smoke  # CI

``--smoke`` shrinks the network and trace; every assertion still runs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List

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
    FaultPlan,
    FaultRule,
    Gateway,
    GatewayClient,
    HealthPolicy,
    RetryPolicy,
)
from repro.serving import GraphDirectory  # noqa: E402

RESULTS_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_faults.json"

NETWORK = "orkut"
SEED = 2021
METHOD = "lp-bcc"
CONFIG = SearchConfig(b=1, max_iterations=200)
REPLICAS = 4
FAILING_REPLICA = 0

FULL_SHAPE = {"communities": 4, "community_size": 48}
SMOKE_SHAPE = {"communities": 2, "community_size": 14}
FULL_TRACE = {"unique": 6, "length": 480, "concurrency": 8}
SMOKE_TRACE = {"unique": 2, "length": 48, "concurrency": 4}

AVAILABILITY_FLOOR = 0.99
P99_BOUND_SECONDS = 2.0


def build_trace(pairs, unique: int, length: int) -> List[Query]:
    """A repeat-heavy single-graph trace over ``unique`` hot pairs."""
    import random

    rng = random.Random(7)
    hot = [tuple(pair) for pair in pairs[:unique]]
    trace = [Query(METHOD, pair) for pair in hot]
    while len(trace) < length:
        rank = min(int(rng.paretovariate(1.2)) - 1, len(hot) - 1)
        trace.append(Query(METHOD, hot[rank]))
    rng.shuffle(trace)
    return trace[:length]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scale for CI; all assertions still run",
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
    unique_queries = list({q.vertices: q for q in trace}.values())
    print(
        f"{NETWORK}-like network: |V|={bundle.graph.num_vertices()} "
        f"|E|={bundle.graph.num_edges()}; trace: {len(trace)} queries "
        f"({METHOD}), {REPLICAS} replicas, "
        f"replica {FAILING_REPLICA} killed mid-trace"
    )

    # Fault-free reference answers (the parity gate).
    reference_directory = GraphDirectory(config=CONFIG, sharded=False)
    reference_directory.add("hot", bundle)
    reference = {
        query.vertices: reference_directory.serve("hot", query)
        for query in unique_queries
    }

    # Replica 0 serves its share of the first half of the trace, then every
    # dispatch to it fails; the circuit must open and routing must heal.
    kill_after = max(1, len(trace) // (REPLICAS * 2))
    plan = FaultPlan(
        [
            FaultRule(
                "replica.search",
                kind="error",
                where={"replica": FAILING_REPLICA},
                after=kill_after,
                message="benchmark: replica killed",
            )
        ]
    )
    directory = GraphDirectory(config=CONFIG, sharded=False)
    directory.add(
        "hot",
        bundle,
        replicas=REPLICAS,
        health_policy=HealthPolicy(failure_threshold=3, ejection_seconds=3600.0),
        fault_plan=plan,
    )
    # Warm every replica's lazy freeze/index directly (bypassing the fault
    # hook, whose call-count schedule must belong to the measured trace).
    replica_set = directory.get("hot")
    for replica_id in range(REPLICAS):
        for query in unique_queries:
            replica_set.replica_engine(replica_id).search(query)

    outcomes: List[str] = []
    latencies: List[float] = []
    with Gateway(
        directory, port=0, max_in_flight=max(64, trace_shape["concurrency"])
    ) as gateway:
        client = GatewayClient(
            gateway.url,
            timeout_seconds=120.0,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_seconds=0.02),
        )

        def call(query: Query):
            start = time.perf_counter()
            try:
                response = client.search("hot", query)
                latencies.append(time.perf_counter() - start)
                expected = reference[query.vertices]
                assert response.status == expected.status, query
                assert response.vertices == expected.vertices, query
                return "served"
            except Exception:
                latencies.append(time.perf_counter() - start)
                return "failed"

        started = time.perf_counter()
        with ThreadPoolExecutor(
            max_workers=trace_shape["concurrency"]
        ) as pool:
            outcomes = list(pool.map(call, trace))
        wall_seconds = time.perf_counter() - started
        stats_payload = gateway.directory.stats_payload()
        health_payload = gateway.health_payload()

    served = outcomes.count("served")
    availability = served / len(outcomes)
    p99 = statistics.quantiles(latencies, n=100)[98]
    hot_stats = stats_payload["graphs"]["hot"]
    failing_health = hot_stats["replicas"][FAILING_REPLICA]["health"]

    print(
        f"  availability: {availability:.4f} ({served}/{len(outcomes)}), "
        f"p99 {p99 * 1000:.1f}ms, wall {wall_seconds:.2f}s"
    )
    print(
        f"  replica {FAILING_REPLICA}: state={failing_health['state']} "
        f"failures={failing_health['failures']} "
        f"ejections={failing_health['ejections']}; "
        f"set failovers={hot_stats['counters']['failovers']}"
    )

    assert availability > AVAILABILITY_FLOOR, (
        f"availability {availability:.4f} under the "
        f"{AVAILABILITY_FLOOR:.0%} floor"
    )
    assert p99 < P99_BOUND_SECONDS, f"p99 {p99:.3f}s exceeds the bound"
    assert failing_health["state"] == "ejected", (
        "the killed replica must end the trace ejected from routing"
    )
    assert hot_stats["counters"]["failovers"] > 0
    assert hot_stats["health"]["state"] == "degraded"
    assert health_payload["status"] == "degraded"

    write_results(
        {
            "benchmark": "fault_tolerance",
            "smoke": args.smoke,
            "network": NETWORK,
            "replicas": REPLICAS,
            "trace_length": len(trace),
            "concurrency": trace_shape["concurrency"],
            "kill_after_dispatches": kill_after,
            "availability": availability,
            "served": served,
            "failed": outcomes.count("failed"),
            "latency_p50_seconds": statistics.median(latencies),
            "latency_p99_seconds": p99,
            "wall_seconds": wall_seconds,
            "failing_replica_health": failing_health,
            "set_counters": hot_stats["counters"],
            "fault_plan": plan.snapshot(),
        },
        RESULTS_PATH,
    )
    print(f"  wrote {RESULTS_PATH.relative_to(REPO_ROOT)}")
    print("fault-tolerance benchmark: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Algorithm 3's two kernels on both sides of their density crossover.

`repro.graph.csr.butterfly_degrees_between` counts butterfly degrees with
packed wedge rows when the cross edges reach |L|·|R| / PACKED_DENSITY, and
with the vertex-priority kernel of Wang et al. below that.  This benchmark
times both kernels on the same local adjacency, for three tiers of input:

* **dense** — the distinct G0s (Algorithm 2) that Online-BCC searches
  build on the dblp 12 × 32 baseline, the graph of perfbench's kernel
  workloads;
* **sparse** — the label pair of amazon at 400 communities (0.45% density)
  and random 2 × 5,000-id graphs at degree 5;
* **sweep** — random graphs across the crossover: 2 × 400 ids from 0.2% to
  30% density, and lopsided 20 × 2,000-id graphs at 5% and 20%.

Per input it reports both kernels' best-of-N time, the kernel the rule
picks, and the picked time over the faster one (1.0: the rule picked the
faster kernel); per tier, the same ratio of the totals.  Gate (both
modes): the entry point and both kernels give equal χ on every input, and
every dense input takes the packed kernel and every sparse one the
vertex-priority kernel.  Timings are reported, never asserted.

Results land in ``benchmarks/results/BENCH_butterfly.json`` (a full run
also at the repo root).  Usage::

    PYTHONPATH=src python benchmarks/bench_butterfly_kernels.py          # full
    PYTHONPATH=src python benchmarks/bench_butterfly_kernels.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import os
import platform
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

from repro.api import BCCEngine, Query  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.eval.queries import QuerySpec, generate_query_pairs  # noqa: E402
from repro.graph.csr import (  # noqa: E402
    PACKED_DENSITY,
    CSRBipartiteView,
    _packed_butterfly_degrees,
    butterfly_degrees_between,
    csr_butterfly_degrees,
)

RESULTS_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_butterfly.json"

FULL_SHAPE = {
    "dblp": {"communities": 12, "community_size": 32},
    "queries": 40,
    "amazon": {"communities": 400},
    "random_ids": 5000,
    "sweep_ids": 400,
    "sweep_densities": [0.002, 0.005, 0.01, 0.02, 0.025, 0.03, 0.05, 0.1, 0.3],
    "lopsided": (20, 2000),
    "repeats": 5,
}
SMOKE_SHAPE = {
    "dblp": {"communities": 4, "community_size": 24},
    "queries": 8,
    "amazon": {"communities": 40},
    "random_ids": 500,
    "sweep_ids": 100,
    "sweep_densities": [0.01, 0.1, 0.3],
    "lopsided": (10, 300),
    "repeats": 1,
}


def local_slices(left, right, adjacency) -> List[List[int]]:
    """The two sides as local ids (left first) with symmetric lists."""
    order = [*left, *right]
    position = dict(zip(order, range(len(order))))
    right_ids = set(right)
    slices: List[List[int]] = [[] for _ in order]
    for v in left:
        for w in adjacency[v]:
            if w in right_ids:
                slices[position[v]].append(position[w])
                slices[position[w]].append(position[v])
    return slices


def best_ms(run, slices, repeats: int) -> float:
    """Best-of-``repeats`` milliseconds of ``run`` on fresh copies of the
    slices (the vertex-priority kernel sorts them in place)."""
    best = float("inf")
    for _ in range(repeats):
        copy = [list(nbrs) for nbrs in slices]
        started = time.perf_counter()
        run(copy)
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def measure(name: str, left, right, adjacency, repeats: int) -> Dict[str, object]:
    """Both kernels and the entry point on one input; χ must agree."""
    left, right = list(left), list(right)
    n_left = len(left)
    slices = local_slices(left, right, adjacency)
    edges = sum(map(len, slices[:n_left]))
    packed = _packed_butterfly_degrees([list(s) for s in slices], n_left)
    wedge = csr_butterfly_degrees(CSRBipartiteView.from_slices([list(s) for s in slices], n_left))
    entry = butterfly_degrees_between(left, right, adjacency)
    assert packed == wedge, f"{name}: the packed and vertex-priority kernels differ"
    assert entry == dict(zip(left + right, packed)), f"{name}: the entry point differs"
    packed_ms = best_ms(lambda s: _packed_butterfly_degrees(s, n_left), slices, repeats)
    wedge_ms = best_ms(
        lambda s: csr_butterfly_degrees(CSRBipartiteView.from_slices(s, n_left)), slices, repeats
    )
    pick = "packed" if PACKED_DENSITY * edges >= n_left * len(right) else "wedge"
    picked_ms = packed_ms if pick == "packed" else wedge_ms
    return {
        "input": name,
        "left": n_left,
        "right": len(right),
        "edges": edges,
        "density": edges / (n_left * len(right)) if left and right else 0.0,
        "pick": pick,
        "packed_ms": packed_ms,
        "wedge_ms": wedge_ms,
        "pick_over_best": picked_ms / min(packed_ms, wedge_ms),
    }


def random_pair(n_left: int, n_right: int, density: float, seed: int):
    """Random sides ``0 .. n_left - 1`` and after, each edge kept with
    probability ``density``."""
    rng = random.Random(seed)
    left, right = range(n_left), range(n_left, n_left + n_right)
    adjacency: Dict[int, List[int]] = {v: [] for v in range(n_left + n_right)}
    for v in left:
        for w in right:
            if rng.random() < density:
                adjacency[v].append(w)
                adjacency[w].append(v)
    return left, right, adjacency


def random_degree_pair(n: int, degree: int, seed: int):
    """2 × ``n`` ids, each left id joined to ``degree`` random right ids."""
    rng = random.Random(seed)
    right = range(n, 2 * n)
    adjacency: Dict[int, List[int]] = {v: [] for v in range(2 * n)}
    for v in range(n):
        for w in rng.sample(right, degree):
            adjacency[v].append(w)
            adjacency[w].append(v)
    return range(n), right, adjacency


def label_pair(graph):
    """The snapshot's two label groups as id lists, and its cross lists."""
    csr = graph.freeze()
    first, second = sorted(set(csr.labels))
    sides = [[v for v, lid in enumerate(csr.labels) if lid == x] for x in (first, second)]
    return sides[0], sides[1], csr.label_split()[1]


def dense_inputs(shape):
    """The distinct G0s of Online-BCC searches on the dblp baseline."""
    bundle = load_dataset("dblp", seed=2021, **shape["dblp"])
    engine = BCCEngine(bundle.graph).prepare()
    pairs = generate_query_pairs(
        bundle, QuerySpec(degree_rank=0.8, inter_distance=1, count=shape["queries"]), seed=1
    )
    for pair in pairs:
        engine.search(Query("online-bcc", tuple(pair)), use_cache=False)
    csr = engine.frozen_graph()
    cross = csr.label_split()[1]
    entries = sorted(csr.g0_entries().values(), key=lambda g0: (len(g0.left), min(g0.left)))
    return [
        (f"dblp G0 {index}", sorted(g0.left), sorted(g0.right), cross)
        for index, g0 in enumerate(entries)
    ]


def tier_summary(rows: List[Dict[str, object]]) -> Dict[str, object]:
    picked = sum(r["packed_ms"] if r["pick"] == "packed" else r["wedge_ms"] for r in rows)
    best = sum(min(r["packed_ms"], r["wedge_ms"]) for r in rows)
    return {
        "inputs": len(rows),
        "packed_picks": sum(r["pick"] == "packed" for r in rows),
        "picked_ms": picked,
        "best_ms": best,
        "pick_over_best": picked / best if best else 1.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small inputs, one repeat, for CI")
    parser.add_argument("--results", default=str(RESULTS_PATH), help="where to write the JSON results")
    args = parser.parse_args()
    shape = SMOKE_SHAPE if args.smoke else FULL_SHAPE
    repeats = shape["repeats"]

    tiers: Dict[str, List[Dict[str, object]]] = {"dense": [], "sparse": [], "sweep": []}
    for name, left, right, adjacency in dense_inputs(shape):
        tiers["dense"].append(measure(name, left, right, adjacency, repeats))
    amazon = load_dataset("amazon", seed=1, **shape["amazon"])
    tiers["sparse"].append(measure("amazon label pair", *label_pair(amazon.graph), repeats))
    n = shape["random_ids"]
    for seed in (1, 2):
        tiers["sparse"].append(
            measure(f"random 2 x {n} at degree 5, seed {seed}", *random_degree_pair(n, 5, seed), repeats)
        )
    n = shape["sweep_ids"]
    for density in shape["sweep_densities"]:
        tiers["sweep"].append(
            measure(f"random 2 x {n} at {density:.1%}", *random_pair(n, n, density, 3), repeats)
        )
    small, large = shape["lopsided"]
    for density in (0.05, 0.2):
        tiers["sweep"].append(
            measure(
                f"lopsided {small} x {large} at {density:.0%}",
                *random_pair(small, large, density, 4),
                repeats,
            )
        )

    summaries = {tier: tier_summary(rows) for tier, rows in tiers.items()}
    for tier, rows in tiers.items():
        s = summaries[tier]
        print(
            f"{tier}: {s['inputs']} inputs, {s['packed_picks']} packed; picked "
            f"{s['picked_ms']:.2f} ms against the faster kernel's {s['best_ms']:.2f} ms "
            f"({s['pick_over_best']:.2f}x)"
        )
        if tier != "dense":
            for r in rows:
                print(
                    f"  {r['input']:<36} {r['density']:7.2%}  packed {r['packed_ms']:8.2f} ms"
                    f"  wedge {r['wedge_ms']:8.2f} ms  pick {r['pick']}"
                )

    assert all(r["pick"] == "packed" for r in tiers["dense"]), "a dense G0 took the wedge kernel"
    assert all(r["pick"] == "wedge" for r in tiers["sparse"]), "a sparse input took the packed kernel"

    write_results(
        {
            "benchmark": "butterfly_kernels",
            "smoke": args.smoke,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "packed_density": PACKED_DENSITY,
            "repeats": repeats,
            "tiers": summaries,
            "inputs": tiers,
        },
        Path(args.results),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

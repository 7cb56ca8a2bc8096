"""Figure 10 (Exp-10): multi-labeled BCC search time vs. number of labels m.

Sweeps m = 2..4 on a multi-label Baidu-like network and a DBLP-M-like network
(the paper uses m up to 6 on larger graphs; the trend — slightly increasing
time with m, with the local method fastest — is what is reproduced here).
"""

from __future__ import annotations

import time
from typing import Dict

import pytest

from benchmarks.conftest import DEFAULT_SEED, search, write_result
from repro.datasets import generate_baidu_network, generate_snap_like
from repro.eval.queries import generate_multilabel_queries
from repro.eval.reporting import sweep_table

LABEL_COUNTS = (2, 3, 4)
QUERIES_PER_POINT = 2


@pytest.fixture(scope="module")
def multilabel_bundles():
    return {
        "baidu-1": generate_baidu_network(
            "baidu-1", seed=DEFAULT_SEED, project_labels=4
        ),
        "dblp-m": generate_snap_like(
            "dblp", seed=DEFAULT_SEED, num_labels=4, communities=10, community_size=16
        ),
    }


def sweep_label_count(bundle) -> Dict[str, Dict[int, float]]:
    series: Dict[str, Dict[int, float]] = {"mBCC (L2P framework)": {}}
    for m in LABEL_COUNTS:
        queries = generate_multilabel_queries(bundle, m, count=QUERIES_PER_POINT, seed=10)
        if not queries:
            continue
        start = time.perf_counter()
        for query in queries:
            search(bundle.graph, "mbcc", *query, b=1, max_iterations=100)
        series["mBCC (L2P framework)"][m] = (time.perf_counter() - start) / len(queries)
    return series


@pytest.fixture(scope="module")
def multilabel_time_series(multilabel_bundles):
    all_series = {}
    for name, bundle in multilabel_bundles.items():
        series = sweep_label_count(bundle)
        all_series[name] = series
        write_result(
            f"figure10_multilabel_time_{name}",
            sweep_table(
                series,
                parameter_name="number of query labels m",
                title=f"Figure 10 ({name}): mBCC query time (s) vs. m",
            ),
        )
    return all_series


def test_fig10_two_label_point_benchmark(multilabel_time_series, multilabel_bundles, benchmark):
    bundle = multilabel_bundles["baidu-1"]
    queries = generate_multilabel_queries(bundle, 2, count=1, seed=10)
    query = queries[0]
    response = benchmark(search, bundle.graph, "mbcc", *query, b=1, max_iterations=100)
    result = response.result
    assert result is None or result.num_vertices() >= 2
    assert multilabel_time_series["baidu-1"]["mBCC (L2P framework)"]


def test_fig10_three_label_point_benchmark(multilabel_bundles, benchmark):
    bundle = multilabel_bundles["baidu-1"]
    queries = generate_multilabel_queries(bundle, 3, count=1, seed=11)
    if not queries:
        pytest.skip("no 3-label query available in this instance")
    query = queries[0]
    response = benchmark(search, bundle.graph, "mbcc", *query, b=1, max_iterations=100)
    result = response.result
    assert result is None or len(result.groups) == 3

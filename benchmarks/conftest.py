"""Shared fixtures and helpers for the benchmark suite.

Every file in this directory regenerates one table or figure of the paper's
evaluation (Section 8).  The synthetic datasets are generated once per
session at a scale a pure-Python implementation can sweep in minutes; the
*shape* of each figure (which method wins, and the trend across the swept
parameter) is what these benchmarks reproduce — see DESIGN.md and
EXPERIMENTS.md.

Each benchmark also writes the regenerated rows/series to
``benchmarks/results/<artifact>.txt`` so the output survives the run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

import pytest

from repro.api import BCCEngine, Query, SearchConfig, SearchResponse
from repro.datasets import DatasetBundle, load_dataset

RESULTS_DIR = Path(__file__).parent / "results"

# The seven evaluation networks of Table 3, generated at benchmark scale.
# Overrides shrink the largest graphs so a full pure-Python sweep stays fast
# while preserving the relative size/density ordering of the paper.
BENCHMARK_NETWORKS: Dict[str, Dict] = {
    "baidu-1": {"name": "baidu-1", "kwargs": {}},
    "baidu-2": {"name": "baidu-2", "kwargs": {}},
    "amazon": {"name": "amazon", "kwargs": {"communities": 14, "community_size": 10}},
    "dblp": {"name": "dblp", "kwargs": {"communities": 12, "community_size": 14}},
    "youtube": {"name": "youtube", "kwargs": {"communities": 10, "community_size": 16}},
    "livejournal": {
        "name": "livejournal",
        "kwargs": {"communities": 10, "community_size": 20},
    },
    "orkut": {"name": "orkut", "kwargs": {"communities": 8, "community_size": 26}},
}

DEFAULT_SEED = 2021


def search(graph, method: str, *vertices, **config) -> SearchResponse:
    """One ``method`` query for ``vertices`` on a fresh engine over ``graph``,
    configured by the :class:`SearchConfig` fields in ``config``."""
    return BCCEngine(graph, SearchConfig(**config)).search(Query(method, vertices))


def write_result(artifact: str, text: str) -> Path:
    """Persist a regenerated table/figure to benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{artifact}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[written to {path}]")
    return path


@pytest.fixture(scope="session")
def benchmark_datasets() -> Dict[str, DatasetBundle]:
    """All seven evaluation networks at benchmark scale (generated once)."""
    bundles: Dict[str, DatasetBundle] = {}
    for key, spec in BENCHMARK_NETWORKS.items():
        bundles[key] = load_dataset(spec["name"], seed=DEFAULT_SEED, **spec["kwargs"])
    return bundles


@pytest.fixture(scope="session")
def dblp_like(benchmark_datasets) -> DatasetBundle:
    """The DBLP-like network used by the parameter sweeps and Table 4."""
    return benchmark_datasets["dblp"]


@pytest.fixture(scope="session")
def baidu_like(benchmark_datasets) -> DatasetBundle:
    """The Baidu-1-like network (ground-truth cross-team projects)."""
    return benchmark_datasets["baidu-1"]


@pytest.fixture(scope="session")
def case_study_datasets() -> Dict[str, DatasetBundle]:
    """The four case-study networks (Exp-6 ... Exp-8, Exp-11)."""
    return {
        name: load_dataset(name, seed=DEFAULT_SEED)
        for name in ("flight", "trade", "fiction", "academic")
    }

"""A seconds-long tiny configuration of every workload, in both modes.

Each run must be correct and emit every metric of its mode's table with its
unit; the traced kernel run must repeat its work counts exactly.
"""

import json
from pathlib import Path

import pytest

from perfbench import batch, gateway, kernel, swap
from perfbench.report import END_TO_END, PER_LAYER, result_line
from perfbench.run import WORKLOADS, Context, _dispatch

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    kernel: {"PAIRS_PER_COMMUNITY": 1, "SETUP_REPEATS": 2, "COUNTING_PAIRS": 3},
    gateway: {"HOT_PAIRS": 2, "ROUND_REQUESTS": 4, "SETUP_REPEATS": 1},
    swap: {"VERSIONS": 2, "REPEATS": 3, "SETUP_REPEATS": 2},
    batch: {"BATCH_SIZE": 4, "SETUP_REPEATS": 1},
}

#: A per-layer metric each workload must exercise (nonzero when traced).
EXERCISED = {
    "kernel-online-bcc": "core.sweep_ms",
    "kernel-lp-bcc": "core.leader_pair_ms",
    "kernel-l2p-bcc": "core.local_search_ms",
    "gateway": "server.deadline_ms",
    "swap": "store.persist_ms",
    "batch": "parallel.worker_busy_ms",
}


@pytest.fixture
def tiny(monkeypatch):
    for module, constants in TINY.items():
        for name, value in constants.items():
            monkeypatch.setattr(module, name, value)


def _run(workload, trace, tmp_path, seed=3):
    ctx = Context(workload, seed, 0.3, trace, ROOT, tmp_path)
    return _dispatch(ctx)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(tiny, tmp_path, workload):
    result = _run(workload, False, tmp_path)
    assert result.correct, result.problems
    payload = json.loads(result_line(result))
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["attempted"] >= 1 and payload["failed"] == 0
    assert {name: m["unit"] for name, m in payload["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in payload["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(tiny, tmp_path, workload):
    result = _run(workload, True, tmp_path)
    assert result.correct, result.problems
    payload = json.loads(result_line(result))
    assert {name: m["unit"] for name, m in payload["metrics"].items()} == PER_LAYER
    assert payload["metrics"][EXERCISED[workload]]["value"] > 0
    assert payload["metrics"]["bench.count_mismatches"]["value"] == 0


def test_work_counts_repeat_for_a_seed(tiny, tmp_path):
    first = _run("kernel-lp-bcc", True, tmp_path)
    second = _run("kernel-lp-bcc", True, tmp_path)
    assert first.counts and first.counts == second.counts
    assert first.counts["core.butterfly_calls"] >= 1

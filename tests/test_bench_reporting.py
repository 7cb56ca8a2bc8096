"""``benchmarks/reporting.write_results``: smoke runs never reach the root."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPORTING = Path(__file__).resolve().parents[1] / "benchmarks" / "reporting.py"


@pytest.fixture
def reporting(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_reporting", REPORTING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    return module


@pytest.mark.parametrize(
    "payload", [{"mode": "smoke", "x": 1}, {"smoke": True, "x": 1}]
)
def test_smoke_payloads_stay_in_the_results_directory(reporting, tmp_path, payload):
    results = tmp_path / "results" / "BENCH_demo.json"
    written = reporting.write_results(payload, results)
    assert written == [results]
    assert json.loads(results.read_text()) == payload
    assert not (tmp_path / "BENCH_demo.json").exists()


@pytest.mark.parametrize(
    "payload", [{"mode": "full", "x": 1}, {"smoke": False, "x": 1}, [1, 2]]
)
def test_full_payloads_are_mirrored_to_the_root(reporting, tmp_path, payload):
    results = tmp_path / "results" / "BENCH_demo.json"
    root = tmp_path / "BENCH_demo.json"
    root.write_text("stale full-mode numbers\n")
    written = reporting.write_results(payload, results)
    assert written == [results, root]
    assert root.read_text() == results.read_text()
    assert json.loads(root.read_text()) == payload


def test_a_smoke_run_keeps_the_full_root_copy(reporting, tmp_path):
    results = tmp_path / "results" / "BENCH_demo.json"
    reporting.write_results({"mode": "full", "value": 3}, results)
    reporting.write_results({"mode": "smoke", "value": 1}, results)
    assert json.loads((tmp_path / "BENCH_demo.json").read_text())["value"] == 3
    assert json.loads(results.read_text())["value"] == 1

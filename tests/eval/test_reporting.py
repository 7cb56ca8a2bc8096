"""Unit tests for reporting / table formatting and instrumentation."""

from __future__ import annotations

import math

from repro.eval.harness import MethodSummary
from repro.eval.instrumentation import SearchInstrumentation
from repro.eval.reporting import (
    breakdown_table,
    figure_table,
    format_float,
    grid_table,
    speedup,
    summaries_to_grid,
    sweep_table,
)


class TestFormatting:
    def test_format_float(self):
        assert format_float(0) == "0"
        assert format_float(0.5) == "0.5000"
        assert format_float(1.23456789, digits=2) == "1.23"
        assert "e" in format_float(1e-9)

    def test_grid_table_contains_all_cells(self):
        table = grid_table(
            ["r1", "r2"],
            ["c1", "c2"],
            {"r1": {"c1": 1.0, "c2": 2.0}, "r2": {"c1": 3.0}},
            title="demo",
        )
        assert "demo" in table
        assert "1.0000" in table and "3.0000" in table
        assert "-" in table  # the missing r2/c2 cell

    def test_sweep_table(self):
        table = sweep_table(
            {"L2P-BCC": {2: 0.1, 3: 0.2}, "Online-BCC": {2: 0.4, 3: 0.5}},
            parameter_name="k",
            title="Figure 8",
        )
        assert "Figure 8" in table and "k" in table
        assert "0.4000" in table

    def test_breakdown_table(self):
        table = breakdown_table(
            {
                "Query distance calculation": {"Online-BCC": 1.5, "LP-BCC": 0.7},
                "#butterfly counting": {"Online-BCC": 30, "LP-BCC": 1},
            },
            title="Table 4",
        )
        assert "Table 4" in table
        assert "Query distance calculation" in table

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        assert speedup(1.0, 0.0) == math.inf
        assert speedup(0.0, 0.0) == 1.0


class TestSummaryGrids:
    def make_summaries(self):
        return {
            "baidu-1": {
                "PSA": MethodSummary("PSA", "baidu-1", 5, 5, 0.4, 0.01),
                "L2P-BCC": MethodSummary("L2P-BCC", "baidu-1", 5, 5, 0.9, 0.002),
            },
            "dblp": {
                "PSA": MethodSummary("PSA", "dblp", 5, 5, 0.5, 0.02),
                "L2P-BCC": MethodSummary("L2P-BCC", "dblp", 5, 5, 0.8, 0.004),
            },
        }

    def test_summaries_to_grid(self):
        grid = summaries_to_grid(self.make_summaries(), metric="avg_f1")
        assert grid["L2P-BCC"]["baidu-1"] == 0.9
        assert grid["PSA"]["dblp"] == 0.5

    def test_figure_table(self):
        text = figure_table(
            self.make_summaries(), metric="avg_seconds", title="Figure 5"
        )
        assert "Figure 5" in text
        assert "baidu-1" in text and "dblp" in text
        assert "L2P-BCC" in text and "PSA" in text


class TestInstrumentation:
    def test_counters_and_timers(self):
        inst = SearchInstrumentation()
        inst.record_butterfly_counting()
        inst.record_butterfly_counting(3)
        inst.record_iteration(deleted=5)
        with inst.time_query_distance():
            pass
        with inst.time_leader_update():
            pass
        inst.add("custom", 2.0)
        payload = inst.as_dict()
        assert payload["butterfly_counting_calls"] == 4
        assert payload["iterations"] == 1
        assert payload["vertices_deleted"] == 5
        assert payload["custom"] == 2.0
        assert payload["query_distance_seconds"] >= 0
        # Wall time is the response's timings["total_seconds"], not a counter.
        assert "total_seconds" not in payload

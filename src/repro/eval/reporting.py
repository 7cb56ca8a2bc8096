"""Plain-text reporting of experiment results in the shape of the paper's artifacts.

The benchmark scripts print, for every table and figure of Section 8, the
same rows/series the paper reports: F1 per (method, dataset) for Figure 4,
seconds per (method, dataset) for Figure 5, seconds per swept parameter value
for Figures 6-10, and the breakdown rows of Table 4.  This module contains
the formatting helpers they share.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.eval.harness import MethodSummary


def format_float(value: float, digits: int = 4) -> str:
    """Format a float compactly (fixed digits, scientific for tiny values)."""
    if value == 0:
        return "0"
    if abs(value) < 10 ** (-digits):
        return f"{value:.2e}"
    return f"{value:.{digits}f}"


def grid_table(
    rows: Sequence[str],
    columns: Sequence[str],
    values: Mapping[str, Mapping[str, float]],
    title: str = "",
    value_digits: int = 4,
) -> str:
    """Format a rows × columns grid of floats (e.g. methods × datasets).

    ``values[row][column]`` supplies each cell; missing cells print as "-".
    """
    col_width = max([12] + [len(str(c)) + 2 for c in columns])
    row_width = max([14] + [len(str(r)) + 2 for r in rows])
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " " * row_width + "".join(f"{str(c):>{col_width}}" for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        cells = []
        for column in columns:
            value = values.get(row, {}).get(column)
            cells.append(
                f"{format_float(value, value_digits):>{col_width}}"
                if value is not None
                else f"{'-':>{col_width}}"
            )
        lines.append(f"{str(row):<{row_width}}" + "".join(cells))
    return "\n".join(lines)


def summaries_to_grid(
    summaries: Mapping[str, Mapping[str, "MethodSummary"]],
    metric: str = "avg_f1",
) -> Dict[str, Dict[str, float]]:
    """Convert ``{dataset: {method: summary}}`` into ``{method: {dataset: value}}``.

    ``metric`` selects which MethodSummary attribute to extract (``avg_f1``
    for Figure 4, ``avg_seconds`` for Figure 5).
    """
    grid: Dict[str, Dict[str, float]] = {}
    for dataset, per_method in summaries.items():
        for method, summary in per_method.items():
            grid.setdefault(method, {})[dataset] = getattr(summary, metric)
    return grid


def figure_table(
    summaries: Mapping[str, Mapping[str, "MethodSummary"]],
    metric: str,
    title: str,
    datasets: Optional[Sequence[str]] = None,
    methods: Optional[Sequence[str]] = None,
) -> str:
    """Format Figure 4/5-style output: methods as rows, datasets as columns."""
    grid = summaries_to_grid(summaries, metric)
    if methods is None:
        methods = sorted(grid)
    if datasets is None:
        dataset_set = set()
        for per_dataset in grid.values():
            dataset_set.update(per_dataset)
        datasets = sorted(dataset_set)
    return grid_table(list(methods), list(datasets), grid, title=title)


def sweep_table(
    series: Mapping[str, Mapping[object, float]],
    parameter_name: str,
    title: str,
    value_digits: int = 4,
) -> str:
    """Format Figures 6-10-style output: methods as rows, parameter values as columns."""
    methods = sorted(series)
    values = set()
    for per_value in series.values():
        values.update(per_value)
    columns = sorted(values, key=lambda v: (isinstance(v, str), v))
    grid = {m: {c: series[m].get(c) for c in columns} for m in methods}
    header = f"{title}  (columns: {parameter_name})"
    return grid_table(methods, [str(c) for c in columns],
                      {m: {str(c): grid[m][c] for c in columns} for m in methods},
                      title=header, value_digits=value_digits)


def breakdown_table(rows: Mapping[str, Mapping[str, float]], title: str) -> str:
    """Format Table 4-style output: breakdown steps as rows, methods as columns."""
    step_names = list(rows)
    methods = sorted({m for per_method in rows.values() for m in per_method})
    return grid_table(step_names, methods, rows, title=title)


def speedup(baseline: float, improved: float) -> float:
    """Return ``baseline / improved`` guarding against division by zero."""
    if improved <= 0:
        return float("inf") if baseline > 0 else 1.0
    return baseline / improved

"""BCC006 — metrics coverage: every incremented counter is declared.

PR 10's observability layer promises that every counter the stack bumps
is scrapeable at ``GET /metrics``.  The runtime half of that promise is
the :class:`repro.obs.metrics.MetricsRegistry` source model; this
checker is the static half: every *literal* counter name passed to one
of the codebase's counter-bump idioms must appear in the
``EXPORTED_COUNTERS`` manifest in ``repro/obs/metrics.py``.  A PR that
adds ``self._count("new_thing")`` without declaring ``"new_thing"``
fails the linter before it ever ships an invisible counter.

Recognized bump shapes (all five are established idioms in this repo):

* ``self._count("name", ...)`` — the leaf-lock counter helper used by
  the engine, router, pool, store, tracer, registry and slow log; the
  first positional argument is the counter name.
* ``self._count_worker(worker, "name")`` — the pool's per-worker row
  bump; the *second* positional argument is the counter name.
* ``gateway.count("name")`` / ``self.gateway.count("name")`` — the
  gateway's public bump.  Restricting the receiver to a terminal
  ``gateway`` keeps ``itertools.count()`` and similar out of scope.
* ``<recv>._counters["name"] += n`` — direct augmented assignment into
  a counters dict with a literal key.
* ``count("name", ...)`` — an engine's counter hook called by a helper it
  was handed to (``ProcessSlot.serve``, the pipeline's G0 memo lookups).

Dynamic names (``self._count(counter)``) are deliberately out of scope —
they forward an already-checked literal from elsewhere.  Files named
``test_*`` are skipped: tests may bump throwaway counters on stubs.  The
manifest is located by anchor (the ``metrics.py`` whose AST assigns
``EXPORTED_COUNTERS``); when no anchor is present in the analyzed set,
the checker stays silent — running the linter over a subtree must not
invent findings about files it was never shown.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Optional, Set, Tuple

from repro.analysis.base import Checker, Project, register_checker
from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile

__all__ = ["MetricsCoverageChecker", "declared_counters"]

_MANIFEST_BASENAME = "metrics.py"
_MANIFEST_NAME = "EXPORTED_COUNTERS"


def _manifest_assignment(tree: ast.AST) -> Optional[ast.Assign]:
    """The ``EXPORTED_COUNTERS = ...`` assignment in ``tree``, if any."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == _MANIFEST_NAME
            for target in node.targets
        ):
            return node
    return None


def declared_counters(tree: ast.AST) -> Optional[FrozenSet[str]]:
    """The string literals inside the ``EXPORTED_COUNTERS`` frozenset.

    Returns ``None`` when the tree has no manifest assignment.  The value
    is read purely lexically — every string constant anywhere inside the
    assigned expression counts — so the manifest must stay a pure
    literal (which is also what lets the runtime test pin it to the live
    name tuples).
    """
    assignment = _manifest_assignment(tree)
    if assignment is None:
        return None
    names: Set[str] = set()
    for node in ast.walk(assignment.value):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return frozenset(names)


def _literal_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _bumped_name(node: ast.AST) -> "Optional[Tuple[str, ast.AST]]":
    """``(counter_name, anchor_node)`` when ``node`` is a counter bump.

    Only literal names are reported; dynamic forwarding returns ``None``.
    """
    if isinstance(node, ast.Call):
        func = node.func
        # self._count("name", ...) — first positional arg.
        if isinstance(func, ast.Attribute) and func.attr == "_count":
            if node.args:
                name = _literal_str(node.args[0])
                if name is not None:
                    return (name, node.args[0])
            return None
        # count("name", ...) — a counter hook passed in as ``count``.
        if isinstance(func, ast.Name) and func.id == "count":
            if node.args:
                name = _literal_str(node.args[0])
                if name is not None:
                    return (name, node.args[0])
            return None
        # self._count_worker(worker, "name") — second positional arg.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "_count_worker"
            and len(node.args) >= 2
        ):
            name = _literal_str(node.args[1])
            if name is not None:
                return (name, node.args[1])
            return None
        # gateway.count("name") / self.gateway.count("name").
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "count"
            and _terminal_attr(func.value) == "gateway"
            and node.args
        ):
            name = _literal_str(node.args[0])
            if name is not None:
                return (name, node.args[0])
        return None
    # <recv>._counters["name"] += n
    if isinstance(node, ast.AugAssign) and isinstance(
        node.target, ast.Subscript
    ):
        target = node.target
        if (
            isinstance(target.value, ast.Attribute)
            and target.value.attr == "_counters"
        ):
            name = _literal_str(target.slice)
            if name is not None:
                return (name, target)
    return None


def _terminal_attr(node: ast.AST) -> Optional[str]:
    """The last path segment of a receiver: ``self.gateway`` -> ``gateway``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@register_checker
class MetricsCoverageChecker(Checker):
    rule = "BCC006"
    name = "metrics-coverage"
    description = (
        "every literal counter name bumped via _count/_count_worker/"
        "gateway.count/count/_counters[...] must be declared in the "
        "EXPORTED_COUNTERS manifest (repro/obs/metrics.py)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        anchor = project.find_anchor(
            _MANIFEST_BASENAME,
            lambda tree: _manifest_assignment(tree) is not None,
        )
        if anchor is None:
            return  # no manifest in the analyzed set: nothing to enforce
        declared = declared_counters(anchor.tree)
        assert declared is not None  # the anchor predicate guarantees it
        for source in project.parsed():
            if source.basename.startswith("test_"):
                continue
            yield from self._check_file(source, declared)

    def _check_file(
        self, source: SourceFile, declared: FrozenSet[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            bump = _bumped_name(node)
            if bump is None:
                continue
            name, anchor = bump
            if name in declared:
                continue
            if source.is_suppressed(anchor.lineno, self.rule):
                continue
            yield self.finding(
                source,
                anchor,
                f"counter {name!r} is incremented but not declared in "
                f"{_MANIFEST_NAME} (repro/obs/metrics.py) — it would "
                f"never appear at /metrics",
            )

"""BCC002 — clock hygiene: wall-clock calls only through injectable seams.

PR 6's whole chaos story rests on determinism: breakers, retries,
deadlines and fault plans all take ``clock=``/``sleep=`` callables so the
chaos suite can drive virtual time and prove exact parity with fault-free
runs.  One bare ``time.sleep`` or ``time.monotonic`` inside the server
package silently reintroduces wall-clock, and one inside the chaos suite
turns a deterministic test flaky.

Two scopes, two strictness levels:

* Files under ``repro/server/``, ``repro/parallel/`` or ``repro/obs/`` —
  ``time.sleep``, ``time.time`` and ``time.monotonic`` may appear **only
  as parameter defaults** (the declared injectable seam, e.g.
  ``def __init__(..., clock: Callable[[], float] = time.monotonic)``).
  Any other reference — call, alias, ``from time import sleep`` — is a
  finding.  ``time.perf_counter`` is deliberately allowed: it measures
  elapsed wall intervals for stats and never gates behavior.  The
  parallel package is in scope because its deadline watchdog and worker
  respawn logic gate behavior on the clock exactly like the server
  package's breakers do — chaos tests drive both on virtual time.  The
  obs package is in scope because traces, slow-query retention and the
  overhead benchmark must all be drivable on fake clocks.
* ``test_chaos.py`` — the three banned names may not appear **at all**,
  defaults included: chaos tests run on fake clocks, full stop.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Set

from repro.analysis.base import Checker, Project, register_checker
from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile

__all__ = ["BANNED_TIME_NAMES", "ClockHygieneChecker"]

#: ``time`` attributes that gate behavior and must ride injectable seams.
BANNED_TIME_NAMES: FrozenSet[str] = frozenset({"sleep", "time", "monotonic"})

_CHAOS_BASENAME = "test_chaos.py"


#: Packages whose behavior-gating clocks must ride injectable seams.
_CLOCKED_PACKAGES = (
    ("repro", "server"),
    ("repro", "parallel"),
    ("repro", "obs"),
)


def _default_nodes(tree: ast.AST) -> Set[int]:
    """ids of expression nodes appearing as function-parameter defaults."""
    allowed: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                for sub in ast.walk(default):
                    allowed.add(id(sub))
    return allowed


@register_checker
class ClockHygieneChecker(Checker):
    rule = "BCC002"
    name = "clock-hygiene"
    description = (
        "no bare time.sleep/time.time/time.monotonic in repro/server/, "
        "repro/parallel/ or repro/obs/ outside injectable parameter "
        "defaults; none at all in test_chaos.py"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for source in project.parsed():
            is_chaos = source.basename == _CHAOS_BASENAME
            if not is_chaos and not source.in_package(*_CLOCKED_PACKAGES):
                continue
            seam_ok = not is_chaos
            allowed = _default_nodes(source.tree) if seam_ok else set()
            yield from self._check_file(source, allowed, is_chaos)

    def _check_file(
        self, source: SourceFile, allowed: Set[int], is_chaos: bool
    ) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in BANNED_TIME_NAMES:
                        if not source.is_suppressed(node.lineno, self.rule):
                            yield self.finding(
                                source,
                                node,
                                self._message(
                                    f"'from time import {alias.name}'",
                                    is_chaos,
                                ),
                            )
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
                and node.attr in BANNED_TIME_NAMES
            ):
                if id(node) in allowed:
                    continue  # a declared injectable seam (parameter default)
                if not source.is_suppressed(node.lineno, self.rule):
                    yield self.finding(
                        source,
                        node,
                        self._message(f"bare time.{node.attr}", is_chaos),
                    )

    def _message(self, what: str, is_chaos: bool) -> str:
        if is_chaos:
            return (
                f"{what} in the chaos suite — chaos tests must run on "
                f"fake clocks only"
            )
        return (
            f"{what} in a clocked package (repro/server/, repro/parallel/, "
            f"repro/obs/) — route wall-clock through an injectable "
            f"clock=/sleep= parameter default"
        )

"""BCC007 — no bare threads in the engine or the kernels.

A deadline is a contextvar token the kernels check (:mod:`repro.deadline`),
so a request's work runs on the thread that owns its budget.  A kernel or
engine call handed to a bare ``threading.Thread`` escapes that: the thread
inherits no contextvars, so its checkpoints never fire, and a caller that
gives up leaves it burning CPU.  Batch fan-out goes through
``serve_batch``'s executor, which copies the caller's context into every
row.

Scope: files under ``repro/api/``, ``repro/core/`` and
``repro/baselines/``.  A call to ``threading.Thread`` (or to ``Thread``
imported from ``threading``, under any alias) is a finding.  The serving
packages (``repro/server/``, ``repro/parallel/``) own their connection and
reader threads and are out of scope.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.base import Checker, Project, register_checker
from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile

__all__ = ["KernelThreadsChecker"]

#: Packages whose code runs under a request's deadline token.
_THREADLESS_PACKAGES = (
    ("repro", "api"),
    ("repro", "core"),
    ("repro", "baselines"),
)


def _thread_aliases(tree: ast.AST) -> Set[str]:
    """Local names bound to ``threading.Thread`` by ``from threading import``."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "threading"
        for alias in node.names
        if alias.name == "Thread"
    }


@register_checker
class KernelThreadsChecker(Checker):
    rule = "BCC007"
    name = "kernel-threads"
    description = (
        "no threading.Thread construction in repro/api/, repro/core/ or "
        "repro/baselines/: work stays on the thread that holds its deadline"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for source in project.parsed():
            if source.in_package(*_THREADLESS_PACKAGES):
                yield from self._check_file(source)

    def _check_file(self, source: SourceFile) -> Iterator[Finding]:
        aliases = _thread_aliases(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            bare = (
                isinstance(func, ast.Attribute)
                and func.attr == "Thread"
                and isinstance(func.value, ast.Name)
                and func.value.id == "threading"
            ) or (isinstance(func, ast.Name) and func.id in aliases)
            if bare and not source.is_suppressed(node.lineno, self.rule):
                yield self.finding(
                    source,
                    node,
                    "bare threading.Thread in the engine or a kernel — it "
                    "escapes the request's deadline token; serve rows on "
                    "the caller's thread or through serve_batch's executor",
                )

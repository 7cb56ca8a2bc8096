"""BCC004 — reason-code and method-registry exhaustiveness.

Two registries in this codebase promise exhaustive coverage elsewhere:

* Every ``REASON_*`` constant in ``exceptions.py`` is part of the wire
  contract and must map to an HTTP status in ``HTTP_STATUS_BY_REASON``.
  A new reason without a status silently falls back to 400 at the edge.
* Every method name registered with ``@register_method`` in
  ``methods.py`` must appear in the parity suite
  (``tests/api/test_parity.py``) — an unregistered-in-parity method ships
  with zero ground-truth coverage.

Both halves check string constants against string constants, so they fire
on the commit that adds the constant, not on the first production query
that trips over it.  Either half skips quietly when its anchor files are
not part of the analyzed set (e.g. linting ``src/`` alone skips the
parity half, since the parity suite lives under ``tests/``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.base import Checker, Project, register_checker
from repro.analysis.findings import Finding

__all__ = ["ReasonExhaustivenessChecker"]

_EXCEPTIONS_BASENAME = "exceptions.py"
_METHODS_BASENAME = "methods.py"
_PARITY_BASENAME = "test_parity.py"
_STATUS_MAP_NAME = "HTTP_STATUS_BY_REASON"
_REGISTER_DECORATOR = "register_method"


def _reason_constants(tree: ast.AST) -> List[Tuple[str, int]]:
    """Module-level ``REASON_X = "literal"`` assignments (name, line)."""
    reasons = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if (
            isinstance(target, ast.Name)
            and target.id.startswith("REASON_")
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            reasons.append((target.id, node.lineno))
    return reasons


def _status_map(tree: ast.AST) -> Optional[ast.Assign]:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == _STATUS_MAP_NAME
            and isinstance(node.value, ast.Dict)
        ):
            return node
    return None


def _status_map_keys(assign: ast.Assign) -> Set[str]:
    keys: Set[str] = set()
    for key in assign.value.keys:
        if isinstance(key, ast.Name):
            keys.add(key.id)
    return keys


def _registered_methods(tree: ast.AST) -> List[Tuple[str, int]]:
    """First-positional string of every ``@register_method(...)`` (name, line)."""
    names = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            if (
                isinstance(decorator, ast.Call)
                and isinstance(decorator.func, ast.Name)
                and decorator.func.id == _REGISTER_DECORATOR
                and decorator.args
                and isinstance(decorator.args[0], ast.Constant)
                and isinstance(decorator.args[0].value, str)
            ):
                names.append((decorator.args[0].value, decorator.lineno))
    return names


def _string_constants(tree: ast.AST) -> Set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


@register_checker
class ReasonExhaustivenessChecker(Checker):
    rule = "BCC004"
    name = "reason-exhaustiveness"
    description = (
        "every REASON_* constant maps to an HTTP status, and every "
        "@register_method name appears in the parity suite"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        yield from self._check_reasons(project)
        yield from self._check_methods(project)

    def _check_reasons(self, project: Project) -> Iterator[Finding]:
        source = project.find_anchor(
            _EXCEPTIONS_BASENAME, lambda tree: _status_map(tree) is not None
        )
        if source is None:
            return
        status_assign = _status_map(source.tree)
        covered = _status_map_keys(status_assign)
        for name, line in _reason_constants(source.tree):
            if name in covered:
                continue
            if source.is_suppressed(line, self.rule):
                continue
            yield Finding(
                file=source.rel,
                line=line,
                col=0,
                rule=self.rule,
                message=(
                    f"{name} has no {_STATUS_MAP_NAME} entry — new reason "
                    f"codes must declare their HTTP status"
                ),
            )

    def _check_methods(self, project: Project) -> Iterator[Finding]:
        methods = project.find_anchor(
            _METHODS_BASENAME, lambda tree: bool(_registered_methods(tree))
        )
        parity = project.find_anchor(_PARITY_BASENAME)
        if methods is None or parity is None:
            return  # parity suite not in this run's file set: skip the half
        known = _string_constants(parity.tree)
        for name, line in _registered_methods(methods.tree):
            if name in known:
                continue
            if methods.is_suppressed(line, self.rule):
                continue
            yield Finding(
                file=methods.rel,
                line=line,
                col=0,
                rule=self.rule,
                message=(
                    f"registered method '{name}' does not appear in the "
                    f"parity suite ({_PARITY_BASENAME})"
                ),
            )

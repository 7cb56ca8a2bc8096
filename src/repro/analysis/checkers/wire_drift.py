"""BCC003 — wire drift: the codec must cover the dataclass fields.

The HTTP gateway's contract is "exact round trips": every field of
``Query``/``BatchQuery``/``SearchResponse`` that is part of the
observable surface must be written by the encoder and restored by the
decoder in ``protocol.py``.  Adding a dataclass field without touching
the codec ships a silent drop — the parity tests only notice if a trace
happens to exercise the new field with a non-default value.

The check is deliberately string-level: for each dataclass field, the
matching ``encode_*``/``decode_*`` function body must mention the field
name as a string constant (the wire key) or attribute access.  That is
exactly how the codec is written — ``payload["vertices"]``,
``response.reason`` — so a missing mention means a missing field, not a
style difference.

Declared server-side-only fields are exempt and documented here:
``SearchResponse.result`` (native result objects never ride the wire —
the observable surface ``vertices``/``iterations``/``query_distance`` is
materialized instead) and ``SearchResponse.instrumentation`` (same
decision, recorded in the protocol module docstring).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.base import Checker, Project, register_checker
from repro.analysis.findings import Finding

__all__ = ["WIRE_CLASSES", "WIRE_EXEMPT_FIELDS", "WireDriftChecker"]

#: dataclass name -> (encoder function, decoder function) in protocol.py.
WIRE_CLASSES: Dict[str, Tuple[str, str]] = {
    "Query": ("encode_query", "decode_query"),
    "BatchQuery": ("encode_batch", "decode_batch"),
    "SearchResponse": ("encode_response", "decode_response"),
}

#: Fields that deliberately stay server-side (see module docstring).
WIRE_EXEMPT_FIELDS: Dict[str, FrozenSet[str]] = {
    "SearchResponse": frozenset({"result", "instrumentation"}),
}

_MODEL_BASENAME = "query.py"
_CODEC_BASENAME = "protocol.py"


def _defines_class(tree: ast.AST, names: Set[str]) -> bool:
    return any(
        isinstance(node, ast.ClassDef) and node.name in names
        for node in ast.walk(tree)
    )


def _defines_function(tree: ast.AST, name: str) -> bool:
    return any(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == name
        for node in ast.walk(tree)
    )


def _class_fields(tree: ast.AST, class_name: str) -> List[Tuple[str, int]]:
    """Annotated field names (with lines) declared directly on the class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            fields = []
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    fields.append((statement.target.id, statement.lineno))
            return fields
    return []


def _function_node(tree: ast.AST, name: str) -> Optional[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node
    return None


def _mentioned_names(function_node: ast.AST) -> Set[str]:
    """String constants and attribute names appearing in the function."""
    mentioned: Set[str] = set()
    for node in ast.walk(function_node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            mentioned.add(node.value)
        elif isinstance(node, ast.Attribute):
            mentioned.add(node.attr)
    return mentioned


@register_checker
class WireDriftChecker(Checker):
    rule = "BCC003"
    name = "wire-drift"
    description = (
        "every Query/BatchQuery/SearchResponse field must be handled by "
        "its encoder and decoder in protocol.py (or be a declared "
        "server-side exemption)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        model = project.find_anchor(
            _MODEL_BASENAME,
            lambda tree: _defines_class(tree, set(WIRE_CLASSES)),
        )
        codec = project.find_anchor(
            _CODEC_BASENAME,
            lambda tree: _defines_function(tree, "encode_query"),
        )
        if model is None or codec is None:
            return  # anchors absent from this run's file set: nothing to say
        for class_name, (encoder, decoder) in sorted(WIRE_CLASSES.items()):
            if not _defines_class(model.tree, {class_name}):
                continue  # this model file doesn't carry the class
            exempt = WIRE_EXEMPT_FIELDS.get(class_name, frozenset())
            fields = _class_fields(model.tree, class_name)
            for side_name in (encoder, decoder):
                side = _function_node(codec.tree, side_name)
                if side is None:
                    yield Finding(
                        file=codec.rel,
                        line=1,
                        col=0,
                        rule=self.rule,
                        message=(
                            f"codec function {side_name}() for {class_name} "
                            f"is missing from {codec.basename}"
                        ),
                    )
                    continue
                mentioned = _mentioned_names(side)
                for field, model_line in fields:
                    if field in exempt or field in mentioned:
                        continue
                    if model.is_suppressed(model_line, self.rule):
                        continue
                    if codec.is_suppressed(side.lineno, self.rule):
                        continue
                    yield Finding(
                        file=codec.rel,
                        line=side.lineno,
                        col=side.col_offset,
                        rule=self.rule,
                        message=(
                            f"{class_name}.{field} is not handled by "
                            f"{side_name}() — wire drift"
                        ),
                    )

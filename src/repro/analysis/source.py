"""Parsed source files and per-line ``# noqa: BCC###`` suppressions.

Every checker works from the same :class:`SourceFile`: the raw text, the
parsed AST, and a map of which rules each line suppresses.  Suppression
follows the flake8 convention:

* ``# noqa`` (bare) silences every rule on that line;
* ``# noqa: BCC001`` or ``# noqa: BCC001, BCC002`` silences only the
  named rules.

A file that does not parse yields a single :data:`RULE_PARSE` finding at
the syntax-error location instead of crashing the run — a broken file in
CI should read as "analysis failed HERE", not as a traceback.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.findings import Finding

__all__ = ["RULE_PARSE", "SourceFile", "load_source", "relative_posix"]

#: Pseudo-rule reported when a file cannot be parsed at all.
RULE_PARSE = "BCC000"

#: Bare ``# noqa`` or ``# noqa: BCC001[, BCC002...]`` (case-insensitive,
#: flake8-style).  The negative lookahead keeps ``# noqabbles`` inert.
_NOQA_RE = re.compile(
    r"#\s*noqa(?!\w)"
    r"(?::\s*(?P<codes>[A-Z]{3}[0-9]{3}(?:\s*,\s*[A-Z]{3}[0-9]{3})*))?",
    re.IGNORECASE,
)


def relative_posix(path: Path, root: Path) -> str:
    """``path`` relative to ``root`` as a POSIX string (absolute if outside)."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.resolve().as_posix()


class SourceFile:
    """One analyzed file: path, text, AST, and the noqa line map."""

    def __init__(self, path: Path, rel: str, text: str) -> None:
        self.path = path
        self.rel = rel
        self.text = text
        self.lines: List[str] = text.splitlines()
        #: line number -> frozenset of suppressed rules, or ``None`` for a
        #: bare ``# noqa`` that suppresses everything on the line.
        self.noqa: Dict[int, Optional[FrozenSet[str]]] = {}
        self.tree: Optional[ast.AST] = None
        self.parse_finding: Optional[Finding] = None
        self._scan_noqa()
        self._parse()

    @property
    def basename(self) -> str:
        return self.path.name

    def _scan_noqa(self) -> None:
        for number, line in enumerate(self.lines, start=1):
            match = _NOQA_RE.search(line)
            if match is None:
                continue
            codes = match.group("codes")
            if codes is None:
                self.noqa[number] = None
            else:
                parsed = frozenset(
                    code.strip().upper() for code in codes.split(",")
                )
                existing = self.noqa.get(number)
                if existing is not None:
                    parsed = parsed | existing
                if number in self.noqa and self.noqa[number] is None:
                    continue  # bare noqa already covers everything
                self.noqa[number] = parsed

    def _parse(self) -> None:
        try:
            self.tree = ast.parse(self.text, filename=str(self.path))
        except SyntaxError as exc:
            self.parse_finding = Finding(
                file=self.rel,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule=RULE_PARSE,
                message=f"file does not parse: {exc.msg}",
            )

    def in_package(self, *packages: Tuple[str, str]) -> bool:
        """Whether the file sits under one of ``packages`` (path-part pairs)."""
        parts = self.path.resolve().parts
        return any(
            parts[i : i + 2] == package
            for package in packages
            for i in range(len(parts) - 1)
        )

    def is_suppressed(self, line: int, rule: str) -> bool:
        """True when ``line`` carries a noqa comment covering ``rule``."""
        if line not in self.noqa:
            return False
        codes = self.noqa[line]
        return codes is None or rule.upper() in codes


def load_source(path: Path, root: Path) -> SourceFile:
    """Read and parse ``path``; never raises on bad syntax (see module doc)."""
    text = path.read_text(encoding="utf-8")
    return SourceFile(path=path, rel=relative_posix(path, root), text=text)

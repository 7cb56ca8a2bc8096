"""``python -m repro.analysis`` — run the invariant checkers over a tree.

Usage::

    python -m repro.analysis [paths...]          # default: src
    python -m repro.analysis --format json src tests
    python -m repro.analysis --baseline analysis-baseline.json src tests
    python -m repro.analysis --baseline B --write-baseline src   # ratchet

Exit codes are CI-shaped:

* ``0`` — no active findings (clean, or everything suppressed/baselined);
* ``1`` — at least one active error-severity finding;
* ``2`` — usage or environment error (bad path, malformed baseline).

``--baseline`` names the committed ratchet file: findings matching a
baseline entry are reported in a separate section and do not fail the
run; anything new does.  ``--write-baseline`` rewrites that file from the
current findings — the way the ratchet tightens after a cleanup.
``--output`` additionally writes the JSON report to a file (the CI
artifact) regardless of the terminal ``--format``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.base import Project, all_checkers
from repro.analysis.baseline import (
    BaselineError,
    load_baseline,
    save_baseline,
    split_findings,
)
from repro.analysis.findings import SEVERITY_ERROR, Finding
from repro.analysis.source import SourceFile, load_source

__all__ = ["Report", "discover_files", "main", "run_analysis"]

#: Directory names never descended into during discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", ".svn", ".tox", ".venv", "venv"}


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: Dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            seen.setdefault(candidate.resolve(), None)
    return sorted(seen)


@dataclass
class Report:
    """Everything one run produced, ready for either output format."""

    files: int
    findings: List[Finding] = field(default_factory=list)  # active
    baselined: List[Finding] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(f.severity == SEVERITY_ERROR for f in self.findings)

    def to_payload(self) -> Dict[str, object]:
        by_rule: Dict[str, int] = {}
        for finding in self.findings:
            by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
        return {
            "version": 1,
            "files": self.files,
            "summary": {
                "active": len(self.findings),
                "baselined": len(self.baselined),
                "by_rule": dict(sorted(by_rule.items())),
            },
            "findings": [f.to_payload() for f in self.findings],
            "baselined": [f.to_payload() for f in self.baselined],
        }

    def render_text(self) -> str:
        lines: List[str] = []
        for finding in self.findings:
            lines.append(finding.render())
        if self.baselined:
            lines.append("")
            lines.append(f"baselined ({len(self.baselined)}):")
            for finding in self.baselined:
                lines.append("  " + finding.render())
        lines.append("")
        noun = "finding" if len(self.findings) == 1 else "findings"
        lines.append(
            f"{len(self.findings)} {noun} "
            f"({len(self.baselined)} baselined) in {self.files} files"
        )
        return "\n".join(lines)


def run_analysis(
    files: Sequence[Path],
    root: Optional[Path] = None,
    baseline_path: Optional[Path] = None,
) -> Report:
    """Parse ``files``, run every registered checker, apply the baseline."""
    root = root or Path.cwd()
    sources: List[SourceFile] = [load_source(path, root) for path in files]
    project = Project(sources)

    findings: List[Finding] = []
    for source in sources:
        if source.parse_finding is not None:
            findings.append(source.parse_finding)
    for checker in all_checkers():
        findings.extend(checker.check(project))
    findings.sort(key=Finding.sort_key)

    if baseline_path is not None:
        baseline = load_baseline(baseline_path)
        active, baselined = split_findings(findings, baseline)
    else:
        active, baselined = findings, []
    return Report(files=len(sources), findings=active, baselined=baselined)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant linter (BCC001..BCC007).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="baseline file: matching findings are reported but do not fail",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the --baseline file from the current findings and exit 0",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the JSON report to FILE (the CI artifact)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    options = parser.parse_args(argv)
    if options.write_baseline and options.baseline is None:
        parser.error("--write-baseline requires --baseline FILE")

    try:
        files = discover_files([Path(p) for p in options.paths])
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if options.write_baseline:
        # Collect raw findings (no baseline applied) and persist them.
        report = run_analysis(files)
        save_baseline(options.baseline, report.findings)
        print(
            f"wrote {len(report.findings)} findings to {options.baseline}",
            file=sys.stderr,
        )
        return 0

    try:
        report = run_analysis(files, baseline_path=options.baseline)
    except BaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if options.output is not None:
        options.output.write_text(
            json.dumps(report.to_payload(), indent=2) + "\n", encoding="utf-8"
        )
    if options.format == "json":
        print(json.dumps(report.to_payload(), indent=2))
    else:
        print(report.render_text())
    return 1 if report.failed else 0

"""AST-based invariant linter for this repository's hard-won guarantees.

Seven rules, each grounded in an invariant an earlier PR paid for at
runtime (locks, fake clocks, exact wire round-trips, snapshot schema,
exported counters, cooperative deadlines) and enforced here statically,
at the commit that would break it:

======  ======================  ==============================================
Rule    Name                    Invariant
======  ======================  ==============================================
BCC001  lock-discipline         guarded fields only under their ``with`` lock
BCC002  clock-hygiene           wall clocks only through injectable seams
BCC003  wire-drift              codec covers every wire dataclass field
BCC004  reason-exhaustiveness   reasons map to HTTP; methods are parity-tested
BCC005  snapshot-schema         snapshot writer/reader segment names agree
BCC006  metrics-coverage        every counter bump names an exported counter
BCC007  kernel-threads          no bare threads in the engine or the kernels
======  ======================  ==============================================

Run it with ``python -m repro.analysis [paths...]`` (see
:mod:`repro.analysis.cli`), suppress a single line with
``# noqa: BCC00x`` plus a justification, and grandfather legacy findings
with the committed baseline file (``--baseline`` / ``--write-baseline``)
— the ratchet that lets the rules land strict without blocking on a full
cleanup.
"""

from repro.analysis.base import Checker, Project, all_checkers, register_checker
from repro.analysis.baseline import load_baseline, save_baseline, split_findings
from repro.analysis.cli import Report, discover_files, main, run_analysis
from repro.analysis.findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding
from repro.analysis.source import RULE_PARSE, SourceFile, load_source

__all__ = [
    "Checker",
    "Finding",
    "Project",
    "RULE_PARSE",
    "Report",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "SourceFile",
    "all_checkers",
    "discover_files",
    "load_baseline",
    "load_source",
    "main",
    "register_checker",
    "run_analysis",
    "save_baseline",
    "split_findings",
]

"""Meta-test: the shipped tree itself passes the linter with no baseline.

This is the ratchet's anchor: ISSUE 8 requires the baseline to ship
*empty* for ``src/`` — real findings (like the old unlocked counter read
in ``BCCEngine.__repr__``) were fixed, not grandfathered.  If a future
change violates an invariant, this test fails locally exactly like the
CI ``analysis`` job does.
"""

import json
from pathlib import Path

from repro.analysis import all_checkers, discover_files, run_analysis

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "analysis-baseline.json"


def _findings_over(*trees: str):
    files = discover_files([REPO_ROOT / tree for tree in trees])
    report = run_analysis(files, root=REPO_ROOT)
    return report.findings


def test_all_seven_rules_are_registered():
    rules = [checker.rule for checker in all_checkers()]
    assert rules == [
        "BCC001", "BCC002", "BCC003", "BCC004", "BCC005", "BCC006", "BCC007"
    ]


def test_src_has_zero_findings():
    findings = _findings_over("src")
    assert findings == [], "\n".join(f.render() for f in findings)


def test_src_and_tests_have_zero_findings():
    # The full CI scope: cross-file rules (method parity, chaos-suite
    # clock strictness) only see both halves when src and tests run
    # together.
    findings = _findings_over("src", "tests")
    assert findings == [], "\n".join(f.render() for f in findings)


def test_committed_baseline_is_empty():
    payload = json.loads(BASELINE.read_text(encoding="utf-8"))
    assert payload == {"version": 1, "findings": []}

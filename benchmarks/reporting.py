"""Shared result-writing for the standalone benchmark scripts.

Every bench writes its JSON payload to ``benchmarks/results/`` (the
git-ignored working directory).  A full-mode payload is also mirrored to a
repo-root ``BENCH_<name>.json`` — the stable, discoverable location the
acceptance checks read, with no knowledge of the bench's internal layout.
A smoke payload (``"mode": "smoke"`` or ``"smoke": true``) stays in the
results directory only, so a quick parity run never overwrites the
full-mode numbers at the root.  One helper keeps the copies byte-identical.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent


def git_sha() -> Optional[str]:
    """The checkout's commit, ``-dirty`` when tracked files differ from it.

    ``None`` outside a git checkout (an exported tree) or without git.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "diff", "--quiet", "HEAD"], cwd=REPO_ROOT, capture_output=True
        ).returncode
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha + ("-dirty" if dirty else "")


def is_smoke(payload: object) -> bool:
    """Whether ``payload`` is marked as a smoke run."""
    return isinstance(payload, dict) and (
        payload.get("mode") == "smoke" or payload.get("smoke") is True
    )


def write_results(payload: object, results_path: Path) -> List[Path]:
    """Write ``payload`` as JSON to ``results_path``; mirror full runs repo-root.

    The mirror keeps the results file's own basename (``BENCH_*.json``),
    so a bench invoked with a custom ``--results`` path still lands a
    root copy under its canonical name.  Returns the written paths,
    results-directory copy first.
    """
    text = json.dumps(payload, indent=2) + "\n"
    results_path = Path(results_path)
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(text, encoding="utf-8")
    written = [results_path]
    if not is_smoke(payload):
        root_copy = REPO_ROOT / results_path.name
        root_copy.write_text(text, encoding="utf-8")
        written.append(root_copy)
    return written

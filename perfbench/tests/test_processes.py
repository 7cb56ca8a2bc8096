"""No process a run starts outlives it.

The run gets a session of its own; once it has exited, no process of that
session may remain, running or as an unreaped zombie.  The batch workload
spawns pool workers and, with them, the multiprocessing resource tracker,
so it is the run most likely to leave one behind.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _session_members(sid):
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        state, _ppid, _pgrp, session = stat[stat.rindex(")") + 2:].split()[:4]
        if int(session) == sid:
            members.append((int(entry), state))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads sessions from /proc")
def test_batch_run_leaves_no_process():
    command = [sys.executable, "perfbench/run.py", "--workload", "batch",
               "--seed", "1", "--seconds", "0.3", "--trace", "0"]
    run = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, start_new_session=True)
    out, err = run.communicate(timeout=170)
    assert run.returncode == 0, err
    assert json.loads(out.splitlines()[-1])["correct"]
    assert _session_members(run.pid) == []

"""The pool watchdog against a stopped worker, at every deadline tier.

A worker SIGSTOPped at dispatch never replies and never dies, so only
the pool's watchdog can free its row: ``deadline_ms`` plus the grace
period after the send, it must kill the worker, answer the row
``reason="deadline-exceeded"`` and respawn.  The deadline rides each
config tier in turn (call, query, batch, engine base).  A row inheriting
the engine base travels to the pool as ``None``, so the watchdog must
resolve it against the pool's own base config.  And the kill must be a
SIGKILL: a stopped process never acts on SIGTERM, so a terminate() would
leave it alive and make the respawn sit out the whole shutdown join.

The batch runs on a thread joined with a timeout, and teardown SIGKILLs
the stopped pid, so a regression fails the test instead of hanging it.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.api import BCCEngine, BatchQuery, Query, SearchConfig
from repro.datasets import load_dataset
from repro.eval.queries import QuerySpec, generate_query_pairs

pytestmark = [pytest.mark.parallel, pytest.mark.chaos]

#: The pool's shutdown join (seconds): a row freed by a SIGTERM that a
#: stopped worker ignores arrives only after it.
SHUTDOWN_JOIN_SECONDS = 5.0

#: How long the test waits for the batch before declaring it hung.
HANG_SECONDS = 30.0

DEADLINE = SearchConfig(b=1, deadline_ms=200)
PLAIN = SearchConfig(b=1)


class StopFirstDispatch:
    """Fault hook: once armed, SIGSTOP the worker of the next dispatch."""

    def __init__(self):
        self.armed = False
        self.pid = None

    def on(self, site, **attrs):
        if site == "pool.dispatch" and self.armed and self.pid is None:
            self.pid = attrs["pid"]
            os.kill(self.pid, signal.SIGSTOP)


def pid_exists(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.fixture(scope="module")
def dblp():
    bundle = load_dataset("dblp", seed=2021, communities=4, community_size=16)
    pairs = generate_query_pairs(bundle, QuerySpec(count=2), seed=3)
    return bundle.graph, pairs


@pytest.mark.parametrize("tier", ["call", "query", "batch", "base"])
def test_watchdog_kills_a_stopped_worker(dblp, tier):
    graph, pairs = dblp
    stopper = StopFirstDispatch()
    engine = BCCEngine(
        graph, DEADLINE if tier == "base" else PLAIN, fault_plan=stopper
    )
    batch = BatchQuery(
        queries=tuple(
            Query("online-bcc", pair, config=DEADLINE if tier == "query" else None)
            for pair in pairs
        ),
        config=DEADLINE if tier == "batch" else None,
    )

    def serve():
        return engine.search_many(
            batch,
            config=DEADLINE if tier == "call" else None,
            backend="process",
            max_workers=2,
            on_error="return",
        )

    box = {}

    def run():
        try:
            box["rows"] = serve()
        except Exception as exc:  # reported by the assertions below
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    try:
        serve()  # spawn both workers first, so the timed batch pays no spawn
        stopper.armed = True
        start = time.monotonic()
        thread.start()
        thread.join(HANG_SECONDS)
        elapsed = time.monotonic() - start
        assert not thread.is_alive(), f"batch still blocked after {HANG_SECONDS}s"
        assert "error" not in box, box.get("error")
        rows = box["rows"]
        assert len(rows) == 2
        assert rows[0].status == "error"
        assert rows[0].reason == "deadline-exceeded"
        assert rows[1].status != "error"
        assert elapsed < SHUTDOWN_JOIN_SECONDS
        assert engine.process_pool_stats()["counters"]["deadline_kills"] == 1
        assert stopper.pid is not None and not pid_exists(stopper.pid)
    finally:
        if stopper.pid is not None and pid_exists(stopper.pid):
            os.kill(stopper.pid, signal.SIGKILL)
        thread.join(HANG_SECONDS)
        engine.close_process_pool()

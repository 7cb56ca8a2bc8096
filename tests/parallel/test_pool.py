"""ProcessWorkerPool: zero-copy transport, parity, deadlines, crash safety.

Everything here runs against real spawned worker processes — these tests
are the subsystem's ground truth, below the engine/serving integration in
``test_process_engine.py``.  The chaos cases SIGKILL live workers and
assert the batch still completes position-aligned with bounded wall
clock: a killed worker must cost at most its in-flight task, never a
hang.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.api import BCCEngine, Query, SearchConfig
from repro.exceptions import (
    DeadlineExceededError,
    StoreError,
    VertexNotFoundError,
    WorkerCrashedError,
)
from repro.parallel import (
    ProcessBackendUnavailable,
    ProcessWorkerPool,
    attach_graph,
    export_graph,
    shared_memory_available,
)
from repro.server.protocol import encode_config, encode_response
from repro.store import SnapshotWriter

pytestmark = pytest.mark.parallel


def cross_pairs(graph, limit):
    """Up to ``limit`` (left, right) cross-label query pairs."""
    pairs = []
    for u, v in graph.cross_edges():
        pairs.append((u, v))
        if len(pairs) >= limit:
            break
    return pairs

#: Generous wall-clock ceiling for "the batch never hangs" assertions —
#: orders of magnitude above the honest cost of these tiny batches, far
#: below any timeout a wedged gather would hit.
NO_HANG_SECONDS = 60.0


def canonical(response):
    """The wire payload minus timings: the value-for-value parity surface."""
    payload = encode_response(response)
    payload.pop("timings")
    return payload


class FirstDispatchKiller:
    """Fault hook: SIGKILL the worker handling the first dispatched task."""

    def __init__(self):
        self.fired = False
        self.killed_pid = None

    def on(self, site, **attrs):
        if site == "pool.dispatch" and not self.fired:
            self.fired = True
            self.killed_pid = attrs["pid"]
            os.kill(attrs["pid"], signal.SIGKILL)


def test_shared_memory_is_available_here():
    # The rest of the suite assumes the substrate; fail loudly if the
    # environment lost /dev/shm rather than skipping everything silently.
    assert shared_memory_available()


def test_export_attach_roundtrip(pair_graph):
    export = export_graph(pair_graph, encode_config(SearchConfig()))
    try:
        attachment = attach_graph(export.handle)
        try:
            thawed = attachment.graph
            assert thawed.num_vertices() == pair_graph.num_vertices()
            assert thawed.num_edges() == pair_graph.num_edges()
            # The frozen CSR is the snapshot's, backed by the block itself.
            assert thawed.freeze() is attachment.snapshot.as_csr_graph()
            assert isinstance(thawed.freeze().neighbors, memoryview)
            for vertex in pair_graph.vertices():
                assert thawed.label(vertex) == pair_graph.label(vertex)
                assert set(thawed.neighbors(vertex)) == set(
                    pair_graph.neighbors(vertex)
                )
        finally:
            attachment.release()
    finally:
        export.close()


def test_export_holds_the_snapshot_file_bytes(pair_graph, tmp_path):
    path = tmp_path / "graph.bccsnap"
    SnapshotWriter(path, butterfly_pairs="none").write(pair_graph)
    export = export_graph(pair_graph)
    try:
        image = bytes(export.block.buf[: export.handle.size])
    finally:
        export.close()
    assert image == path.read_bytes()


def test_corrupted_export_fails_the_snapshot_checks(pair_graph):
    export = export_graph(pair_graph)
    try:
        export.block.buf[export.handle.size - 1] ^= 0xFF  # the last segment
        with pytest.raises(StoreError, match="checksum mismatch"):
            attach_graph(export.handle)
    finally:
        export.close()


def test_pool_parity_with_sequential_engine(pair_graph):
    engine = BCCEngine(pair_graph).prepare()
    queries = [
        Query("online-bcc", pair) for pair in cross_pairs(pair_graph, 6)
    ]
    expected = [engine.search(query) for query in queries]
    with ProcessWorkerPool(pair_graph, engine.config, workers=2) as pool:
        got = pool.run_batch([(q, None, None) for q in queries])
    assert [canonical(r) for r in got] == [canonical(r) for r in expected]


def test_caller_error_rows_are_position_aligned(pair_graph):
    engine = BCCEngine(pair_graph).prepare()
    pair = cross_pairs(pair_graph, 1)[0]
    queries = [
        Query("online-bcc", pair),
        Query("online-bcc", ("no-such-vertex", pair[1])),
        Query("definitely-not-a-method", pair),
        Query("online-bcc", pair),
    ]
    expected = engine.search_many(queries, on_error="return")
    with ProcessWorkerPool(pair_graph, engine.config, workers=2) as pool:
        got = pool.run_batch([(q, None, None) for q in queries])
    assert [canonical(r) for r in got] == [canonical(r) for r in expected]
    assert got[1].status == "error" and got[1].reason == "missing-query-vertex"
    assert got[2].status == "error" and got[2].reason == "unknown-method"


def test_caller_errors_raise_under_raise_policy(pair_graph):
    pair = cross_pairs(pair_graph, 1)[0]
    with ProcessWorkerPool(pair_graph, SearchConfig(), workers=1) as pool:
        with pytest.raises(VertexNotFoundError):
            pool.run_batch(
                [(Query("online-bcc", ("ghost", pair[1])), None, None)],
                on_error="raise",
            )
        # The pool survives the raise: later batches still serve.
        rows = pool.run_batch([(Query("online-bcc", pair), None, None)])
        assert rows[0].status in ("ok", "empty")


def test_deadline_becomes_error_row(slow_graph):
    pair = cross_pairs(slow_graph, 1)[0]
    # A deadline far below this graph's real query cost (~tens of ms):
    # the worker's own run_with_deadline trips and reports the row — no
    # kill involved.  use_cache=False so the second run can't be served
    # from the worker's result cache before the deadline engages.
    config = SearchConfig(deadline_ms=0.0001)
    with ProcessWorkerPool(slow_graph, SearchConfig(), workers=1) as pool:
        rows = pool.run_batch(
            [(Query("online-bcc", pair), config, None)], use_cache=False
        )
        assert rows[0].status == "error"
        assert rows[0].reason == "deadline-exceeded"
        with pytest.raises(DeadlineExceededError):
            pool.run_batch(
                [(Query("online-bcc", pair), config, None)],
                on_error="raise",
                use_cache=False,
            )


@pytest.mark.chaos
def test_sigkill_mid_batch_never_hangs(pair_graph):
    queries = [
        Query("online-bcc", pair) for pair in cross_pairs(pair_graph, 6)
    ]
    killer = FirstDispatchKiller()
    start = time.monotonic()
    with ProcessWorkerPool(
        pair_graph, SearchConfig(), workers=2, fault_plan=killer
    ) as pool:
        rows = pool.run_batch([(q, None, None) for q in queries])
        elapsed = time.monotonic() - start
        assert elapsed < NO_HANG_SECONDS
        assert len(rows) == len(queries)
        # The kill costs at most the one in-flight task; every other row
        # is a real answer.  (A kill that lands before the send is
        # detected as a broken pipe and the task is retried — zero rows.)
        errors = [r for r in rows if r.status == "error"]
        assert len(errors) <= 1
        for row in errors:
            assert row.reason == "worker-crashed"
        counters = pool.counters_snapshot()
        assert killer.fired
        assert counters["crashes"] >= 1
        assert counters["respawns"] >= 1
        assert counters["completed"] + counters["error_rows"] == len(queries)
        # The respawned worker serves the next batch like nothing happened.
        again = pool.run_batch([(queries[0], None, None)])
        assert again[0].status in ("ok", "empty")


@pytest.mark.chaos
def test_sigkill_under_raise_policy_raises_worker_crashed(pair_graph):
    queries = [
        Query("online-bcc", pair) for pair in cross_pairs(pair_graph, 4)
    ]
    killer = FirstDispatchKiller()
    with ProcessWorkerPool(
        pair_graph, SearchConfig(), workers=1, fault_plan=killer
    ) as pool:
        try:
            rows = pool.run_batch(
                [(q, None, None) for q in queries], on_error="raise"
            )
        except WorkerCrashedError as exc:
            assert exc.pid == killer.killed_pid
        else:
            # Pre-send kill: broken pipe, retried on the respawn — the
            # batch legitimately completes with no error at all.
            assert [r.status for r in rows] == ["ok"] * len(rows) or all(
                r.status in ("ok", "empty") for r in rows
            )
        assert pool.counters_snapshot()["respawns"] >= 1


def test_pinning_routes_every_task_to_its_worker(pair_graph):
    queries = [
        Query("online-bcc", pair) for pair in cross_pairs(pair_graph, 5)
    ]
    with ProcessWorkerPool(pair_graph, SearchConfig(), workers=2) as pool:
        pool.run_batch([(q, None, 1) for q in queries])
        stats = pool.stats()
        by_worker = {block["worker"]: block for block in stats["workers"]}
        assert by_worker[1]["dispatched"] == len(queries)
        assert by_worker[0]["dispatched"] == 0


def test_stats_shape_and_piggybacked_engine_counters(pair_graph):
    pair = cross_pairs(pair_graph, 1)[0]
    with ProcessWorkerPool(pair_graph, SearchConfig(), workers=2) as pool:
        pool.run_batch([(Query("online-bcc", pair), None, None)])
        stats = pool.stats()
        assert stats["size"] == 2
        assert set(stats["counters"]) == {
            "batches",
            "tasks",
            "completed",
            "error_rows",
            "crashes",
            "respawns",
            "deadline_kills",
            "stale_results",
            "g0_memo_hits",
            "g0_memo_misses",
        }
        assert stats["counters"]["batches"] == 1
        assert stats["counters"]["completed"] == 1
        pids = pool.worker_pids()
        assert len(pids) == 2 and all(isinstance(p, int) for p in pids)
        served = [b for b in stats["workers"] if b["engine"]]
        assert served, "the serving worker must piggyback engine counters"
        assert served[0]["engine"]["searches"] >= 1


def test_explain_round_trips_through_a_worker(pair_graph):
    pair = cross_pairs(pair_graph, 1)[0]
    reference = BCCEngine(pair_graph).prepare().explain(
        Query("online-bcc", pair)
    )
    with ProcessWorkerPool(pair_graph, SearchConfig(), workers=1) as pool:
        info = pool.explain(Query("online-bcc", pair), None)
    assert info["method"]["name"] == reference["method"]["name"]
    assert tuple(info["query"]) == tuple(reference["query"])
    assert info["resolved"].keys() == reference["resolved"].keys()


def test_unavailable_substrate_raises_cleanly(pair_graph, monkeypatch):
    import repro.parallel.shm as shm

    def broken():
        raise ProcessBackendUnavailable("forced by test")

    monkeypatch.setattr(shm, "_probe_shared_memory", broken)
    monkeypatch.setattr(shm, "_AVAILABLE", None)
    with pytest.raises(ProcessBackendUnavailable):
        ProcessWorkerPool(pair_graph, SearchConfig(), workers=1)
    monkeypatch.setattr(shm, "_AVAILABLE", None)

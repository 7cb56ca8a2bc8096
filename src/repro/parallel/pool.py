"""The worker-process pool behind ``backend="process"``.

:class:`ProcessWorkerPool` owns N worker processes, each serving the same
shared graph (see :mod:`repro.parallel.shm`), and scatter-gathers batches
across them with **one task in flight per worker**:

* a worker gets its next task the moment its previous reply arrives, so
  load balances dynamically (no up-front chunking to mis-size);
* a task's deadline budget starts at its actual send time;
* a crashed worker loses exactly the one task it was running — which the
  pool converts into a position-aligned ``reason="worker-crashed"`` error
  row (or :class:`~repro.exceptions.WorkerCrashedError` under
  ``on_error="raise"``) and then **respawns the worker**, so the batch
  always completes and the pool always returns to full strength.  Never
  a hang: worker death is observed as pipe EOF by
  :func:`multiprocessing.connection.wait`, and a *wedged* (alive but
  silent) worker is bounded by the pool-side deadline watchdog —
  ``deadline_ms`` plus a grace period — which kills and respawns it.

Workers start through the ``spawn`` method (:data:`START_METHOD`): a
forked child would inherit its siblings' pipe ends (defeating EOF-based
death detection) and any lock a serving thread held at fork time.
``spawn`` children start clean; the shared-memory block is attached by
name, so zero-copy still holds.

Clock hygiene (BCC002): wall-clock access is injectable — ``clock=`` is
a constructor parameter defaulting to ``time.monotonic`` — so watchdog
tests can drive virtual time.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.config import SearchConfig
from repro.api.engine import deadline_seconds_for, error_response_for, is_caller_error
from repro.api.query import Query, SearchResponse
from repro.exceptions import (
    DeadlineExceededError,
    QueryError,
    ReproError,
    UnknownMethodError,
    VertexNotFoundError,
    WorkerCrashedError,
)
from repro.parallel.shm import (
    GraphHandle,
    ProcessBackendUnavailable,
    export_graph,
)
from repro.obs.tracing import current_span, span as obs_span
from repro.parallel.worker import worker_main
from repro.server.protocol import (
    decode_response,
    encode_config,
    encode_query,
    encode_trace_context,
    json_dumps,
    json_loads,
)

#: Default worker count for ``backend="process"`` batches.
DEFAULT_PROCESS_WORKERS = 4

#: ``multiprocessing`` start method of every worker (see module docstring).
START_METHOD = "spawn"

#: Extra wall-clock (seconds) the pool-side watchdog grants a task beyond
#: its ``deadline_ms`` before declaring the worker wedged.  The *accurate*
#: deadline is enforced worker-side by the worker engine's own ``search``,
#: whose kernels check its token; the watchdog only fires when the worker
#: cannot even report the expiry (killed, stopped, or stuck between
#: checkpoints), so a little slack avoids double kills.
DEFAULT_DEADLINE_GRACE_SECONDS = 0.5

#: Seconds a closing pool waits for a worker to exit before killing it.
_SHUTDOWN_JOIN_SECONDS = 5.0

#: Seconds a spawning pool waits for a worker's ready handshake (attach +
#: thaw of the shared graph) before declaring the start failed.
_READY_TIMEOUT_SECONDS = 120.0

#: Worker-engine counters the pool also sums over its workers' lifetimes.
WORKER_ENGINE_TOTALS = ("g0_memo_hits", "g0_memo_misses")

#: Pool-level counter names, in reporting order.
POOL_COUNTER_NAMES = (
    "batches",
    "tasks",
    "completed",
    "error_rows",
    "crashes",
    "respawns",
    "deadline_kills",
    "stale_results",
    *WORKER_ENGINE_TOTALS,
)


class WorkerTaskError(ReproError):
    """A worker reported an internal (non-caller) error for one task.

    The original exception type only exists in the worker; this carries
    its name and message across the process boundary.  Like every
    non-caller error it always raises — ``on_error="return"`` does not
    convert implementation bugs into error rows.
    """

    def __init__(self, message: str, exc_type: str = "Exception") -> None:
        super().__init__(f"worker raised {exc_type}: {message}")
        self.exc_type = exc_type


def _rebuild_error(descriptor: Dict[str, object]) -> Exception:
    """The parent-side exception for a worker error descriptor."""
    kind = descriptor.get("kind")
    message = str(descriptor.get("message", ""))
    if kind == "deadline":
        return DeadlineExceededError(deadline_ms=descriptor.get("deadline_ms"))
    if kind == "vertex":
        return VertexNotFoundError(descriptor.get("vertex"))
    if kind == "unknown-method":
        return UnknownMethodError(
            descriptor.get("method", "?"), known=descriptor.get("known") or ()
        )
    if kind == "query":
        return QueryError(message)
    return WorkerTaskError(message, str(descriptor.get("type", "Exception")))


@dataclass
class _TaskSpec:
    """One batch row: the query, its config (``None`` = base), optional pin."""

    index: int
    query: Query
    config: Optional[SearchConfig]
    pin: Optional[int] = None


@dataclass
class _Worker:
    """Parent-side state of one worker process."""

    index: int
    process: object
    conn: object
    counters: Dict[str, int] = field(
        default_factory=lambda: {
            "dispatched": 0,
            "completed": 0,
            "errors": 0,
            "crashes": 0,
            "respawns": 0,
        }
    )
    #: Last engine-counter snapshot the worker piggybacked on a reply
    #: (stats never block on a busy worker).
    engine_counters: Dict[str, int] = field(default_factory=dict)


@dataclass
class _Inflight:
    spec: _TaskSpec
    task_id: int
    deadline_at: Optional[float]
    #: The parent-side "row" span open while this task is in flight (a
    #: no-op span when no trace is active); the worker's reported spans are
    #: grafted under it when the reply lands.
    span: object


class ProcessWorkerPool:
    """N worker processes serving one shared graph.

    Parameters
    ----------
    graph:
        The graph to export (frozen on export if needed).  The pool owns
        the export and unlinks it on :meth:`close`.
    config:
        Worker engines' base :class:`SearchConfig`.  A task whose config
        is ``None`` inherits it — its deadline included.
    workers:
        Pool size.  Workers start lazily on the first batch (or eagerly
        via :meth:`start`).
    sharded:
        Build worker-side :class:`ShardedBCCEngine` s, for shard-pinned
        dispatch (see :meth:`run_batch`'s per-task ``pin``).
    fault_plan:
        Optional chaos hook: ``on("pool.dispatch", worker=, pid=,
        method=)`` runs right before each task is sent.
    clock / deadline_grace_seconds:
        Watchdog seam (see module docstring).
    """

    def __init__(
        self,
        graph,
        config: Optional[SearchConfig] = None,
        workers: int = DEFAULT_PROCESS_WORKERS,
        *,
        sharded: bool = False,
        result_cache_size: int = 0,
        fault_plan: Optional[object] = None,
        clock=time.monotonic,
        deadline_grace_seconds: float = DEFAULT_DEADLINE_GRACE_SECONDS,
    ) -> None:
        if workers < 1:
            raise ValueError("a process pool needs at least one worker")
        self.config = config if config is not None else SearchConfig()
        self.fault_plan = fault_plan
        self._clock = clock
        self._grace = deadline_grace_seconds
        self._ctx = multiprocessing.get_context(START_METHOD)
        self._workers_count = workers
        self._export = export_graph(
            graph,
            encode_config(self.config),
            sharded=sharded,
            result_cache_size=result_cache_size,
        )
        self._handle_text = json_dumps(self._export.handle.to_payload())
        # One batch at a time per pool: dispatch state (queues, in-flight
        # map) is method-local under this lock, so concurrent search_many
        # calls serialize here instead of interleaving replies.
        self._dispatch_lock = threading.Lock()
        self._workers_lock = threading.Lock()
        self._workers: List[_Worker] = []
        self._started = False
        self._closed = False
        self._task_seq = 0
        self._counters_lock = threading.Lock()
        self._counters: Dict[str, int] = {name: 0 for name in POOL_COUNTER_NAMES}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def handle(self) -> GraphHandle:
        return self._export.handle

    @property
    def workers(self) -> int:
        return self._workers_count

    def _spawn(self, index: int) -> _Worker:
        """Start worker ``index`` and wait for its ready handshake."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(index, child_conn, self._handle_text),
            name=f"bcc-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the child's end lives in the child now
        try:
            if not parent_conn.poll(_READY_TIMEOUT_SECONDS):
                process.terminate()
                process.join(timeout=_SHUTDOWN_JOIN_SECONDS)
                raise ProcessBackendUnavailable(
                    f"worker {index} did not report ready within "
                    f"{_READY_TIMEOUT_SECONDS:g}s"
                )
            ready = json_loads(parent_conn.recv())
        except (EOFError, OSError) as exc:
            process.join(timeout=_SHUTDOWN_JOIN_SECONDS)
            raise ProcessBackendUnavailable(
                f"worker {index} died before reporting ready"
            ) from exc
        if not ready.get("ready"):
            process.join(timeout=_SHUTDOWN_JOIN_SECONDS)
            raise ProcessBackendUnavailable(
                f"worker {index} failed to attach: {ready.get('error')}"
            )
        return _Worker(index=index, process=process, conn=parent_conn)

    def start(self) -> "ProcessWorkerPool":
        """Start every worker (idempotent); returns ``self``."""
        if self._closed:
            raise RuntimeError("pool is closed")
        with self._workers_lock:
            if self._started:
                return self
            spawned = [self._spawn(index) for index in range(self._workers_count)]
            self._workers = spawned
            self._started = True
        return self

    def is_started(self) -> bool:
        with self._workers_lock:
            return self._started and not self._closed

    def worker_pids(self) -> List[int]:
        """Live worker pids, in worker order (chaos tests kill by pid)."""
        with self._workers_lock:
            return [worker.process.pid for worker in self._workers]

    def close(self) -> None:
        """Shut workers down, release pipes, unlink the export."""
        if self._closed:
            return
        self._closed = True
        with self._workers_lock:
            workers = list(self._workers)
            self._workers = []
            self._started = False
        for worker in workers:
            try:
                worker.conn.send(json_dumps({"op": "shutdown"}))
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(timeout=_SHUTDOWN_JOIN_SECONDS)
            if worker.process.is_alive():  # pragma: no cover - wedged worker
                # SIGKILL, not SIGTERM: a stopped worker never acts on TERM.
                worker.process.kill()
                worker.process.join(timeout=_SHUTDOWN_JOIN_SECONDS)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._export.close()

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # counters / stats
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        with self._counters_lock:
            self._counters[name] += amount

    def _count_worker(self, worker: _Worker, name: str) -> None:
        # Worker counter dicts are reached through the worker object, but
        # share the counters lock so stats() never reads a torn value.
        with self._counters_lock:
            worker.counters[name] += 1

    def _take_engine_counters(self, worker: _Worker, counters: Dict[str, int]) -> None:
        """Keep a reply's engine counters; add their growth to the pool totals.

        A respawned worker starts from an empty block, so the totals keep
        what its predecessor counted.
        """
        with self._counters_lock:
            for name in WORKER_ENGINE_TOTALS:
                grown = counters.get(name, 0) - worker.engine_counters.get(name, 0)
                self._counters[name] += grown
            worker.engine_counters = dict(counters)

    def counters_snapshot(self) -> Dict[str, int]:
        with self._counters_lock:
            return dict(self._counters)

    def stats(self) -> Dict[str, object]:
        """The ``/stats`` block: pool counters + one block per worker."""
        with self._workers_lock:
            workers = list(self._workers)
        blocks = []
        with self._counters_lock:
            counters = dict(self._counters)
            for worker in workers:
                blocks.append(
                    {
                        "worker": worker.index,
                        "pid": worker.process.pid,
                        "alive": worker.process.is_alive(),
                        **dict(worker.counters),
                        "engine": dict(worker.engine_counters),
                    }
                )
        return {"size": self._workers_count, "counters": counters, "workers": blocks}

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _next_task_id(self) -> int:
        self._task_seq += 1  # only under _dispatch_lock
        return self._task_seq

    def _replace_worker(self, stale: _Worker) -> _Worker:
        """Respawn a dead/killed worker in its slot (counts the respawn)."""
        try:
            stale.conn.close()
        except OSError:  # pragma: no cover
            pass
        if stale.process.is_alive():  # watchdog kill: wedged but alive
            # SIGKILL, not SIGTERM: a stopped (SIGSTOP) worker never acts on
            # TERM, so the join would sit out its whole timeout.
            stale.process.kill()
        stale.process.join(timeout=_SHUTDOWN_JOIN_SECONDS)
        fresh = self._spawn(stale.index)
        fresh.counters = dict(stale.counters)
        fresh.engine_counters = {}
        with self._workers_lock:
            for slot, current in enumerate(self._workers):
                if current is stale:
                    self._workers[slot] = fresh
                    break
        self._count("respawns")
        self._count_worker(fresh, "respawns")
        return fresh

    def _send_task(
        self,
        worker: _Worker,
        spec: _TaskSpec,
        task_id: int,
        use_cache: bool,
        trace_id: Optional[str] = None,
    ) -> bool:
        """Send one task; ``False`` when the worker's pipe is broken."""
        if self.fault_plan is not None:
            self.fault_plan.on(
                "pool.dispatch",
                worker=worker.index,
                pid=worker.process.pid,
                method=spec.query.method,
            )
        message = {
            "op": "search",
            "task": task_id,
            "query": encode_query(spec.query),
            "config": encode_config(spec.config),
            "use_cache": use_cache,
        }
        if trace_id is not None:
            # Trace context crosses the process boundary as one extra wire
            # field; without an active trace the message stays byte-
            # identical to the untraced protocol.
            message["trace"] = encode_trace_context(trace_id)
        try:
            worker.conn.send(json_dumps(message))
        except (BrokenPipeError, OSError):
            return False
        self._count_worker(worker, "dispatched")
        return True

    def run_batch(
        self,
        specs: Sequence[Tuple[Query, Optional[SearchConfig], Optional[int]]],
        *,
        on_error: str = "return",
        use_cache: bool = True,
    ) -> List[SearchResponse]:
        """Scatter-gather one batch; position-aligned results.

        ``specs`` rows are ``(query, config, pin)``: ``config`` is the
        row's config from the call, query and batch tiers, or ``None`` to
        inherit the pool's base config (the workers' engines were built
        from it, and the watchdog resolves the row's deadline against it);
        ``pin`` routes a task to worker ``pin % workers`` (shard pinning)
        or ``None`` for any free worker.

        Error policy mirrors :func:`repro.api.engine.serve_batch`: caller
        errors, expired deadlines and worker crashes become error rows
        under ``on_error="return"``; internal worker errors always raise;
        under ``"raise"`` the earliest-position failure is raised after
        the rest of the batch drains (workers are never abandoned with
        tasks in flight).
        """
        tasks = [
            _TaskSpec(index=i, query=query, config=config, pin=pin)
            for i, (query, config, pin) in enumerate(specs)
        ]
        if not tasks:
            return []
        with self._dispatch_lock:
            self.start()  # raises once the pool is closed
            self._count("batches")
            self._count("tasks", len(tasks))
            # With an active trace, mirror the threaded path's span shape:
            # one "batch" span with one "row" span per task (opened at send,
            # finished at reply), worker-side span trees grafted under rows.
            with obs_span("batch", rows=len(tasks), transport="process") as batch:
                return self._scatter_gather_locked(tasks, on_error, use_cache, batch)

    def _scatter_gather_locked(
        self, tasks: List[_TaskSpec], on_error: str, use_cache: bool, batch_span
    ) -> List[SearchResponse]:
        active = current_span()  # the batch span, when a trace is active
        trace_id = None if active is None else active.trace.request_id
        with self._workers_lock:
            workers: List[_Worker] = list(self._workers)
        n = len(workers)
        pinned: List[deque] = [deque() for _ in range(n)]
        shared: deque = deque()
        for spec in tasks:
            if spec.pin is None:
                shared.append(spec)
            else:
                pinned[spec.pin % n].append(spec)
        results: List[Optional[SearchResponse]] = [None] * len(tasks)
        failures: List[Tuple[int, Exception]] = []
        inflight: Dict[int, _Inflight] = {}
        remaining = len(tasks)

        def record_failure(spec: _TaskSpec, exc: Exception) -> None:
            nonlocal remaining
            remaining -= 1
            row_able = is_caller_error(spec.query, exc) or isinstance(
                exc, (DeadlineExceededError, WorkerCrashedError)
            )
            if on_error == "return" and row_able:
                results[spec.index] = error_response_for(spec.query, exc)
                self._count("error_rows")
            else:
                failures.append((spec.index, exc))

        def feed(slot: int) -> None:
            """Keep sending ``slot`` its next task until one sticks."""
            while slot not in inflight:
                queue = pinned[slot] if pinned[slot] else shared
                if not queue:
                    return
                spec = queue.popleft()
                task_id = self._next_task_id()
                sent = self._send_task(
                    workers[slot], spec, task_id, use_cache, trace_id
                )
                if not sent:
                    # Broken pipe at send: the worker died idle.  Respawn and
                    # retry this same task once on the fresh worker (it never
                    # started running, so resending cannot double-execute).
                    self._count("crashes")
                    self._count_worker(workers[slot], "crashes")
                    workers[slot] = self._replace_worker(workers[slot])
                    sent = self._send_task(
                        workers[slot], spec, task_id, use_cache, trace_id
                    )
                if not sent:
                    record_failure(
                        spec,
                        WorkerCrashedError(worker=slot, pid=workers[slot].process.pid),
                    )
                    continue
                # A row inheriting the base config travels as None; its
                # deadline is the base's, and the watchdog must know it.
                deadline = deadline_seconds_for(spec.config, self.config)
                inflight[slot] = _Inflight(
                    spec=spec,
                    task_id=task_id,
                    deadline_at=(
                        None
                        if deadline is None
                        else self._clock() + deadline + self._grace
                    ),
                    span=batch_span.child(
                        "row", method=spec.query.method, worker=slot
                    ),
                )

        def lose_inflight(slot: int, exc: Exception, counter: str) -> None:
            """The task in flight on ``slot`` is gone; its worker too."""
            entry = inflight.pop(slot)
            worker = workers[slot]
            entry.span.annotate(error=counter).finish()
            self._count(counter)
            self._count_worker(worker, "crashes" if counter == "crashes" else "errors")
            workers[slot] = self._replace_worker(worker)
            record_failure(entry.spec, exc)

        for slot in range(n):
            feed(slot)
        while remaining > 0:
            now = self._clock()
            timeout: Optional[float] = None
            for entry in inflight.values():
                if entry.deadline_at is not None:
                    margin = max(0.0, entry.deadline_at - now)
                    timeout = margin if timeout is None else min(timeout, margin)
            conn_slots = {
                id(workers[slot].conn): slot for slot in inflight
            }
            ready = connection_wait(
                [workers[slot].conn for slot in inflight], timeout=timeout
            )
            for conn in ready:
                slot = conn_slots[id(conn)]
                worker = workers[slot]
                try:
                    reply = json_loads(conn.recv())
                except (EOFError, OSError):
                    # Pipe EOF: the worker died with this task in flight.
                    lose_inflight(
                        slot,
                        WorkerCrashedError(worker=slot, pid=worker.process.pid),
                        "crashes",
                    )
                    feed(slot)
                    continue
                entry = inflight.get(slot)
                if entry is None or reply.get("task") != entry.task_id:
                    self._count("stale_results")
                    continue
                del inflight[slot]
                entry.span.attach_remote(reply.get("spans"))
                entry.span.finish()
                if isinstance(reply.get("counters"), dict):
                    self._take_engine_counters(worker, reply["counters"])
                if reply.get("ok"):
                    remaining -= 1
                    results[entry.spec.index] = decode_response(reply["response"])
                    self._count("completed")
                    self._count_worker(worker, "completed")
                else:
                    self._count_worker(worker, "errors")
                    record_failure(entry.spec, _rebuild_error(reply["error"]))
                feed(slot)
            # Watchdog: tasks whose pool-side deadline lapsed without a
            # reply are lost to a wedged worker — kill it, row the task.
            now = self._clock()
            for slot in list(inflight):
                entry = inflight[slot]
                if entry.deadline_at is not None and now >= entry.deadline_at:
                    deadline = deadline_seconds_for(entry.spec.config, self.config)
                    lose_inflight(
                        slot,
                        DeadlineExceededError(deadline_ms=deadline * 1000.0),
                        "deadline_kills",
                    )
                    feed(slot)
        if failures:
            failures.sort(key=lambda pair: pair[0])
            raise failures[0][1]
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # explain
    # ------------------------------------------------------------------
    def explain(self, query: Query, config: Optional[SearchConfig] = None):
        """``engine.explain`` proxied into worker 0."""
        with self._dispatch_lock:
            self.start()  # raises once the pool is closed
            with self._workers_lock:
                worker = self._workers[0]
            task_id = self._next_task_id()
            message = {
                "op": "explain",
                "task": task_id,
                "query": encode_query(query),
                "config": encode_config(config),
            }
            try:
                worker.conn.send(json_dumps(message))
                while True:
                    reply = json_loads(worker.conn.recv())
                    if reply.get("task") == task_id:
                        break
                    self._count("stale_results")
            except (BrokenPipeError, EOFError, OSError):
                self._count("crashes")
                self._count_worker(worker, "crashes")
                self._replace_worker(worker)
                raise WorkerCrashedError(worker=worker.index)
            if reply.get("ok"):
                return reply["explain"]
            raise _rebuild_error(reply["error"])


__all__ = [
    "DEFAULT_PROCESS_WORKERS",
    "POOL_COUNTER_NAMES",
    "ProcessWorkerPool",
    "WorkerTaskError",
]

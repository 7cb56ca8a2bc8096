"""The process transport: the one owner of a worker pool.

:class:`ProcessEngine` owns a :class:`ProcessWorkerPool` — creates it
lazily, grows it when a batch asks for more workers, rebuilds it when the
graph mutated, closes it — and the process side of every batch: the
argument check, row configs, shard pins and ``pool.run_batch``.
``BCCEngine`` and ``ShardedBCCEngine`` keep one in a
:class:`~repro.api.engine.ProcessSlot` for their ``backend="process"``
batches; :class:`~repro.server.replicas.ReplicaSet` builds one-worker
members, which it serves and reports like any other host.

A member whose worker dies raises
:class:`~repro.exceptions.WorkerCrashedError`, which
:func:`~repro.api.engine.is_caller_error` classifies as a *replica*
failure: the set fails over and the health breaker records it.  The pool
has already respawned the worker, so the breaker's next probe re-admits
the member.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.api.config import SearchConfig
from repro.api.engine import check_batch_args, resolve_config
from repro.api.query import BatchQuery, Query, SearchResponse
from repro.deadline import checkpoint, current_deadline
from repro.exceptions import DeadlineExceededError
from repro.parallel.pool import (
    DEFAULT_PROCESS_WORKERS,
    POOL_COUNTER_NAMES,
    ProcessWorkerPool,
)
from repro.serving.stats import (
    ServingStats,
    aggregate_counters,
    graph_shape,
    zero_engine_counters,
)


class ProcessEngine:
    """Serve one graph entirely from worker processes.

    ``workers`` is the pool's starting size; a batch asking for more grows
    it.  ``sharded`` builds worker-side sharded engines for shard-pinned
    rows.  Each pool exports the graph into a shared-memory block of its
    own, and the engine rebuilds its pool after the graph mutates, so it
    never answers from a stale export.  The other parameters are the
    pool's.
    """

    def __init__(
        self,
        graph,
        config: Optional[SearchConfig] = None,
        *,
        workers: int = DEFAULT_PROCESS_WORKERS,
        sharded: bool = False,
        result_cache_size: int = 0,
        fault_plan: Optional[object] = None,
        clock=time.monotonic,
    ) -> None:
        if workers < 1:
            raise ValueError("a process pool needs at least one worker")
        self.graph = graph
        self.config = config if config is not None else SearchConfig()
        self._workers = workers
        self._pool_options = dict(
            sharded=sharded,
            result_cache_size=result_cache_size,
            fault_plan=fault_plan,
            clock=clock,
        )
        # Guards the pool slot only: a pool closes outside it, because
        # closing joins worker processes.
        self._lock = threading.Lock()
        self._pool: Optional[ProcessWorkerPool] = None
        self._pool_version: Optional[int] = None  # graph version it exports
        self._closed = False

    # ------------------------------------------------------------------
    # the pool's life
    # ------------------------------------------------------------------
    def _pool_for(self, workers: int) -> ProcessWorkerPool:
        """The pool, built on first use and rebuilt when it is outgrown or stale.

        A pool is outgrown when ``workers`` exceeds its size, and stale when
        it exported the engine's graph at an older version.  Workers spawn
        lazily, on the pool's first batch.  A replaced pool closes after
        the lock is released.
        """
        replaced = None
        with self._lock:
            if self._closed:
                raise RuntimeError("process engine is closed")
            pool = self._pool
            version = self.graph.version()
            stale = version != self._pool_version
            if pool is None or pool.workers < workers or stale:
                replaced = pool
                pool = ProcessWorkerPool(
                    self.graph,
                    self.config,
                    max(workers, self._workers),
                    **self._pool_options,
                )
                self._pool = pool
                self._pool_version = version
        if replaced is not None:
            replaced.close()
        return pool

    def _current_pool(self) -> Optional[ProcessWorkerPool]:
        with self._lock:
            return self._pool

    def prepare(self) -> "ProcessEngine":
        """Start the workers (idempotent) so the first query serves warm."""
        self._pool_for(1).start()
        return self

    def is_prepared(self) -> bool:
        pool = self._current_pool()
        return pool is not None and pool.is_started()

    def close(self) -> None:
        """Shut the workers down; later calls raise :class:`RuntimeError`."""
        with self._lock:
            self._closed = True
            pool = self._pool
        if pool is not None:
            pool.close()

    def __enter__(self) -> "ProcessEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # ServingEngine surface
    # ------------------------------------------------------------------
    def search(
        self,
        query: Query,
        *,
        config: Optional[SearchConfig] = None,
        use_cache: bool = True,
    ) -> SearchResponse:
        """One query through the pool (raises exactly like ``BCCEngine``).

        The worker's engine enforces the row's ``deadline_ms`` on a token
        of its own, since a token does not cross the pipe.  Under an outer
        deadline (a replica set's call) the row's budget is cut to what
        the caller has left, and an expiry reports the caller's budget, so
        a member never runs past its host's deadline.  A spent outer
        deadline raises :class:`~repro.exceptions.DeadlineExceededError`
        here, before any dispatch, as a thread engine's first kernel
        checkpoint does.
        """
        outer = current_deadline()
        if outer is not None:
            left_ms = outer.remaining() * 1000.0
            if left_ms <= 0:
                raise DeadlineExceededError(deadline_ms=outer.budget_ms)
            config = resolve_config(config, query.config, self.config)
            if config.deadline_ms is None or config.deadline_ms > left_ms:
                config = config.replace(deadline_ms=left_ms)
        try:
            return self.search_many([query], config=config, use_cache=use_cache)[0]
        except DeadlineExceededError:
            checkpoint()  # the caller's budget ran out: report it, as threads do
            raise

    def search_many(
        self,
        queries: Union[BatchQuery, Iterable[Query]],
        *,
        config: Optional[SearchConfig] = None,
        on_error: str = "raise",
        max_workers: int = 1,
        use_cache: bool = True,
        shards: Optional[Sequence[int]] = None,
    ) -> List[SearchResponse]:
        """Scatter-gather a batch over the workers, position-aligned.

        Arguments are checked and row configs resolved by the same
        functions :func:`repro.api.engine.serve_batch` calls.  A row that
        inherits the engine base travels as ``None`` (the workers' engines
        were built from it).  Deadlines, error rows and crash handling are
        the pool's.  The pool grows to ``max_workers`` when it is smaller.
        ``shards`` gives each row's shard id; the row is pinned to worker
        ``shard % workers``, so one shard's engine is built by one worker.
        """
        check_batch_args(on_error, max_workers)
        batch = BatchQuery.of(queries)
        if not batch.queries:
            return []
        pins = shards if shards is not None else [None] * len(batch.queries)
        rows = [
            (query, resolve_config(config, query.config, batch.config), pin)
            for query, pin in zip(batch.queries, pins)
        ]
        return self._pool_for(max_workers).run_batch(
            rows, on_error=on_error, use_cache=use_cache
        )

    def explain(
        self, query: Query, *, config: Optional[SearchConfig] = None
    ) -> Dict[str, object]:
        return self._pool_for(1).explain(query, resolve_config(config, query.config))

    # ------------------------------------------------------------------
    # stats surface
    # ------------------------------------------------------------------
    def worker_stats(self) -> Dict[str, object]:
        """The pool's ``/stats`` block (size, counters, per-worker rows)."""
        pool = self._current_pool()
        if pool is None:
            return {
                "size": self._workers,
                "counters": dict.fromkeys(POOL_COUNTER_NAMES, 0),
                "workers": [],
            }
        return pool.stats()

    def counters_snapshot(self) -> Dict[str, int]:
        """Engine counters aggregated across workers (last piggybacked)."""
        parts = [
            block["engine"]
            for block in self.worker_stats()["workers"]
            if block.get("engine")
        ]
        return aggregate_counters([zero_engine_counters(), *parts])

    def worker_pids(self) -> List[int]:
        pool = self._current_pool()
        return [] if pool is None else pool.worker_pids()

    def stats(self, name: str = "process-engine") -> ServingStats:
        """The stats-endpoint snapshot from the workers' piggybacked counters.

        No round trip: cache entries and capacity live in the workers
        (``None``), and ``index_built`` means a worker counted a build.
        """
        counters = self.counters_snapshot()
        hits = counters["result_cache_hits"]
        misses = counters["result_cache_misses"]
        lookups = hits + misses
        return ServingStats(
            name=name,
            kind="process",
            graph=graph_shape(self.graph),
            counters=counters,
            cache={
                "capacity": None,
                "entries": None,
                "entries_per_method": {},
                "hits": hits,
                "misses": misses,
                "hit_rate": (hits / lookups) if lookups else None,
                "policy": None,
            },
            prepared=self.is_prepared(),
            index_built=counters["index_builds"] > 0,
            workers=self.worker_stats(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessEngine(workers={self._workers}, started={self.is_prepared()})"

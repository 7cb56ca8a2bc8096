"""A directory of named serving engines: many graphs, one process.

:class:`GraphDirectory` hosts multiple named engines — sharded
(:class:`repro.serving.sharded.ShardedBCCEngine`) or monolithic
(:class:`repro.api.BCCEngine`) — behind one ``serve(name, query)`` surface,
and is wired to the dataset registry so any registered evaluation network
is servable by name::

    directory = GraphDirectory()
    directory.load("baidu-tiny", seed=7)          # sharded by default
    response = directory.serve("baidu-tiny", Query("lp-bcc", pair))
    print(directory.stats()["baidu-tiny"].to_json(indent=2))

Each served graph's latency histogram is recorded here, at the directory
edge (covering routing *and* search): one observation per ``serve`` /
``serve_many`` call, whatever the host — monolithic, sharded or replicated
engines keep none of their own.  The aggregated :meth:`stats` payload is
the whole process's "stats endpoint".
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Dict, Iterable, List, Optional, Union

from repro.api.config import SearchConfig
from repro.api.engine import DEFAULT_RESULT_CACHE_SIZE, BCCEngine
from repro.api.query import BatchQuery, Query, SearchResponse
from repro.datasets.registry import load_dataset
from repro.exceptions import GraphNotFoundError
from repro.graph.labeled_graph import LabeledGraph, as_labeled_graph
from repro.obs import Observability
from repro.obs.metrics import Sample, counter_samples
from repro.serving.sharded import ShardedBCCEngine
from repro.serving.stats import (
    STATS_SCHEMA_VERSION,
    LatencyHistogram,
    ServingStats,
)

#: Anything the directory can host: a monolithic engine, a sharded engine,
#: or a replica set (``repro.server.replicas.ReplicaSet`` — imported lazily
#: to keep ``repro.serving`` importable without the server package).
ServingEngine = Union[BCCEngine, ShardedBCCEngine, object]


@dataclasses.dataclass(frozen=True)
class _Served:
    """One served name: its engine, edge-latency histogram and store mode."""

    engine: ServingEngine
    latency: LatencyHistogram
    #: How the store hosted it (``"attached"`` / ``"built"`` /
    #: ``"sharded"``); ``None`` without a store.
    store_mode: Optional[str]


class GraphDirectory:
    """Named serving engines over many graphs in one process.

    Parameters
    ----------
    config:
        Default :class:`SearchConfig` for engines added without their own.
    sharded:
        Whether :meth:`add` / :meth:`load` build sharded engines by default
        (overridable per graph).
    result_cache_size, result_cache_policy:
        Defaults forwarded to every engine's result cache.
    store:
        A :class:`repro.store.SnapshotStore` (or a root path for one).
        When set, :meth:`add` / :meth:`load` attach to persisted snapshots
        instead of rebuilding whenever the on-disk checksum and graph
        fingerprint match the live graph (rebuilding *and persisting* on
        any miss), sharded engines spill/page per-shard snapshots through
        it, and the store's attach/persist/mismatch counters ride the
        stats payload.  Replicated hosting (``replicas > 1``) ignores the
        store: N replica engines deliberately build N private states.
    max_resident_shards:
        Default per-graph memory budget for sharded engines (LRU shard
        eviction; ``None`` = unbounded).  Overridable per :meth:`add`.
    observability:
        The :class:`repro.obs.Observability` bundle this directory reports
        into (one is created when not given).  The directory registers a
        ``"directory"`` metrics source over its own :meth:`stats` — every
        engine/router/pool/store counter and the per-graph latency
        histograms land in ``GET /metrics`` without any engine knowing the
        registry exists — and :meth:`stats_payload` carries the bundle's
        ``trace``/``metrics`` blocks.  Tracing stays off until
        ``directory.observability.tracer.enable()``.

    All directory operations are thread-safe; the engines themselves are
    thread-safe by construction, so one directory can serve a whole
    process's traffic.
    """

    def __init__(
        self,
        config: Optional[SearchConfig] = None,
        sharded: bool = True,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        result_cache_policy: Optional[object] = None,
        store: Optional[object] = None,
        max_resident_shards: Optional[int] = None,
        observability: Optional[Observability] = None,
    ) -> None:
        self._config = config
        self._sharded_default = sharded
        self._result_cache_size = result_cache_size
        self._result_cache_policy = result_cache_policy
        if store is not None and not hasattr(store, "attach_or_build"):
            # A root path was given; stand up a store over it.  Imported
            # lazily so `repro.serving` stays importable on its own.
            from repro.store import SnapshotStore

            store = SnapshotStore(store)
        self._store = store
        self._max_resident_shards = max_resident_shards
        self._lock = threading.Lock()
        self._served: Dict[str, _Served] = {}
        self._started_monotonic = time.monotonic()
        if observability is None:
            observability = Observability()
        self.observability = observability
        self.observability.registry.register_source(
            "directory", self._metric_samples
        )

    # ------------------------------------------------------------------
    # hosting
    # ------------------------------------------------------------------
    def add(
        self,
        name: str,
        graph: Union[LabeledGraph, object],
        *,
        sharded: Optional[bool] = None,
        replicas: int = 1,
        config: Optional[SearchConfig] = None,
        result_cache_size: Optional[int] = None,
        result_cache_policy: Optional[object] = None,
        health_policy: Optional[object] = None,
        fault_plan: Optional[object] = None,
        max_resident_shards: Optional[int] = None,
        member_backend: str = "thread",
    ) -> ServingEngine:
        """Host ``graph`` (or a bundle) under ``name`` and return its engine.

        Re-adding an existing name replaces its engine — the directory is
        the single owner of the name, so a live process can swap a graph
        for a rebuilt one atomically.

        With a directory ``store=``, monolithic hosting goes through
        :meth:`SnapshotStore.attach_or_build` (a matching snapshot means
        no freeze and no index build at all) and sharded hosting passes
        the store down so shards spill/page under ``max_resident_shards``
        (falling back to the directory-wide default budget when not given
        here).

        ``replicas > 1`` hosts the graph as a
        :class:`repro.server.replicas.ReplicaSet` — N engines (sharded or
        monolithic per the ``sharded`` flag) behind least-loaded routing —
        so one hot graph scales horizontally without the caller noticing.
        ``health_policy`` (a :class:`repro.server.resilience.HealthPolicy`),
        ``fault_plan`` (a :class:`repro.server.faults.FaultPlan`) and
        ``member_backend`` are forwarded to the replica set.  A single
        monolithic engine takes only ``fault_plan`` (it hooks the
        ``"engine.search"`` fault site; there is no replica health to
        police), and a single sharded engine only ``max_resident_shards``.
        An option the chosen host would drop raises ``ValueError``.
        """
        if not name or not isinstance(name, str):
            raise ValueError("a served graph needs a non-empty string name")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        use_sharded = self._sharded_default if sharded is None else sharded
        single = replicas == 1
        host = (
            "replica set" if not single
            else "sharded engine" if use_sharded
            else "monolithic engine"
        )
        for option, dropped in (
            ("health_policy", single and health_policy is not None),
            ("member_backend", single and member_backend != "thread"),
            ("fault_plan", host == "sharded engine" and fault_plan is not None),
            (
                "max_resident_shards",
                host != "sharded engine" and max_resident_shards is not None,
            ),
        ):
            if dropped:
                raise ValueError(f"{option} does not apply to a {host}")
        engine_config = config if config is not None else self._config
        cache_size = (
            self._result_cache_size
            if result_cache_size is None
            else result_cache_size
        )
        cache_policy = (
            self._result_cache_policy
            if result_cache_policy is None
            else result_cache_policy
        )
        shard_budget = (
            self._max_resident_shards
            if max_resident_shards is None
            else max_resident_shards
        )
        engine: ServingEngine
        store_mode: Optional[str] = None
        if replicas > 1:
            # Imported lazily: repro.server builds on repro.serving, so a
            # module-level import here would be circular.
            from repro.server.replicas import ReplicaSet

            engine = ReplicaSet(
                graph,
                engine_config,
                replicas=replicas,
                sharded=use_sharded,
                result_cache_size=cache_size,
                result_cache_policy=cache_policy,
                health_policy=health_policy,  # type: ignore[arg-type]
                fault_plan=fault_plan,
                member_backend=member_backend,
            )
        elif use_sharded:
            engine = ShardedBCCEngine(
                graph,
                engine_config,
                result_cache_size=cache_size,
                result_cache_policy=cache_policy,
                store=self._store,
                store_key=name,
                max_resident_shards=shard_budget,
            )
            if self._store is not None:
                store_mode = "sharded"
        elif self._store is not None:
            engine, store_mode = self._store.attach_or_build(
                name,
                as_labeled_graph(graph),
                engine_config,
                result_cache_size=cache_size,
                result_cache_policy=cache_policy,
                fault_plan=fault_plan,
            )
        else:
            engine = BCCEngine(
                graph,
                engine_config,
                result_cache_size=cache_size,
                result_cache_policy=cache_policy,
                fault_plan=fault_plan,
            )
        served = _Served(engine, LatencyHistogram(), store_mode)
        with self._lock:
            self._served[name] = served
        return engine

    def load(
        self,
        dataset: str,
        *,
        name: Optional[str] = None,
        seed: int = 0,
        sharded: Optional[bool] = None,
        replicas: int = 1,
        config: Optional[SearchConfig] = None,
        **kwargs: object,
    ) -> ServingEngine:
        """Generate a registered dataset and host it (name defaults to the
        dataset's); extra ``kwargs`` go to the generator.

        This is the "any registered dataset is servable by name" wiring:
        ``directory.load("orkut", communities=6)`` stands up a sharded
        engine over a fresh orkut-like network in one call.
        """
        bundle = load_dataset(dataset, seed=seed, **kwargs)
        return self.add(
            name if name is not None else dataset,
            bundle,
            sharded=sharded,
            replicas=replicas,
            config=config,
        )

    def get(self, name: str) -> ServingEngine:
        """The engine serving ``name`` (:class:`GraphNotFoundError` if absent)."""
        return self._lookup(name).engine

    def _lookup(self, name: str) -> _Served:
        with self._lock:
            served = self._served.get(name)
            if served is None:
                raise GraphNotFoundError(name, known=self._served)
            return served

    def remove(self, name: str) -> None:
        """Stop serving ``name`` (:class:`GraphNotFoundError` if absent).

        Process-backed resources (worker pools, shared-memory exports) are
        released outside the directory lock — shutting workers down joins
        their processes, which must never stall unrelated serving calls.
        """
        with self._lock:
            served = self._served.pop(name, None)
            if served is None:
                raise GraphNotFoundError(name, known=self._served)
        closer = getattr(served.engine, "close", None)
        if closer is None:
            closer = getattr(served.engine, "close_process_pool", None)
        if closer is not None:
            closer()

    def names(self) -> List[str]:
        """The graphs currently served, sorted."""
        with self._lock:
            return sorted(self._served)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._served

    def __len__(self) -> int:
        with self._lock:
            return len(self._served)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def serve(self, name: str, query: Query, **kwargs: object) -> SearchResponse:
        """Serve one query against the named graph, recording edge latency."""
        served = self._lookup(name)
        start = time.perf_counter()
        try:
            return served.engine.search(query, **kwargs)  # type: ignore[arg-type]
        finally:
            served.latency.observe(time.perf_counter() - start)

    def serve_many(
        self,
        name: str,
        queries: Union[BatchQuery, Iterable[Query]],
        **kwargs: object,
    ) -> List[SearchResponse]:
        """Serve a batch against the named graph (``search_many`` semantics).

        The batch's wall-clock is recorded as one edge-latency observation —
        per-query latencies live in each response's ``timings``.
        """
        served = self._lookup(name)
        start = time.perf_counter()
        try:
            return served.engine.search_many(queries, **kwargs)  # type: ignore[arg-type]
        finally:
            served.latency.observe(time.perf_counter() - start)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, ServingStats]:
        """Per-graph :class:`ServingStats`, keyed by served name.

        Each is the host's own ``stats(name)`` report; every graph's
        ``latency`` is its edge histogram, whatever the host.
        """
        with self._lock:
            served = dict(self._served)
        snapshots: Dict[str, ServingStats] = {}
        for name, record in served.items():
            snapshot = record.engine.stats(name=name)
            if record.store_mode is not None and snapshot.store is None:
                # "attached" = served from a snapshot (no freeze, no index
                # build); "built" = snapshot miss, rebuilt and persisted for
                # the next process.  A sharded host reports its own block.
                snapshot = dataclasses.replace(
                    snapshot, store={"mode": record.store_mode}
                )
            snapshots[name] = dataclasses.replace(
                snapshot, latency=record.latency.snapshot()
            )
        return snapshots

    def readiness(self) -> Dict[str, Dict[str, object]]:
        """Per-graph serving readiness, keyed by served name.

        Engines that track replica health (:class:`ReplicaSet`) report
        their own :meth:`health_summary` (``ok`` / ``degraded`` / ``down``
        plus per-replica states); engines without health tracking are
        ready by construction and report ``{"state": "ok"}``.  This is the
        substance behind the gateway's ``/healthz``.
        """
        with self._lock:
            served = dict(self._served)
        readiness: Dict[str, Dict[str, object]] = {}
        for name, record in served.items():
            summary = getattr(record.engine, "health_summary", None)
            readiness[name] = summary() if callable(summary) else {"state": "ok"}
        return readiness

    def uptime_seconds(self) -> float:
        """Seconds since this directory was constructed."""
        return time.monotonic() - self._started_monotonic

    def store_summary(self) -> Optional[Dict[str, object]]:
        """The persistent-store block for stats/health payloads.

        ``None`` when the directory serves without a store; otherwise the
        store root, the snapshot names on disk, the store counters
        (attaches / builds / persists / mismatches / invalid) and the
        per-served-name attach mode.
        """
        if self._store is None:
            return None
        summary = self._store.summary()
        with self._lock:
            summary["modes"] = {
                name: record.store_mode
                for name, record in self._served.items()
                if record.store_mode is not None
            }
        return summary

    def _metric_samples(self) -> List[Sample]:
        """The ``"directory"`` rows of the unified metrics registry.

        Built from the exact snapshots ``/stats`` serves (engine counters,
        pool counters and per-worker rows, store counters, edge-latency
        histograms), so ``GET /metrics`` and ``GET /stats`` agree by
        construction — the integration tests assert counter-for-counter
        equality between the two endpoints.
        """
        samples: List[Sample] = []
        for name, snapshot in self.stats().items():
            graph_labels = {"graph": name}
            # Engine + router (+ replica set health/routing) counters: for
            # replicated/sharded engines ``counters`` already aggregates
            # per-member counters plus the serving-layer's own.
            samples.extend(
                counter_samples(
                    "engine",
                    snapshot.counters,
                    labels=graph_labels,
                    help="aggregated serving counters per graph",
                )
            )
            samples.append(
                Sample(
                    name="bcc_graph_latency_seconds",
                    labels=(("graph", name),),
                    kind="histogram",
                    help="directory-edge serving latency",
                    histogram=snapshot.latency,
                )
            )
            workers = snapshot.workers
            if workers is not None:
                samples.extend(
                    counter_samples(
                        "pool",
                        workers["counters"],  # type: ignore[arg-type]
                        labels=graph_labels,
                        help="process worker pool counters",
                    )
                )
                for block in workers["workers"]:  # type: ignore[union-attr]
                    per_worker = {
                        key: value
                        for key, value in block.items()
                        if key not in ("worker", "pid", "alive", "engine")
                    }
                    samples.extend(
                        counter_samples(
                            "pool_worker",
                            per_worker,
                            labels={
                                "graph": name,
                                "worker": block.get("worker", "?"),
                            },
                            help="per-worker-process pool counters",
                        )
                    )
        store = self.store_summary()
        if store is not None:
            samples.extend(
                counter_samples(
                    "store",
                    store.get("counters", {}),  # type: ignore[arg-type]
                    help="snapshot store counters",
                )
            )
        samples.append(
            Sample(
                name="bcc_directory_served_graphs",
                value=float(len(self)),
                kind="gauge",
                help="graphs currently served by this directory",
            )
        )
        return samples

    def stats_payload(self) -> Dict[str, object]:
        """The whole directory as one JSON-serializable stats document.

        Self-describing: ``schema_version`` stamps the payload layout
        (:data:`repro.serving.stats.STATS_SCHEMA_VERSION`) and
        ``uptime_seconds`` dates the process, so a scraper can tell a
        restarted server from a quiet one.  The full field-by-field schema
        is documented in the README's "Stats payload schema" section.
        Schema version 2 added the ``trace`` and ``metrics`` blocks (the
        observability bundle's tracer/slow-log state and metrics-registry
        summary).
        """
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "uptime_seconds": self.uptime_seconds(),
            "graphs": {
                name: snapshot.to_dict()
                for name, snapshot in self.stats().items()
            },
            "served_graphs": len(self),
            "store": self.store_summary(),
            "trace": self.observability.trace_block(),
            "metrics": self.observability.metrics_block(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphDirectory(serving={self.names()})"

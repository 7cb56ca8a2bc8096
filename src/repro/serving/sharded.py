"""Sharded serving: one engine per connected component, one ``Query`` type.

The BCC model's communities are connected subgraphs containing the query
vertices (Problem 1), and Algorithm 2 extracts the *connected* k-cores
around each query vertex — so every answer is local to the connected
component the query lives in.  :class:`ShardedBCCEngine` exploits that
exactness: it partitions a labeled graph into connected-component shards,
serves each shard from its own :class:`repro.api.BCCEngine`, and routes
queries through a vertex→shard table built at partition time.

Why this is strictly better than one monolithic engine on a multi-component
graph:

* **Laziness** — shards prepare on first use.  A query pays the CSR freeze
  and (for index methods) the BCindex build *of its own component only*;
  components nobody queries never do any work, which
  :meth:`ShardedBCCEngine.stats` proves with explicitly all-zero counters.
* **Smaller working sets** — label groups, cores and the BCindex are built
  over one component instead of the whole graph.
* **Free cross-component answers** — a query spanning two components can
  never have a community; it short-circuits to ``status="empty"`` with
  :data:`repro.exceptions.REASON_CROSS_SHARD` without touching any shard.

Answers are *identical* to the monolithic engine position-for-position
(same status, community, iteration counts and query distances) — enforced
by the randomized parity suite in ``tests/serving/`` — with one documented
difference: cross-component emptiness is reported as ``REASON_CROSS_SHARD``
by the router, while the monolithic engine reports the method's own
discovery of the same fact (e.g. ``REASON_QUERY_DISCONNECTED``).

Mutating the graph between serving calls triggers exactly one re-partition
(double-checked under a lock, counted in ``"partitions"``), discarding
every shard engine; mutating *during* an in-flight search remains undefined,
exactly as for :class:`BCCEngine`.

Bounded-memory serving (the persistent-store wiring)
----------------------------------------------------

With a :class:`repro.store.SnapshotStore` attached (``store=``), shard
engines page in from per-shard snapshot files instead of re-freezing and
re-indexing (``shard_attaches``), persist themselves on first build so the
next process — or the next page-in — attaches (``shard_persists``), and a
``max_resident_shards`` budget turns the shard table into an LRU: when a
page-in would exceed the budget the coldest resident engine is dropped
(``shard_evictions``) and simply re-attached from disk the next time a
query routes to it.  Eviction also works without a store — paging back
then costs a full rebuild — so the budget is a hard memory bound either
way.  In-flight queries keep serving from an evicted engine object until
they finish; eviction only removes it from the resident table.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Union

from repro.api.config import SearchConfig
from repro.api.engine import (
    DEFAULT_RESULT_CACHE_SIZE,
    BCCEngine,
    ProcessSlot,
    check_batch_args,
    error_response_for,
    is_caller_error,
    serve_batch,
    use_process_transport,
    within_deadline,
)
from repro.api.query import (
    STATUS_EMPTY,
    BatchQuery,
    Query,
    SearchResponse,
)
from repro.api.registry import get_method
from repro.exceptions import (
    REASON_CROSS_SHARD,
    VertexNotFoundError,
)
from repro.graph.labeled_graph import LabeledGraph, Vertex, as_labeled_graph
from repro.graph.traversal import connected_components
from repro.obs.tracing import span as obs_span
from repro.serving.stats import (
    ServingStats,
    aggregate_counters,
    graph_shape,
    zero_engine_counters,
)


class ShardedBCCEngine:
    """Serve one labeled graph as connected-component shards.

    Parameters
    ----------
    graph:
        The graph to serve, or any object exposing it as ``.graph`` (e.g. a
        :class:`repro.datasets.base.DatasetBundle`) — same contract as
        :class:`BCCEngine`.
    config:
        Base :class:`SearchConfig` handed to every shard engine; per-query
        and per-call overrides ride through unchanged, so config precedence
        (call > query > batch > engine base) matches the monolithic engine.
    result_cache_size, result_cache_policy:
        Forwarded to each shard engine's LRU result cache; the admission
        policy object is shared across shards (policies are stateless or
        internally locked).
    store, store_key:
        A :class:`repro.store.SnapshotStore` (or a root path for one) to
        page shard engines from and persist them to; ``store_key`` is the
        served-graph name the per-shard snapshot files live under
        (defaults to ``"sharded"``; :class:`repro.serving.GraphDirectory`
        passes the directory name).
    max_resident_shards:
        Memory budget: at most this many shard engines stay resident at
        once (LRU; ``None`` = unbounded, the pre-store behavior).  Must be
        >= 1 — a zero budget could never serve any query.

    The partition (connected components + the vertex→shard routing table)
    is computed eagerly at construction — routing must work before any
    shard exists — but shard *engines* are created and prepared lazily on
    the first query routed to them.
    """

    def __init__(
        self,
        graph: Union[LabeledGraph, object],
        config: Optional[SearchConfig] = None,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        result_cache_policy: Optional[object] = None,
        store: Optional[object] = None,
        store_key: str = "sharded",
        max_resident_shards: Optional[int] = None,
    ) -> None:
        graph = as_labeled_graph(graph)
        if max_resident_shards is not None and max_resident_shards < 1:
            raise ValueError("max_resident_shards must be >= 1 (or None)")
        self.graph: LabeledGraph = graph
        self.config: SearchConfig = config if config is not None else SearchConfig()
        self._result_cache_size = result_cache_size
        self._result_cache_policy = result_cache_policy
        if store is not None and not hasattr(store, "try_attach_shard"):
            # A root path was given; stand up a store over it.
            from repro.store import SnapshotStore

            store = SnapshotStore(store)
        self._store = store
        self._store_key = store_key
        self._max_resident_shards = max_resident_shards
        # Lock order (outermost first): partition -> shards; the counters
        # lock is a leaf, never held while acquiring another lock.
        self._partition_lock = threading.Lock()
        self._shards_lock = threading.Lock()
        self._counters_lock = threading.Lock()
        # Shard-pinned worker processes for backend="process" batches.
        self._process = ProcessSlot(
            graph, self.config, sharded=True, result_cache_size=result_cache_size
        )
        self._counters: Dict[str, int] = {
            "partitions": 0,
            "searches": 0,
            "cross_shard_queries": 0,
            "shard_engines_built": 0,
            "shard_attaches": 0,
            "shard_persists": 0,
            "shard_evictions": 0,
            "process_batches": 0,
            "process_tasks": 0,
            "process_fallbacks": 0,
        }
        self._components: List[List[Vertex]] = []
        self._routing: Dict[Vertex, int] = {}
        # Insertion/access-ordered so the budget can evict least recently
        # *used* (not least recently built): every hit re-ranks its shard.
        self._shards: "OrderedDict[int, BCCEngine]" = OrderedDict()
        self._graph_version: int = -1
        self._partition()

    # ------------------------------------------------------------------
    # partitioning & routing
    # ------------------------------------------------------------------
    def _partition(self) -> None:
        """(Re)compute components, the routing table and empty shard slots.

        Runs under the partition lock; callers outside ``__init__`` go
        through :meth:`_check_version` so one graph mutation produces
        exactly one re-partition however many threads observe it.
        """
        stale_process = None
        with self._partition_lock:
            version = self.graph.version()
            if version == self._graph_version:
                return
            found = connected_components(self.graph)
            routing: Dict[Vertex, int] = {}
            for shard_id, component in enumerate(found):
                for vertex in component:
                    routing[vertex] = shard_id
            # Members in graph order, not set order: a shard subgraph's
            # vertex order is pinned by its persisted snapshot, so it must
            # not follow PYTHONHASHSEED.
            components: List[List[Vertex]] = [[] for _ in found]
            for vertex in self.graph.vertices():
                components[routing[vertex]].append(vertex)
            with self._shards_lock:
                self._components = components
                self._routing = routing
                self._shards = OrderedDict()
            stale_process = self._process.take()
            self._graph_version = version
            self._count("partitions")
        if stale_process is not None:
            # Worker processes hold the old frozen snapshot; joining them
            # can take a moment, so it happens outside the router locks.
            stale_process.close()

    def _check_version(self) -> None:
        """Re-partition exactly once when the underlying graph mutated."""
        if self.graph.version() != self._graph_version:
            self._partition()

    def _count(self, name: str, amount: int = 1) -> None:
        with self._counters_lock:
            self._counters[name] += amount

    def shard_count(self) -> int:
        """Number of connected-component shards in the current partition."""
        self._check_version()
        return len(self._components)

    def shard_of(self, vertex: Vertex) -> int:
        """The shard id serving ``vertex`` (raises for unknown vertices)."""
        self._check_version()
        shard_id = self._routing.get(vertex)
        if shard_id is None:
            raise VertexNotFoundError(vertex)
        return shard_id

    def shards_built(self) -> List[int]:
        """Shard ids whose engine is currently resident.

        Without eviction this is exactly "shards someone queried"; under a
        ``max_resident_shards`` budget, evicted shards drop out of this
        list until a query pages them back in.
        """
        self._check_version()
        with self._shards_lock:
            return sorted(self._shards)

    def shard_engine(self, shard_id: int) -> BCCEngine:
        """The (lazily created, prepared) engine serving ``shard_id``.

        The double-checked fill under the shards lock mirrors the
        monolithic engine's fill-once caches: concurrent queries to a cold
        shard build its subgraph and engine exactly once.  With a store
        attached the fill *attaches* to the shard's persisted snapshot when
        one matches (no freeze, no peel) and persists the engine it built
        on a miss, so the next page-in — or the next process — attaches;
        either way the engine is prepared before any query runs.  When a
        ``max_resident_shards`` budget is set, filling a shard beyond the
        budget evicts the least recently used resident engine (in-flight
        queries on it finish unharmed; the next routed query pages it back).
        """
        self._check_version()
        if not 0 <= shard_id < len(self._components):
            raise IndexError(f"no shard {shard_id}")
        with self._shards_lock:
            engine = self._shards.get(shard_id)
            if engine is not None:
                self._shards.move_to_end(shard_id)
                return engine
        attached = built = persisted = False
        evicted = 0
        with obs_span("sharded.shard_engine", shard=shard_id), \
                self._shards_lock:
            engine = self._shards.get(shard_id)
            if engine is not None:
                self._shards.move_to_end(shard_id)
            else:
                subgraph = self.graph.induced_subgraph(
                    self._components[shard_id]
                )
                if self._store is not None:
                    engine = self._store.try_attach_shard(
                        self._store_key,
                        shard_id,
                        subgraph,
                        self.config,
                        result_cache_size=self._result_cache_size,
                        result_cache_policy=self._result_cache_policy,
                    )
                    attached = engine is not None
                if engine is None:
                    engine = BCCEngine(
                        subgraph,
                        self.config,
                        result_cache_size=self._result_cache_size,
                        result_cache_policy=self._result_cache_policy,
                    ).prepare()
                    built = True
                    if self._store is not None:
                        # Persisting pays this shard's one index build now
                        # so every later page-in (and every other process)
                        # attaches instead of re-peeling.
                        self._store.persist_shard(
                            self._store_key, shard_id, engine
                        )
                        persisted = True
                self._shards[shard_id] = engine
                self._shards.move_to_end(shard_id)
                if self._max_resident_shards is not None:
                    while len(self._shards) > self._max_resident_shards:
                        self._shards.popitem(last=False)
                        evicted += 1
        if built:
            self._count("shard_engines_built")
        if attached:
            self._count("shard_attaches")
        if persisted:
            self._count("shard_persists")
        if evicted:
            self._count("shard_evictions", evicted)
        return engine

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def _route(self, query: Query) -> Optional[int]:
        """The single shard serving ``query``, or ``None`` when it spans shards.

        Unknown query vertices raise :class:`VertexNotFoundError` exactly as
        the monolithic engine does (on an empty graph every vertex is
        unknown, so an empty :class:`ShardedBCCEngine` is serveable — every
        query just fails vertex validation).
        """
        shard_ids = set()
        for vertex in query.vertices:
            shard_id = self._routing.get(vertex)
            if shard_id is None:
                raise VertexNotFoundError(vertex)
            shard_ids.add(shard_id)
        if len(shard_ids) > 1:
            return None
        return shard_ids.pop()

    def _cross_shard_response(
        self, query: Query, method: str, elapsed: float
    ) -> SearchResponse:
        """The short-circuit answer for a query spanning components."""
        return SearchResponse(
            method=method,
            query=query.vertices,
            status=STATUS_EMPTY,
            reason=REASON_CROSS_SHARD,
            timings={
                "total_seconds": elapsed,
                "index_build_seconds": 0.0,
                "query_seconds": elapsed,
            },
        )

    @within_deadline
    def search(
        self,
        query: Query,
        *,
        config: Optional[SearchConfig] = None,
        use_cache: bool = True,
    ) -> SearchResponse:
        """Serve one query from the shard that owns its vertices.

        Same surface and semantics as :meth:`BCCEngine.search`, plus
        routing: a query whose vertices span components short-circuits to
        ``status="empty"`` with ``reason=REASON_CROSS_SHARD`` — a normal
        answer, never an exception — because no connected community can
        contain vertices of different components.  The method name is still
        resolved first, so unknown methods raise exactly as the monolithic
        engine's would.

        Note the router validates *vertex existence and placement* only; a
        cross-shard query with a structural defect the method would have
        rejected (wrong arity, duplicate labels) is answered as cross-shard
        empty — the method never runs, so its validation never sees it.

        The resolved config's ``deadline_ms`` bounds the whole call, a cold
        shard's build included; the shard engine searches under it.
        """
        start = time.perf_counter()
        with obs_span("sharded.search", method=query.method) as routed:
            self._check_version()
            spec = get_method(query.method)  # unknown-method parity: raises here
            shard_id = self._route(query)
            if shard_id is None:
                routed.annotate(cross_shard=True)
                self._count("searches")
                self._count("cross_shard_queries")
                return self._cross_shard_response(
                    query, spec.name, time.perf_counter() - start
                )
            routed.annotate(shard=shard_id)
            engine = self.shard_engine(shard_id)
            response = engine.search(query, config=config, use_cache=use_cache)
            self._count("searches")
            return response

    def search_many(
        self,
        queries: Union[BatchQuery, Iterable[Query]],
        *,
        config: Optional[SearchConfig] = None,
        on_error: str = "raise",
        max_workers: int = 1,
        use_cache: bool = True,
        backend: str = "thread",
    ) -> List[SearchResponse]:
        """Scatter-gather a batch across shards, preserving batch semantics.

        Responses are position-aligned with the input whatever
        ``max_workers``; ``on_error="return"`` converts per-query failures
        (including routing failures — a query naming an unknown vertex)
        into position-aligned ``status="error"`` rows exactly as
        :meth:`BCCEngine.search_many` does, and batch-structure errors
        always raise.  Shards the batch never routes to are never built —
        a batch touching only shard A leaves shard B at zero cost.

        ``max_workers > 1`` serves queries from one thread pool spanning
        shards; each shard engine's fill-once caches keep preparation
        exactly-once per shard under contention.

        ``backend`` is the monolithic engine's transport switch
        (:func:`~repro.api.engine.use_process_transport`).  On processes,
        routing stays in the parent — cross-shard rows never reach a worker
        — and each in-shard row is pinned to worker ``shard_id % workers``,
        so one worker builds each shard's engine.  Fallbacks to threads
        are the monolithic engine's.
        """
        batch = BatchQuery.of(queries)
        if use_process_transport(backend):
            responses = self._try_serve_process(
                batch,
                config=config,
                on_error=on_error,
                max_workers=max_workers,
                use_cache=use_cache,
            )
            if responses is not None:
                return responses
        # One shared implementation with the monolithic engine, so batch
        # semantics can never diverge.  No ``prepare`` hook: laziness is
        # the point — only the shards the batch routes to get built.
        return serve_batch(
            self,
            batch,
            config=config,
            on_error=on_error,
            max_workers=max_workers,
            use_cache=use_cache,
        )

    # ------------------------------------------------------------------
    # process batch transport
    # ------------------------------------------------------------------
    def _try_serve_process(
        self,
        batch: BatchQuery,
        *,
        config: Optional[SearchConfig],
        on_error: str,
        max_workers: int,
        use_cache: bool,
    ) -> Optional[List[SearchResponse]]:
        """Serve ``batch`` through shard-pinned workers, or ``None`` to fall back.

        Rows are routed in the parent: cross-shard rows short-circuit,
        routing failures follow ``on_error``, in-shard rows go to the
        process engine with their shard id.  Router counters tick only once
        the batch is served, so a fallback never counts a row twice.
        """
        # Before routing, which could raise or row a query under a bad policy.
        check_batch_args(on_error, max_workers)
        self._check_version()
        responses: List[Optional[SearchResponse]] = [None] * len(batch.queries)
        cross = 0
        remote: List[int] = []
        shards: List[int] = []
        for position, query in enumerate(batch.queries):
            start = time.perf_counter()
            try:
                spec = get_method(query.method)
                shard_id = self._route(query)
            except Exception as exc:
                if on_error == "raise" or not is_caller_error(query, exc):
                    raise
                responses[position] = error_response_for(query, exc)
                continue
            if shard_id is None:
                cross += 1
                responses[position] = self._cross_shard_response(
                    query, spec.name, time.perf_counter() - start
                )
            else:
                remote.append(position)
                shards.append(shard_id)
        rows = self._process.serve(
            BatchQuery(
                queries=tuple(batch.queries[p] for p in remote),
                config=batch.config,
            ),
            count=self._count,
            config=config,
            on_error=on_error,
            max_workers=max_workers,
            use_cache=use_cache,
            shards=shards,
        )
        if rows is None:
            return None
        served = sum(response.status != "error" for response in rows)
        self._count("searches", cross + served)
        self._count("cross_shard_queries", cross)
        for position, response in zip(remote, rows):
            responses[position] = response
        return list(responses)  # type: ignore[arg-type]

    def process_pool_stats(self) -> Optional[Dict[str, object]]:
        """The worker pool's stats block, or ``None`` when no pool is live."""
        return self._process.stats()

    def close_process_pool(self) -> None:
        """Shut the worker pool down (idempotent; a later batch respawns it)."""
        self._process.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def explain(
        self, query: Query, *, config: Optional[SearchConfig] = None
    ) -> Dict[str, object]:
        """Describe routing plus the owning shard's engine-level explain.

        Cross-shard queries are explained (``"cross_shard": True`` with the
        shard each vertex routes to) without building any shard engine.
        """
        self._check_version()
        spec = get_method(query.method)
        placements = {}
        for vertex in query.vertices:
            shard_id = self._routing.get(vertex)
            if shard_id is None:
                raise VertexNotFoundError(vertex)
            placements[vertex] = shard_id
        shard_ids = set(placements.values())
        info: Dict[str, object] = {
            "method": spec.name,
            "query": tuple(query.vertices),
            "routing": {
                "shards": len(self._components),
                "placements": {str(v): s for v, s in placements.items()},
                "cross_shard": len(shard_ids) > 1,
            },
        }
        if len(shard_ids) == 1:
            shard_id = shard_ids.pop()
            info["shard"] = shard_id
            info["engine"] = self.shard_engine(shard_id).explain(
                query, config=config
            )
        return info

    def counters_snapshot(self) -> Dict[str, int]:
        """A consistent copy of the serving-layer (router) counters."""
        with self._counters_lock:
            return dict(self._counters)

    def engine_counters(self) -> Dict[str, int]:
        """The resident shards' engine counters, summed (all-zero if none)."""
        with self._shards_lock:
            engines = list(self._shards.values())
        parts = [engine.counters_snapshot() for engine in engines]
        return aggregate_counters([zero_engine_counters(), *parts])

    def stats(self, name: str = "sharded-engine") -> ServingStats:
        """The stats-endpoint snapshot: router + per-shard engine stats.

        A built shard's block nests its engine's own report
        (:meth:`ServingStats.member_block`).  Never-built shards appear with
        explicitly all-zero engine counters — the machine-checkable laziness
        proof that untouched components performed no freezes, no index
        builds, no searches.  ``latency`` is empty: a served graph's latency
        is recorded once, at the :class:`repro.serving.GraphDirectory` edge.
        """
        self._check_version()
        with self._shards_lock:
            components = list(self._components)
            shards = dict(self._shards)
        blocks: List[Dict[str, object]] = []
        for shard_id, component in enumerate(components):
            engine = shards.get(shard_id)
            if engine is None:
                blocks.append(
                    {
                        "shard": shard_id,
                        "vertices": len(component),
                        "built": False,
                        "prepared": False,
                        "index_built": False,
                        "counters": zero_engine_counters(),
                        "cache": {"entries": 0, "hits": 0, "misses": 0},
                    }
                )
            else:
                member = engine.stats(f"{name}/shard{shard_id}")
                blocks.append(
                    {
                        "shard": shard_id,
                        "vertices": member.graph["vertices"],
                        "edges": member.graph["edges"],
                        "built": True,
                        **member.member_block(),
                    }
                )
        engine_totals = aggregate_counters(
            [block["counters"] for block in blocks]  # type: ignore[misc]
        )
        cache_totals = {
            "hits": engine_totals.get("result_cache_hits", 0),
            "misses": engine_totals.get("result_cache_misses", 0),
            "expirations": engine_totals.get("result_cache_expirations", 0),
            "entries": sum(
                int(block["cache"].get("entries", 0)) for block in blocks  # type: ignore[union-attr]
            ),
        }
        lookups = cache_totals["hits"] + cache_totals["misses"]
        cache_totals["hit_rate"] = (
            cache_totals["hits"] / lookups if lookups else None
        )
        counters = dict(engine_totals)
        # Router counters win the "searches" slot: they count every served
        # query including cross-shard short-circuits no shard ever saw.
        router = self.counters_snapshot()
        counters.update(router)
        store_block: Optional[Dict[str, object]] = None
        if self._store is not None or self._max_resident_shards is not None:
            store_block = {
                "enabled": self._store is not None,
                "key": self._store_key if self._store is not None else None,
                "max_resident_shards": self._max_resident_shards,
                "resident_shards": sorted(shards),
                "attaches": router["shard_attaches"],
                "persists": router["shard_persists"],
                "evictions": router["shard_evictions"],
            }
        return ServingStats(
            name=name,
            kind="sharded",
            graph={**graph_shape(self.graph), "components": len(components)},
            counters=counters,
            cache=cache_totals,
            shards=tuple(blocks),
            store=store_block,
            workers=self.process_pool_stats(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._shards_lock:
            built = len(self._shards)
        return (
            f"ShardedBCCEngine(|V|={self.graph.num_vertices()}, "
            f"shards={len(self._components)}, "
            f"built={built}, "
            f"searches={self.counters_snapshot()['searches']})"
        )

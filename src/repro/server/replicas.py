"""Replica sets: one hot graph served by N engines behind one front.

The sharded engine scales a graph *across* components; a single hot
component still funnels every query through one engine's locks and one
result cache.  :class:`ReplicaSet` is the horizontal answer the ROADMAP's
replica follow-up asks for: N independently prepared engines over the same
graph behind one ``ServingEngine``-shaped front (``search`` /
``search_many`` / ``explain`` / ``counters_snapshot`` / ``stats``), with

* **least-loaded routing** — each query goes to the replica with the
  fewest in-flight queries (ties break to the lowest replica id, so
  single-threaded traffic is deterministic and a warmed replica stays
  warm);
* **merged stats** — engine counters are summed, so the stats endpoint
  shows the set as one engine *plus* a per-replica breakdown (routed
  counts, in-flight gauge, each member's own ``stats`` report); its
  latency is the :class:`repro.serving.GraphDirectory` edge's, one per call;
* **shared substrate, private state** — replicas share the underlying
  ``LabeledGraph`` (whose version-cached CSR freeze is paid once for the
  whole set) but each owns its result cache, label groups, BCindex and
  locks, so concurrent serving threads stop contending on one engine's
  cache lock;
* **health, ejection & failover** — every replica carries a
  :class:`repro.server.resilience.ReplicaHealth` circuit breaker: a query
  that fails with a *non-caller* error (an engine crash, an injected
  fault) is transparently retried on another healthy replica, the failing
  replica accrues a health penalty, and after
  ``HealthPolicy.failure_threshold`` consecutive failures it is ejected
  from routing; after ``ejection_seconds`` the breaker admits one probe
  query whose outcome re-admits or re-ejects it.  Caller errors
  (:class:`~repro.exceptions.QueryError`, a missing query vertex) and an
  expired deadline raise through unchanged and never penalize a replica —
  a bad query or a spent budget is not a sick server.  When *every*
  replica is ejected, :class:`~repro.exceptions.AllReplicasEjectedError`
  is raised instead of hanging.

``GraphDirectory.add(name, graph, replicas=N)`` registers a replica set
exactly like any other engine, so a hot graph scales horizontally without
the client noticing.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Set, Union

from repro.api.config import SearchConfig
from repro.api.engine import (
    DEFAULT_RESULT_CACHE_SIZE,
    BCCEngine,
    is_caller_error,
    serve_batch,
    within_deadline,
)
from repro.api.query import BatchQuery, Query, SearchResponse
from repro.exceptions import AllReplicasEjectedError, DeadlineExceededError
from repro.graph.labeled_graph import LabeledGraph, as_labeled_graph
from repro.obs.tracing import span as obs_span
from repro.server.resilience import HealthPolicy, ReplicaHealth
from repro.serving.sharded import ShardedBCCEngine
from repro.serving.stats import ServingStats, aggregate_counters, graph_shape


class ReplicaSet:
    """N prepared engines serving one graph with least-loaded routing.

    Parameters
    ----------
    graph:
        The graph to serve, or any object exposing it as ``.graph`` — same
        contract as :class:`BCCEngine`.
    config:
        Base :class:`SearchConfig` handed to every replica.
    replicas:
        Number of engines in the set (>= 1).
    sharded:
        Build each replica as a :class:`ShardedBCCEngine` instead of a
        monolithic :class:`BCCEngine` — replication and sharding compose
        (N replicas, each component-sharded).
    result_cache_size, result_cache_policy:
        Forwarded to every replica's result cache; each replica owns its
        own cache (a policy object is shared — policies are stateless or
        internally locked).
    health_policy:
        The per-replica :class:`HealthPolicy` (one breaker per replica,
        shared policy).  Defaults to ``HealthPolicy()``.
    fault_plan:
        Optional :class:`repro.server.faults.FaultPlan` consulted at the
        ``"replica.search"`` site before each dispatch (chaos testing).
    clock:
        Monotonic clock driving the breakers' ejection windows — injectable
        so chaos tests advance time without sleeping.
    member_backend:
        ``"thread"`` (default) builds in-process engines.  ``"process"``
        builds each member as a :class:`repro.parallel.ProcessEngine`
        with one worker process, so a member crash is a real process death
        the health breaker ejects and the pool respawns behind it.  Each
        member exports the graph into its own shared-memory block (~10 B
        per edge) on its first search and rebuilds its pool after a graph
        mutation.  When shared memory is unavailable or the graph cannot
        be exported, the set degrades to thread members with a one-time
        warning.  Process-backed sets should be :meth:`close`\\ d.

    The set itself adds no new thread-safety requirements: routing state is
    a small in-flight table under one lock, breakers carry their own locks,
    and everything else is the replicas' own (already thread-safe)
    machinery.
    """

    def __init__(
        self,
        graph: Union[LabeledGraph, object],
        config: Optional[SearchConfig] = None,
        replicas: int = 2,
        sharded: bool = False,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        result_cache_policy: Optional[object] = None,
        health_policy: Optional[HealthPolicy] = None,
        fault_plan: Optional[object] = None,
        clock: Callable[[], float] = time.monotonic,
        member_backend: str = "thread",
    ) -> None:
        if replicas < 1:
            raise ValueError("a replica set needs at least one replica")
        if member_backend not in ("thread", "process"):
            raise ValueError(
                f"unknown member_backend {member_backend!r}; "
                "known: ('thread', 'process')"
            )
        self.graph: LabeledGraph = as_labeled_graph(graph)
        self.config: SearchConfig = config if config is not None else SearchConfig()
        self._sharded = sharded
        self._result_cache_size = result_cache_size
        self._result_cache_policy = result_cache_policy
        self._member_backend = member_backend
        self._engines: List[object] = self._build_members(replicas)
        self._fault_plan = fault_plan
        self.health_policy = (
            health_policy if health_policy is not None else HealthPolicy()
        )
        self._health: List[ReplicaHealth] = [
            ReplicaHealth(self.health_policy, clock=clock) for _ in range(replicas)
        ]
        self._route_lock = threading.Lock()
        self._in_flight: List[int] = [0] * replicas
        self._routed: List[int] = [0] * replicas
        self._searches = 0
        self._failovers = 0
        self._replica_failures = 0

    # ------------------------------------------------------------------
    # members
    # ------------------------------------------------------------------
    def _build_members(self, replicas: int) -> List[object]:
        """``replicas`` engines of the set's member backend.

        One trial export, closed at once, checks that the host has shared
        memory and that the graph exports (filling the snapshot caches the
        members' own exports reuse); otherwise the set degrades to thread
        members (one-time warning, never an error).
        """
        from repro.api.engine import _warn_process_fallback_once
        from repro.parallel.process_engine import ProcessEngine
        from repro.parallel.shm import ProcessBackendUnavailable, export_graph

        if self._member_backend == "process":
            try:
                export_graph(self.graph).close()
            except ProcessBackendUnavailable as exc:
                _warn_process_fallback_once(str(exc))
                self._member_backend = "thread"
            else:
                return [
                    ProcessEngine(
                        self.graph,
                        self.config,
                        workers=1,
                        sharded=self._sharded,
                        result_cache_size=self._result_cache_size,
                    )
                    for _ in range(replicas)
                ]
        engine_type = ShardedBCCEngine if self._sharded else BCCEngine
        return [
            engine_type(
                self.graph,
                self.config,
                result_cache_size=self._result_cache_size,
                result_cache_policy=self._result_cache_policy,
            )
            for _ in range(replicas)
        ]

    @property
    def member_backend(self) -> str:
        """``"thread"`` or ``"process"`` — what the members actually are."""
        return self._member_backend

    def close(self) -> None:
        """Shut down process-backed members and their exports.

        Idempotent and safe on thread-member sets (where it also tears
        down any lazy per-member process pools).
        """
        for engine in self._engines:
            closer = getattr(engine, "close", None)
            if closer is None:
                closer = getattr(engine, "close_process_pool", None)
            if closer is not None:
                closer()

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def replica_count(self) -> int:
        """Number of engines in the set."""
        return len(self._engines)

    def replica_engine(self, replica_id: int) -> Union[BCCEngine, ShardedBCCEngine]:
        """The engine behind ``replica_id`` (for tests and introspection)."""
        return self._engines[replica_id]

    def in_flight(self) -> List[int]:
        """A snapshot of the per-replica in-flight gauge."""
        with self._route_lock:
            return list(self._in_flight)

    def replica_health(self, replica_id: int) -> ReplicaHealth:
        """The health breaker behind ``replica_id`` (tests, introspection)."""
        return self._health[replica_id]

    def _acquire(self, exclude: Optional[Set[int]] = None) -> int:
        """Claim the least-loaded *healthy* replica (lowest id wins ties).

        ``routed`` counts every claim (it measures routing balance, so
        attempts belong in it); the set-level ``searches`` counter is
        bumped only once the engine actually serves the query, matching
        :class:`BCCEngine`'s "malformed queries are not served searches"
        semantics — so set-level and summed per-replica counters always
        reconcile.

        ``exclude`` lists replicas that already failed this query (failover
        must not bounce back to them).  Ejected replicas are skipped via
        their breaker; when no replica will admit the query,
        :class:`AllReplicasEjectedError` is raised rather than queueing
        onto a dead set.
        """
        excluded = exclude if exclude is not None else frozenset()
        with self._route_lock:
            order = sorted(
                range(len(self._engines)), key=lambda i: (self._in_flight[i], i)
            )
            for replica_id in order:
                if replica_id in excluded:
                    continue
                # try_admit() takes the breaker's own lock inside the route
                # lock; breakers never take the route lock, so the order is
                # acyclic.
                if not self._health[replica_id].try_admit():
                    continue
                self._in_flight[replica_id] += 1
                self._routed[replica_id] += 1
                return replica_id
        raise AllReplicasEjectedError(
            name="replica-set", replicas=len(self._engines)
        )

    def _release(self, replica_id: int) -> None:
        with self._route_lock:
            self._in_flight[replica_id] -= 1

    # ------------------------------------------------------------------
    # serving (ServingEngine surface)
    # ------------------------------------------------------------------
    @within_deadline
    def search(
        self,
        query: Query,
        *,
        config: Optional[SearchConfig] = None,
        use_cache: bool = True,
    ) -> SearchResponse:
        """Serve one query from the least-loaded healthy replica.

        Same surface and semantics as :meth:`BCCEngine.search` — replicas
        serve the same graph, so *which* replica answers never changes the
        answer (asserted by the replica parity tests); it only changes
        which cache warms and which locks contend.

        A replica that fails with a non-caller error is charged a health
        failure and the query **fails over** to another healthy replica
        (each replica is tried at most once per query).  Caller errors and
        :class:`~repro.exceptions.DeadlineExceededError` re-raise
        immediately without a health verdict: a cancelled attempt neither
        counts as a failure nor feeds the latency EWMA.  Once every replica
        has either failed this query or refused admission, the last
        replica's error propagates — or :class:`AllReplicasEjectedError`
        when nothing would even admit the query.

        The resolved config's ``deadline_ms`` bounds the whole call: a
        failover retry runs on what the failed attempts left of it, never
        on a fresh budget.
        """
        tried: Set[int] = set()
        last_error: Optional[BaseException] = None
        while True:
            try:
                replica_id = self._acquire(exclude=tried)
            except AllReplicasEjectedError:
                if last_error is not None:
                    # At least one replica actually ran (and failed) this
                    # query — its error is the informative one.
                    raise last_error
                raise
            health = self._health[replica_id]
            start = time.perf_counter()
            try:
                with obs_span("replica.search", replica=replica_id) as attempt:
                    if self._fault_plan is not None:
                        self._fault_plan.on(
                            "replica.search",
                            replica=replica_id,
                            method=query.method,
                            vertices=query.vertices,
                        )
                    response = self._engines[replica_id].search(
                        query, config=config, use_cache=use_cache
                    )
            except BaseException as exc:
                if is_caller_error(query, exc) or isinstance(
                    exc, DeadlineExceededError
                ):
                    # Bad query or spent budget, fine replica: no health
                    # verdict (beyond releasing a claimed probe slot), no
                    # failover — the same query would fail identically
                    # everywhere, and another replica gets no more time.
                    health.record_neutral()
                    raise
                # The finished attempt span (which names the error) records
                # which replica failed; the failover retry opens its own
                # span next iteration.
                attempt.annotate(failed=True)
                health.record_failure()
                with self._route_lock:
                    self._replica_failures += 1
                    self._failovers += 1
                tried.add(replica_id)
                last_error = exc
                continue
            finally:
                # The in-flight gauge must come back down on *every* path —
                # success, caller error, replica failure — or a crashing
                # replica would permanently look loaded and skew routing.
                self._release(replica_id)
            health.record_success(time.perf_counter() - start)
            # Served queries only: a malformed query raised above and is
            # not a search (same rule as the monolithic and sharded
            # engines).
            with self._route_lock:
                self._searches += 1
            return response

    def search_many(
        self,
        queries: Union[BatchQuery, Iterable[Query]],
        *,
        config: Optional[SearchConfig] = None,
        on_error: str = "raise",
        max_workers: int = 1,
        use_cache: bool = True,
    ) -> List[SearchResponse]:
        """Serve a batch, routing every member query independently.

        One shared batch implementation with the monolithic and sharded
        engines (position alignment, ``on_error``, ``max_workers``,
        ``use_cache``); with ``max_workers > 1`` the in-flight gauge is what
        actually spreads a concurrent batch across replicas.
        """
        return serve_batch(
            self,
            queries,
            config=config,
            on_error=on_error,
            max_workers=max_workers,
            use_cache=use_cache,
        )

    def explain(
        self, query: Query, *, config: Optional[SearchConfig] = None
    ) -> Dict[str, object]:
        """Routing info plus the target replica's own engine-level explain.

        Explain routes like a search would (least-loaded at this instant)
        but does not hold the slot — it never runs the query.
        """
        with self._route_lock:
            replica_id = min(
                range(len(self._engines)), key=lambda i: (self._in_flight[i], i)
            )
            in_flight = list(self._in_flight)
        return {
            "replicas": len(self._engines),
            "replica": replica_id,
            "in_flight": in_flight,
            "engine": self._engines[replica_id].explain(query, config=config),
        }

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def counters_snapshot(self) -> Dict[str, int]:
        """Set-level counters: summed engine counters + routing totals.

        The set's own count of served queries wins the ``"searches"`` slot:
        each query ran on exactly one replica, so the sum would normally
        agree, but the set-level number is taken at the set's own edge and
        stays correct even for engines that count router-level
        short-circuits of their own (sharded replicas).
        """
        counters = aggregate_counters(
            [engine.counters_snapshot() for engine in self._engines]
        )
        health_snapshots = [health.snapshot() for health in self._health]
        with self._route_lock:
            counters["searches"] = self._searches
            counters["replicas"] = len(self._engines)
            counters["failovers"] = self._failovers
            counters["replica_failures"] = self._replica_failures
        counters["ejections"] = sum(
            int(snap["ejections"]) for snap in health_snapshots
        )
        counters["readmissions"] = sum(
            int(snap["readmissions"]) for snap in health_snapshots
        )
        return counters

    def health_summary(self) -> Dict[str, object]:
        """The set's health as one coarse verdict plus per-replica states.

        ``state`` is ``"ok"`` when every replica would admit a query,
        ``"degraded"`` when some would, ``"down"`` when none would (the
        gateway's ``/healthz`` turns ``"down"`` into a 503).  Uses the
        side-effect-free :meth:`ReplicaHealth.peek_available`, so reporting
        health never claims a probe slot.
        """
        states = [health.state() for health in self._health]
        available = sum(1 for health in self._health if health.peek_available())
        if available == len(states):
            state = "ok"
        elif available > 0:
            state = "degraded"
        else:
            state = "down"
        return {
            "state": state,
            "replicas": len(states),
            "available": available,
            "states": states,
        }

    def stats(self, name: str = "replica-set") -> ServingStats:
        """The stats-endpoint snapshot: merged totals + per-replica blocks.

        ``replicas`` carries one block per replica: its routed count,
        current in-flight gauge and health, around the member's own report
        (:meth:`ServingStats.member_block`), so an operator can see both
        the set as one engine and whether routing is balanced.
        ``latency`` is empty: the directory edge records it.
        """
        with self._route_lock:
            routed = list(self._routed)
            in_flight = list(self._in_flight)
        blocks: List[Dict[str, object]] = []
        cache = {"hits": 0, "misses": 0, "entries": 0}
        for replica_id, engine in enumerate(self._engines):
            member = engine.stats(f"{name}/replica{replica_id}")
            blocks.append(
                {
                    "replica": replica_id,
                    "routed": routed[replica_id],
                    "in_flight": in_flight[replica_id],
                    **member.member_block(),
                    "health": self._health[replica_id].snapshot(),
                }
            )
            for key in cache:
                # A process member's cache entries live worker-side: None.
                cache[key] += int(member.cache.get(key) or 0)
        lookups = cache["hits"] + cache["misses"]
        return ServingStats(
            name=name,
            kind="replicated",
            graph=graph_shape(self.graph),
            counters=self.counters_snapshot(),
            cache={
                **cache,
                "hit_rate": (cache["hits"] / lookups) if lookups else None,
            },
            replicas=tuple(blocks),
            health=self.health_summary(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._route_lock:
            searches = self._searches
        return (
            f"ReplicaSet(|V|={self.graph.num_vertices()}, "
            f"replicas={len(self._engines)}, "
            f"sharded={self._sharded}, searches={searches})"
        )

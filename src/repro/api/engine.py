"""The prepared, query-serving engine — the library's single front door.

``BCCEngine`` binds a labeled graph to a :class:`SearchConfig` and serves
queries through the method registry.  It *prepares once and serves many*:

* :meth:`prepare` freezes the graph's CSR snapshot (version-cached, so every
  CSR kernel on the unmutated graph reuses it) and fills the caches
  the BCC searches of :mod:`repro.core.pipeline` read from it — the
  label-group coreness and the same-label / cross-label adjacency per id
  (:meth:`frozen_graph`);
* :meth:`group` caches label-induced subgraphs for mBCC, the one method
  that still takes object graphs — each group is built once per engine;
* :meth:`ensure_index` lazily builds one reusable BCindex for the
  index-based methods, timing the build separately from query time;
* repeated queries are answered from a bounded LRU result cache keyed on
  ``(method, vertices, resolved config, graph version)`` — bypassable per
  call with ``use_cache=False`` and sized via ``result_cache_size``.

The engine is safe to serve from multiple threads: each fill-once cache
(CSR freeze and the caches filled on it, label groups, BCindex) is guarded
by its own lock with a double-checked fill, so a
``search_many(..., max_workers=8)`` batch still performs each preparation
step exactly once, and counter increments are lock-protected.  Mutating
the *graph* while queries are in flight remains undefined; mutations
between calls are detected per serving call and invalidate every cache
exactly once (counted in the ``"invalidations"`` counter).

:meth:`counters_snapshot` records how often each preparation step actually
ran, so tests (and operators) can assert the amortization: a ``search_many``
batch over an unmutated graph performs the CSR freeze and the BCindex build
at most once.

The result cache accepts an optional *admission policy* (see
:mod:`repro.serving.policies`): an object with ``now()``, ``admit(method,
response)``, ``expired(method, age_seconds)`` and ``method_budget(method)``
hooks layered onto the LRU — TTL expiry turns stale hits into misses, and a
per-method size budget evicts only that method's entries.

The engine answers "no community" with a ``SearchResponse`` of
``status="empty"`` and a machine-readable ``reason``.  Malformed queries
raise from :meth:`search` (:class:`repro.exceptions.QueryError` and friends);
:meth:`search_many` additionally offers ``on_error="return"``, which converts
a per-query failure into a position-aligned ``status="error"`` response
instead of aborting the batch.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import threading
import time
import warnings
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.api.config import SearchConfig
from repro.obs.tracing import span as obs_span
from repro.api.query import (
    STATUS_EMPTY,
    STATUS_ERROR,
    STATUS_OK,
    BatchQuery,
    Query,
    SearchResponse,
)
from repro.api.registry import MethodSpec, get_method
from repro.core.bc_index import BCIndex
from repro.core.bcc_model import resolve_query_labels
from repro.core.multilabel import resolve_mbcc_parameters, validate_mbcc_query
from repro.core.pipeline import resolve_parameters
from repro.deadline import current_deadline, reset_deadline, set_deadline
from repro.eval.instrumentation import SearchInstrumentation
from repro.exceptions import (
    REASON_DEADLINE_EXCEEDED,
    REASON_INVALID_QUERY,
    REASON_MISSING_VERTEX,
    REASON_UNAVAILABLE,
    REASON_UNKNOWN_METHOD,
    REASON_WORKER_CRASHED,
    AllReplicasEjectedError,
    DeadlineExceededError,
    EmptyCommunityError,
    QueryError,
    UnknownMethodError,
    VertexNotFoundError,
    WorkerCrashedError,
)
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import Label, LabeledGraph, as_labeled_graph

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.serving.stats import ServingStats

#: ``search_many`` error policies.
ON_ERROR_POLICIES = ("raise", "return")

#: ``search_many`` transports: ``"thread"`` (the default) serves the rows
#: in this process; ``"process"`` scatter-gathers them across
#: shared-memory worker processes (:mod:`repro.parallel`).
BACKENDS = ("thread", "process")

#: Default capacity of the per-engine LRU result cache (entries).
DEFAULT_RESULT_CACHE_SIZE = 128

#: Every counter an engine maintains, in reporting order.  The serving
#: layer uses this to report an all-zero snapshot for shards whose engine
#: was never built (the laziness proof: untouched shards did no work).
ENGINE_COUNTER_NAMES = (
    "prepare_calls",
    "csr_freezes",
    "index_builds",
    "group_builds",
    "searches",
    "invalidations",
    "result_cache_hits",
    "result_cache_misses",
    "result_cache_expirations",
    "result_cache_rejections",
    "result_cache_budget_evictions",
    "process_batches",
    "process_tasks",
    "process_fallbacks",
    "g0_memo_hits",
    "g0_memo_misses",
)

# One warning per process when the process backend falls back to threads
# (satellite: unavailable shared memory must degrade loudly-once, not
# per-batch); the "process_fallbacks" counter keeps the full tally.
_PROCESS_FALLBACK_WARNED = False


def _warn_process_fallback_once(reason: str) -> None:
    global _PROCESS_FALLBACK_WARNED
    if _PROCESS_FALLBACK_WARNED:
        return
    _PROCESS_FALLBACK_WARNED = True
    warnings.warn(
        f"process backend unavailable ({reason}); serving batches on the "
        "threaded path instead",
        RuntimeWarning,
        stacklevel=4,
    )


def _error_message(exc: BaseException) -> str:
    """The exception message, unwrapping KeyError's repr-quoting."""
    # VertexNotFoundError subclasses KeyError, whose str() wraps the message
    # in quotes; the original message is always the first argument.
    if exc.args and isinstance(exc.args[0], str):
        return exc.args[0]
    return str(exc)


def is_caller_error(query: Query, exc: Exception) -> bool:
    """Whether ``exc`` is the *query's* fault (eligible for ``"return"``).

    A :class:`VertexNotFoundError` naming a vertex that is not a query
    vertex escaped from deep inside a runner — an implementation bug, not a
    malformed query — and must propagate, never be converted into a
    per-query error row.  Shared by :class:`BCCEngine` and the sharded
    serving layer so both apply one rule.
    """
    if isinstance(exc, VertexNotFoundError):
        return getattr(exc, "vertex", None) in query.vertices
    return isinstance(exc, QueryError)


def reason_for_error(exc: Exception) -> str:
    """The machine-readable ``REASON_*`` code for a failed query.

    Shared by :func:`error_response_for` and the HTTP gateway (which maps
    the reason onwards to an HTTP status through
    :data:`repro.exceptions.HTTP_STATUS_BY_REASON`): deadline expiries map
    to ``deadline-exceeded`` (504), an all-replicas-ejected outage to
    ``unavailable`` (503), caller errors to their 4xx reasons.
    """
    if isinstance(exc, VertexNotFoundError):
        return REASON_MISSING_VERTEX
    if isinstance(exc, UnknownMethodError):
        return REASON_UNKNOWN_METHOD
    if isinstance(exc, DeadlineExceededError):
        return REASON_DEADLINE_EXCEEDED
    if isinstance(exc, AllReplicasEjectedError):
        return REASON_UNAVAILABLE
    if isinstance(exc, WorkerCrashedError):
        return REASON_WORKER_CRASHED
    return REASON_INVALID_QUERY


def error_response_for(query: Query, exc: Exception) -> SearchResponse:
    """A position-aligned ``status="error"`` response for a failed query."""
    return SearchResponse(
        method=query.method,
        query=query.vertices,
        status=STATUS_ERROR,
        reason=reason_for_error(exc),
        error=_error_message(exc),
    )


def use_process_transport(backend: str) -> bool:
    """Whether a ``search_many`` batch goes to the worker-process pool.

    The one transport check of :class:`BCCEngine` and the sharded router:
    ``"process"`` asks for the pool, ``"thread"`` serves in this process,
    and a value outside :data:`BACKENDS` raises :class:`QueryError`.
    """
    if backend not in BACKENDS:
        raise QueryError(f"unknown backend {backend!r}; known: {BACKENDS}")
    return backend == "process"


class ProcessSlot:
    """An engine's process transport: a ProcessEngine built on first use.

    Both engines serve their ``backend="process"`` batches through
    :meth:`serve`, on a :class:`~repro.parallel.ProcessEngine` built by the
    first batch (it starts and grows its own worker pool); :meth:`take`
    empties the slot when the graph mutates.  The lock guards only the
    slot and is a leaf: closing joins worker processes, so whoever takes
    an engine out closes it outside every lock it holds.
    """

    def __init__(self, graph, config: SearchConfig, **options) -> None:
        self._graph = graph
        self._config = config
        self._options = options
        self._lock = threading.Lock()
        self._engine = None

    def serve(
        self,
        batch: BatchQuery,
        *,
        count: Callable[..., None],
        **batch_args,
    ) -> Optional[List[SearchResponse]]:
        """``search_many(batch, **batch_args)`` on the slot's engine, or ``None``.

        ``None`` means "fall back to threads": the substrate is unavailable
        (no shared memory, a failed spawn).  The fallback is graceful —
        counted in ``"process_fallbacks"`` through the calling engine's
        ``count`` hook, warned once per process — and empties the slot so
        a later batch retries.  Caller errors and error rows propagate
        from the workers unchanged.
        (The hook is passed per call: a slot holding its engine's bound
        method would be a reference cycle that keeps a discarded engine's
        graph alive until the cyclic collector runs.)
        """
        from repro.parallel.process_engine import ProcessEngine
        from repro.parallel.shm import ProcessBackendUnavailable

        with self._lock:
            if self._engine is None:  # one worker; the batch grows the pool
                self._engine = ProcessEngine(
                    self._graph, self._config, workers=1, **self._options
                )
            engine = self._engine
        try:
            responses = engine.search_many(batch, **batch_args)
        except ProcessBackendUnavailable as exc:
            self.close()
            count("process_fallbacks")
            _warn_process_fallback_once(str(exc))
            return None
        count("process_batches")
        count("process_tasks", len(batch.queries))
        return responses

    def take(self):
        """Empty the slot and return what it held (the caller closes it)."""
        with self._lock:
            engine, self._engine = self._engine, None
        return engine

    def stats(self) -> Optional[Dict[str, object]]:
        """The pool's stats block, or ``None`` while the slot is empty."""
        with self._lock:
            engine = self._engine
        return None if engine is None else engine.worker_stats()

    def close(self) -> None:
        """Empty the slot and shut its engine down (a later batch rebuilds it)."""
        engine = self.take()
        if engine is not None:
            engine.close()


def run_with_deadline(
    fn,
    seconds: Optional[float],
    what: str = "call",
    clock: Callable[[], float] = time.monotonic,
):
    """Run ``fn`` inline under a budget of ``seconds`` on ``clock``.

    ``None`` runs ``fn`` with no deadline, and so does an outer deadline
    with no more than ``seconds`` left: ``fn`` then runs plainly under it,
    with no token, no ``deadline`` span and no post-check of its own, so
    nested calls share one budget and the earlier expiry wins.  Otherwise
    ``fn`` runs on the caller's thread under a new :mod:`repro.deadline`
    token: the kernels' checkpoints raise
    :class:`~repro.exceptions.DeadlineExceededError` once it passes, so an
    expired call stops working instead of running on, and an answer that
    arrives, by ``clock``, after ``seconds`` raises the same error.  Other
    exceptions from ``fn`` propagate unchanged.  Every host's ``search``
    enforces its config's budget through it (:func:`within_deadline`), and
    the HTTP gateway bounds each request with it.
    """
    outer = current_deadline()
    if seconds is None or (outer is not None and outer.remaining() <= seconds):
        return fn()
    with obs_span("deadline", what=what, budget_ms=seconds * 1000.0) as timed:
        start = clock()
        token = set_deadline(seconds, start, clock)
        try:
            value = fn()
            if clock() - start > seconds:
                raise DeadlineExceededError(deadline_ms=seconds * 1000.0)
        except DeadlineExceededError:
            if timed is not None:
                timed.annotate(exceeded=True)
            raise
        finally:
            reset_deadline(token)
    return value


def within_deadline(search):
    """Run a host's ``search`` under the deadline of the config it resolves.

    The one deadline seam of :class:`BCCEngine`, the sharded router and
    the replica set.  The decorated method receives its config resolved
    (call, then query, then the host's base) and runs under that config's
    ``deadline_ms`` through :func:`run_with_deadline`, so a bare
    ``search`` honours the budget exactly as a ``search_many`` row or a
    gateway request does.  A host nested in another (a shard engine, a
    replica) finds the outer budget in force and runs plainly under it,
    so a shard build or a failed replica attempt counts against the one
    budget of the call.  Without a budget this costs one ``is None`` test.
    """

    @functools.wraps(search)
    def bounded(self, query: Query, *, config=None, use_cache: bool = True):
        config = resolve_config(config, query.config, self.config)
        if config.deadline_ms is None:
            return search(self, query, config=config, use_cache=use_cache)
        return run_with_deadline(
            lambda: search(self, query, config=config, use_cache=use_cache),
            config.deadline_ms / 1000.0,
            f"search:{query.method}",
        )

    return bounded


def resolve_config(*tiers: Optional[SearchConfig]) -> Optional[SearchConfig]:
    """The config a query runs under: the first tier that is set wins.

    Callers list the tiers they have, highest first — call, query, batch,
    engine base.  The winner is used *entirely*, so a call-level config
    without a deadline deliberately clears a batch-level one.  ``None``
    when no tier is set (a process row that inherits the workers' base).
    """
    for config in tiers:
        if config is not None:
            return config
    return None


def deadline_seconds_for(*tiers: Optional[SearchConfig]) -> Optional[float]:
    """The deadline, in seconds, of the config :func:`resolve_config` picks."""
    config = resolve_config(*tiers)
    deadline_ms = None if config is None else config.deadline_ms
    return None if deadline_ms is None else deadline_ms / 1000.0


def check_batch_args(on_error: str, max_workers: int) -> None:
    """Raise :class:`QueryError` for an unknown ``on_error`` or ``max_workers < 1``.

    Every ``search_many`` checks its arguments here, whichever transport
    serves the batch.
    """
    if on_error not in ON_ERROR_POLICIES:
        raise QueryError(
            f"unknown on_error policy {on_error!r}; known: {ON_ERROR_POLICIES}"
        )
    if max_workers < 1:
        raise QueryError("max_workers must be >= 1")


def serve_batch(
    engine,
    queries: Union[BatchQuery, Iterable[Query]],
    *,
    config: Optional[SearchConfig],
    on_error: str,
    max_workers: int,
    use_cache: bool,
    prepare=None,
) -> List[SearchResponse]:
    """The one batch-dispatch implementation behind every ``search_many``.

    ``engine`` is anything with the uniform ``search(query, *, config,
    use_cache)`` method — the monolithic :class:`BCCEngine`, the sharded
    router and the replica set all delegate here, so batch semantics
    (validation, config precedence, per-query error policy,
    position-aligned thread-pool dispatch) can never diverge between them.
    ``prepare`` optionally runs once before a non-empty batch is served.

    **Deadlines.**  A row's effective config travels into
    ``engine.search``, which enforces its ``deadline_ms``
    (:func:`within_deadline`): the budget runs from the moment the
    row is dispatched, and a row that exhausts it stops at its kernel's
    next checkpoint and becomes a position-aligned ``status="error"`` /
    ``reason="deadline-exceeded"`` row under ``on_error="return"`` (or
    raises :class:`~repro.exceptions.DeadlineExceededError` under
    ``"raise"``).  One slow query therefore costs the batch about its own
    budget instead of wedging every row behind it.  Each row runs in a
    copy of the caller's context, so a deadline set around the whole batch
    bounds rows that carry none of their own.
    """
    check_batch_args(on_error, max_workers)
    batch = BatchQuery.of(queries)
    items, batch_config = batch.queries, batch.config
    if items and prepare is not None:
        prepare()

    def serve(query: Query) -> SearchResponse:
        row_config = resolve_config(config, query.config, batch_config)
        with obs_span("row", method=query.method):
            try:
                return engine.search(query, config=row_config, use_cache=use_cache)
            except DeadlineExceededError as exc:
                if on_error == "raise":
                    raise
                return error_response_for(query, exc)
            except (QueryError, VertexNotFoundError) as exc:
                if on_error == "raise" or not is_caller_error(query, exc):
                    raise
                return error_response_for(query, exc)

    with obs_span("batch", rows=len(items), transport="thread"):
        if max_workers > 1 and len(items) > 1:
            # Executor threads do not inherit contextvars; each row gets a
            # private copy of the caller's context so its "row" span joins
            # this batch's trace (a Context object is single-entry, hence
            # one copy per row, not one shared copy).
            contexts = [contextvars.copy_context() for _ in items]
            with ThreadPoolExecutor(
                max_workers=min(max_workers, len(items))
            ) as pool:
                # map() yields in submission order, so responses stay
                # position-aligned and an on_error="raise" failure surfaces
                # at its earliest position.
                return list(
                    pool.map(
                        lambda pair: pair[0].run(serve, pair[1]),
                        zip(contexts, items),
                    )
                )
        return [serve(query) for query in items]


@dataclasses.dataclass
class _CacheEntry:
    """One result-cache slot: the response plus what a policy needs.

    ``stamp`` is the policy clock's insertion time (0.0 without a policy —
    nothing ever reads it then), ``method`` the canonical method name so a
    per-method budget can evict its own entries without re-parsing keys.
    """

    response: SearchResponse
    method: str
    stamp: float


class BCCEngine:
    """A long-lived, thread-safe search engine over one labeled graph.

    Parameters
    ----------
    graph:
        The graph to serve, or any object exposing it as ``.graph`` (e.g. a
        :class:`repro.datasets.base.DatasetBundle`).
    config:
        Base :class:`SearchConfig`; per-query overrides ride on the query or
        the ``search(..., config=...)`` call.
    index:
        Optional pre-built :class:`BCIndex` to reuse; when omitted one is
        built lazily the first time an index-based method runs.
    result_cache_size:
        Capacity of the LRU result cache (0 disables it).  Cached responses
        are keyed on ``(method, vertices, resolved config, graph version)``
        and replayed with fresh timings; hits and misses are counted in
        the engine counters.
    result_cache_policy:
        Optional admission policy layered onto the LRU (see
        :mod:`repro.serving.policies`): ``admit`` can refuse to cache a
        response, ``expired`` turns a stale hit into a miss (the entry is
        evicted and counted in ``"result_cache_expirations"``), and
        ``method_budget`` caps how many entries one method may hold —
        exceeding the budget evicts that method's oldest entries only.
    fault_plan:
        Optional :class:`repro.server.faults.FaultPlan` (or any object with
        an ``on(site, **attrs)`` hook).  :meth:`search` invokes it at site
        ``"engine.search"`` with ``method``/``vertices`` attributes before
        running the query, so chaos tests can make this engine raise or
        stall on a deterministic schedule.  ``None`` (the default) costs
        nothing.

    The engine assumes a *serving* graph: searches never mutate it, and the
    caches stay warm across queries.  If the graph is mutated anyway, the
    engine detects the version change at the next serving call and
    transparently rebuilds its caches (mutating the graph while another
    thread is mid-search is not supported).
    """

    def __init__(
        self,
        graph: Union[LabeledGraph, object],
        config: Optional[SearchConfig] = None,
        index: Optional[BCIndex] = None,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        result_cache_policy: Optional[object] = None,
        fault_plan: Optional[object] = None,
    ) -> None:
        graph = as_labeled_graph(graph)
        if result_cache_size < 0:
            raise ValueError("result_cache_size must be non-negative")
        self.graph: LabeledGraph = graph
        self.config: SearchConfig = config if config is not None else SearchConfig()
        self.fault_plan = fault_plan
        self._index: Optional[BCIndex] = index
        self._groups: Dict[Label, LabeledGraph] = {}
        self._graph_version: int = graph.version()
        self._prepared: bool = False
        self._index_build_seconds: float = 0.0
        # Per-thread attribution of index-build time: each query runs on one
        # thread, so only the query whose thread performed the build reports
        # a non-zero index_build_seconds — diffing the shared accumulator
        # would charge the build to every query overlapping it (and push
        # their query_seconds negative) under a threaded batch.
        self._tls = threading.local()
        self._result_cache_size: int = result_cache_size
        self._result_cache_policy = result_cache_policy
        self._result_cache: "OrderedDict[Tuple, _CacheEntry]" = OrderedDict()
        # Per-cache locks: each fill-once cache fills under its own lock via
        # a double-checked pattern, so concurrent serving threads perform
        # every preparation step exactly once.  Lock order (outermost first)
        # is index -> version -> groups -> freeze -> counters; the freeze
        # lock guards the CSR freeze and the pipeline caches filled on the
        # frozen snapshot, and cache / counter / process-slot locks are
        # leaves.
        self._freeze_lock = threading.Lock()
        self._groups_lock = threading.Lock()
        self._index_lock = threading.Lock()
        self._version_lock = threading.Lock()
        self._cache_lock = threading.Lock()
        self._counters_lock = threading.Lock()
        self._process = ProcessSlot(
            self.graph,
            self.config,
            result_cache_size=result_cache_size,
            fault_plan=fault_plan,
        )
        self._counters: Dict[str, int] = {
            name: 0 for name in ENGINE_COUNTER_NAMES
        }

    def counters_snapshot(self) -> Dict[str, int]:
        """Return a lock-protected, consistent copy of the engine counters.

        The copy is the caller's to keep or mutate; it never observes a
        torn multi-counter state from concurrent serving threads.
        """
        with self._counters_lock:
            return dict(self._counters)

    def _count(self, name: str, amount: int = 1) -> None:
        """Thread-safe counter increment (``+=`` on a dict slot is not)."""
        with self._counters_lock:
            self._counters[name] += amount

    # ------------------------------------------------------------------
    # prepared state
    # ------------------------------------------------------------------
    def _check_version(self) -> None:
        """Invalidate every cache when the underlying graph was mutated.

        Double-checked under the version lock so one mutation triggers
        exactly one invalidation no matter how many serving threads observe
        it; the rebuilds themselves then run once under their cache locks.
        """
        if self.graph.version() == self._graph_version:
            return
        stale_process = None
        with self._version_lock:
            version = self.graph.version()
            if version == self._graph_version:
                return
            self._graph_version = version
            with self._groups_lock:
                self._groups.clear()
            self._index = None
            self._prepared = False
            with self._cache_lock:
                self._result_cache.clear()
            stale_process = self._process.take()
            self._count("invalidations")
        if stale_process is not None:
            # Workers hold the *old* frozen snapshot; joining them can take
            # a moment, so it happens outside every engine lock.
            stale_process.close()

    def prepare(self) -> "BCCEngine":
        """Freeze the graph and warm its label-group coreness for serving.

        Idempotent on an unmutated graph: the freeze (counted only when no
        current snapshot exists) and the coreness each run at most once,
        even under thread contention.  Returns ``self`` so
        ``BCCEngine(graph).prepare()`` chains.
        """
        self._check_version()
        self._count("prepare_calls")
        self.frozen_graph()
        self._prepared = True
        return self

    def frozen_graph(self, split: bool = False) -> CSRGraph:
        """Return the graph's frozen CSR with the pipeline's caches filled.

        The freeze, the label-group coreness and, with ``split``, the per-id
        label split run at most once per graph version, under the freeze
        lock, however many threads ask.  On a fresh engine the coreness is
        peeled from the split, so :meth:`prepare` builds both; an engine
        attached to a snapshot reads the stored coreness and leaves the
        split to its first BCC query.  A mutation makes the graph freeze a
        new snapshot, so nothing here needs invalidating.
        """
        self._check_version()
        graph = self.graph
        if graph.has_frozen():
            csr = graph.freeze()
            if csr.has_group_coreness() and (not split or csr.has_label_split()):
                return csr
        with self._freeze_lock:
            if not graph.has_frozen():
                with obs_span("engine.csr_freeze"):
                    graph.freeze()
                self._count("csr_freezes")
            csr = graph.freeze()
            csr.group_coreness()
            if split:
                csr.label_split()
        return csr

    def is_prepared(self) -> bool:
        """Return ``True`` once :meth:`prepare` ran for the current graph."""
        self._check_version()
        return self._prepared

    def group(self, label: Label) -> LabeledGraph:
        """Return the (cached) subgraph induced by ``label``'s vertices.

        Algorithm 2 and the automatic parameter setting both consume
        label-induced subgraphs; caching them per engine means a batch of
        queries builds each group once instead of twice per query.  The fill
        is double-checked under the groups lock: concurrent queries on the
        same label build the group exactly once.
        """
        self._check_version()
        subgraph = self._groups.get(label)
        if subgraph is None:
            with self._groups_lock:
                subgraph = self._groups.get(label)
                if subgraph is None:
                    subgraph = self.graph.label_induced_subgraph(label)
                    self._groups[label] = subgraph
                    self._count("group_builds")
        return subgraph

    def ensure_index(self) -> BCIndex:
        """Return the engine's BCindex, building it once on first use.

        The build runs under the index lock, so concurrent index-based
        queries block until the single build finishes instead of racing a
        second one.  Build time is accumulated separately so :meth:`search`
        can report ``index_build_seconds`` apart from ``query_seconds``.
        """
        self._check_version()
        # The index's coreness component is the pipeline's label-group
        # coreness: filling it here keeps the freeze counted and locked.
        self.frozen_graph()
        with self._index_lock:
            if self._index is None:
                self._index = BCIndex(self.graph, build=False)
            if not self._index.is_built():
                start = time.perf_counter()
                with obs_span("engine.index_build"):
                    self._index.build()
                build_seconds = time.perf_counter() - start
                self._index_build_seconds += build_seconds
                self._tls.index_seconds = (
                    getattr(self._tls, "index_seconds", 0.0) + build_seconds
                )
                self._count("index_builds")
            return self._index

    @property
    def index(self) -> BCIndex:
        """The engine's BCindex (built on first access)."""
        return self.ensure_index()

    def has_index(self) -> bool:
        """Return ``True`` when a current, built BCindex is attached."""
        self._check_version()
        index = self._index
        return index is not None and index.is_built()

    # ------------------------------------------------------------------
    # result cache
    # ------------------------------------------------------------------
    def _cache_get(self, key: Tuple) -> Optional[SearchResponse]:
        """LRU lookup: a hit moves the entry to the fresh end.

        With an admission policy attached, an entry past its TTL is evicted
        here and the lookup reports a miss — expired answers are never
        replayed.  (Counting happens outside the cache lock: counter and
        cache locks are both leaves and must never nest.)
        """
        policy = self._result_cache_policy
        expired = False
        try:
            with self._cache_lock:
                entry = self._result_cache.get(key)
                if entry is None:
                    return None
                if policy is not None and policy.expired(
                    entry.method, policy.now() - entry.stamp
                ):
                    del self._result_cache[key]
                    expired = True
                    return None
                self._result_cache.move_to_end(key)
                return entry.response
        finally:
            if expired:
                self._count("result_cache_expirations")

    def _cache_put(self, key: Tuple, response: SearchResponse, method: str) -> None:
        """Insert, evicting the least recently used entry beyond capacity.

        The admission policy (when attached) runs first: a refused response
        is simply not cached.  After the global LRU bound, the method's own
        budget is enforced by evicting that method's oldest entries only —
        a burst of one hot method can never push another method's answers
        out beyond the global LRU pressure it always exerted.
        """
        policy = self._result_cache_policy
        if policy is not None and not policy.admit(method, response):
            self._count("result_cache_rejections")
            return
        stamp = policy.now() if policy is not None else 0.0
        budget_evictions = 0
        with self._cache_lock:
            self._result_cache[key] = _CacheEntry(response, method, stamp)
            self._result_cache.move_to_end(key)
            while len(self._result_cache) > self._result_cache_size:
                self._result_cache.popitem(last=False)
            if policy is not None:
                budget = policy.method_budget(method)
                if budget is not None:
                    same_method = [
                        k
                        for k, entry in self._result_cache.items()
                        if entry.method == method
                    ]
                    # max(0, ...): a negative excess would slice from the
                    # *end* and evict under-budget entries.
                    excess = max(0, len(same_method) - budget)
                    for stale_key in same_method[:excess]:
                        del self._result_cache[stale_key]
                        budget_evictions += 1
        if budget_evictions:
            self._count("result_cache_budget_evictions", budget_evictions)

    def result_cache_len(self) -> int:
        """Number of responses currently cached."""
        with self._cache_lock:
            return len(self._result_cache)

    def result_cache_info(self) -> Dict[str, object]:
        """A JSON-serializable snapshot of the result cache's behaviour.

        The payload behind serving-stats endpoints: capacity, current
        entries (per method when a policy cares about methods), hit/miss
        counts and the derived hit rate (``None`` before the first lookup).
        """
        with self._cache_lock:
            entries = len(self._result_cache)
            per_method: Dict[str, int] = {}
            for entry in self._result_cache.values():
                per_method[entry.method] = per_method.get(entry.method, 0) + 1
        counters = self.counters_snapshot()
        hits = counters["result_cache_hits"]
        misses = counters["result_cache_misses"]
        lookups = hits + misses
        return {
            "capacity": self._result_cache_size,
            "entries": entries,
            "entries_per_method": per_method,
            "hits": hits,
            "misses": misses,
            "expirations": counters["result_cache_expirations"],
            "rejections": counters["result_cache_rejections"],
            "budget_evictions": counters["result_cache_budget_evictions"],
            "hit_rate": (hits / lookups) if lookups else None,
            "policy": (
                repr(self._result_cache_policy)
                if self._result_cache_policy is not None
                else None
            ),
        }

    @staticmethod
    def _replay(cached: SearchResponse, elapsed: float) -> SearchResponse:
        """A cache hit as a fresh response: shared result, own timings.

        The member set is copied so callers mutating a response cannot
        corrupt the cache; the (treated-as-immutable) native result object
        is shared.
        """
        return dataclasses.replace(
            cached,
            vertices=set(cached.vertices),
            timings={
                "total_seconds": elapsed,
                "index_build_seconds": 0.0,
                "query_seconds": elapsed,
                "cache_hit": 1.0,
            },
            instrumentation=None,
        )

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    @within_deadline
    def search(
        self,
        query: Query,
        *,
        config: Optional[SearchConfig] = None,
        use_cache: bool = True,
    ) -> SearchResponse:
        """Serve one query and return a uniform :class:`SearchResponse`.

        "No community" is a normal answer (``status="empty"`` with a
        machine-readable ``reason``); malformed queries raise.

        Repeated queries are answered from the engine's LRU result cache
        (same method, vertices, resolved config and graph version) with
        fresh timings carrying a ``cache_hit`` marker.  ``use_cache=False``
        bypasses the cache for this call.  A searched response carries the
        search's own :class:`~repro.eval.instrumentation.SearchInstrumentation`
        (the Table-4 counters); a cache hit carries ``None``.

        The resolved config's ``deadline_ms`` bounds the search
        (:func:`within_deadline`): past it, the kernel's next
        checkpoint raises :class:`~repro.exceptions.DeadlineExceededError`
        and the search is not counted.

        With an active trace (see :mod:`repro.obs.tracing`) the phases —
        cache lookup, CSR freeze, index build, kernel — report themselves
        as child spans; with none (the default) the span calls are no-ops.
        """
        with obs_span("engine.search", method=query.method) as timed:
            response = self._search_impl(query, config, use_cache)
            if timed is not None:
                timed.annotate(
                    status=response.status,
                    cache_hit=bool(response.timings.get("cache_hit")),
                )
            return response

    def _search_impl(
        self, query: Query, cfg: SearchConfig, use_cache: bool
    ) -> SearchResponse:
        self._check_version()
        spec = get_method(query.method)
        if self.fault_plan is not None:
            # The chaos hook: a scheduled fault raises InjectedFault (a
            # replica-level failure, never a caller error) or stalls here.
            self.fault_plan.on(
                "engine.search", method=spec.name, vertices=query.vertices
            )
        cache_key: Optional[Tuple] = None
        if use_cache and self._result_cache_size > 0:
            cache_key = (
                spec.name,
                query.vertices,
                cfg.cache_key(),
                self._graph_version,
            )
            lookup_start = time.perf_counter()
            with obs_span("engine.cache_lookup"):
                cached = self._cache_get(cache_key)
            if cached is not None:
                self._count("searches")
                self._count("result_cache_hits")
                return self._replay(cached, time.perf_counter() - lookup_start)
        inst = SearchInstrumentation()
        self._tls.index_seconds = 0.0
        start = time.perf_counter()
        reason: Optional[str] = None
        try:
            with obs_span("engine.kernel", method=spec.name):
                result = spec.runner(self, query, cfg, inst)
            status = STATUS_OK
        except EmptyCommunityError as exc:
            result = None
            status = STATUS_EMPTY
            reason = exc.reason
        elapsed = time.perf_counter() - start
        # Counted only for queries that produce a response; malformed
        # queries raise above and are not "served" searches.
        self._count("searches")
        index_seconds = self._tls.index_seconds
        # Every result class's ``vertices`` is a new set, which the response
        # then owns; a BCC answer's is read off its ids on the snapshot.
        vertices = result.vertices if result is not None else set()
        response = SearchResponse(
            method=spec.name,
            query=query.vertices,
            status=status,
            result=result,
            reason=reason,
            vertices=vertices,
            timings={
                "total_seconds": elapsed,
                "index_build_seconds": index_seconds,
                "query_seconds": elapsed - index_seconds,
            },
            instrumentation=inst,
        )
        if cache_key is not None:
            self._count("result_cache_misses")
            self._cache_put(cache_key, response, spec.name)
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
        """Serve a batch of queries over one warm snapshot.

        The engine prepares once (CSR freeze; label groups and the BCindex
        fill lazily and are reused), then answers the queries.  Responses
        are position-aligned with the input and each query equals its
        sequential :meth:`search` answer exactly, whatever ``max_workers``.

        Config precedence per query: the ``config`` argument of this call,
        then the query's own config, then the batch's shared config, then
        the engine base.

        ``on_error`` is the per-query failure policy.  With ``"raise"`` (the
        default, and :meth:`search`'s behavior) a malformed query raises
        :class:`repro.exceptions.QueryError` /
        :class:`repro.exceptions.VertexNotFoundError` and aborts the batch.
        With ``"return"`` the failure becomes a position-aligned
        ``status="error"`` response (machine-readable ``reason`` plus the
        exception message in ``error``) and the rest of the batch still
        runs.  Batch-structure errors — a member that is not a
        :class:`Query` at all — always raise, naming the offending index,
        and so does a :class:`VertexNotFoundError` for a *non-query* vertex
        (an implementation bug escaping a runner, not a caller error).

        ``max_workers > 1`` serves the batch from a thread pool over the
        warm snapshot; the engine's caches fill exactly once under their
        locks.  Under ``on_error="raise"`` the earliest-position failure is
        raised after in-flight queries finish.  Note that CPython's GIL
        serializes the pure-Python kernels, so threads help when a kernel
        releases the GIL or queries hit the result cache — not for raw
        single-core compute.  Each searched row carries its own counters,
        as a sequential :meth:`search` would.

        ``backend`` selects the batch *transport*: ``"thread"`` (the
        default) serves the rows in this process; ``"process"`` serves them
        on the engine's :class:`~repro.parallel.ProcessEngine` —
        ``max_workers`` worker processes over the frozen CSR in shared
        memory — with the same answers and the same ``on_error`` /
        deadline semantics (a crashed worker becomes a
        ``reason="worker-crashed"`` row, never a hang).  Any other value
        raises :class:`~repro.exceptions.QueryError`.  Without shared
        memory the batch falls back to threads with a one-time
        :class:`RuntimeWarning` and a ``"process_fallbacks"`` tick.  The
        pool starts on the first process batch, grows when a later one asks
        for more workers, and closes on graph mutation or
        :meth:`close_process_pool`.
        """

        def prepare_once() -> None:
            if not self.is_prepared():
                self.prepare()

        batch = BatchQuery.of(queries)  # both transports read the rows
        if use_process_transport(backend):
            # The version lock empties the process slot on a mutation, so
            # prepare() runs before the slot is read, never inside it.
            prepare_once()
            responses = self._process.serve(
                batch,
                count=self._count,
                config=config,
                on_error=on_error,
                max_workers=max_workers,
                use_cache=use_cache,
            )
            if responses is not None:
                return responses

        return serve_batch(
            self,
            batch,
            config=config,
            on_error=on_error,
            max_workers=max_workers,
            use_cache=use_cache,
            prepare=prepare_once,
        )

    # ------------------------------------------------------------------
    # process batch transport
    # ------------------------------------------------------------------
    def process_pool_stats(self) -> Optional[Dict[str, object]]:
        """The worker pool's stats block, or ``None`` when no pool is live."""
        return self._process.stats()

    def close_process_pool(self) -> None:
        """Shut the worker pool down (idempotent; a later batch respawns it)."""
        self._process.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self, name: str = "engine") -> "ServingStats":
        """The stats-endpoint snapshot (``workers`` while a pool is live).

        ``latency`` is empty: the :class:`repro.serving.GraphDirectory`
        edge records it.
        """
        from repro.serving.stats import ServingStats, graph_shape

        return ServingStats(
            name=name,
            kind="monolithic",
            graph=graph_shape(self.graph),
            counters=self.counters_snapshot(),
            cache=self.result_cache_info(),
            prepared=self.is_prepared(),
            index_built=self.has_index(),
            workers=self.process_pool_stats(),
        )

    def explain(
        self, query: Query, *, config: Optional[SearchConfig] = None
    ) -> Dict[str, object]:
        """Describe how the engine would serve ``query`` without running it.

        Returns a plain dictionary: the resolved method spec, the effective
        parameters (including the coreness-based k defaults of Section 3.5),
        and the engine's prepared state.  Malformed queries raise exactly as
        :meth:`search` would.
        """
        self._check_version()
        spec = get_method(query.method)
        cfg = resolve_config(config, query.config, self.config)
        counters = self.counters_snapshot()
        with self._groups_lock:
            # Snapshot: iterating the live dict would race concurrent
            # group fills ("dictionary changed size during iteration").
            cached_groups = list(self._groups)
        info: Dict[str, object] = {
            "method": {
                "name": spec.name,
                "display": spec.display,
                "kind": spec.kind,
                "needs_index": spec.needs_index,
                "description": spec.description,
            },
            "query": tuple(query.vertices),
            "engine": {
                "prepared": self._prepared,
                "csr_frozen": self.graph.has_frozen(),
                "index_built": self.has_index(),
                "cached_groups": sorted(str(label) for label in cached_groups),
                "result_cache_entries": self.result_cache_len(),
                "index_build_seconds_total": self._index_build_seconds,
                "counters": counters,
            },
        }
        info["resolved"] = self._resolve_parameters(spec, query, cfg)
        return info

    def _resolve_parameters(
        self, spec: MethodSpec, query: Query, cfg: SearchConfig
    ) -> Dict[str, object]:
        """The parameter block of :meth:`explain`, per method kind."""
        self.graph.require_vertices(query.vertices)
        resolved: Dict[str, object] = {"b": cfg.b}
        if spec.kind == "bcc":
            q_left, q_right = query.as_pair()
            left_label, right_label = resolve_query_labels(
                self.graph, q_left, q_right
            )
            resolved["left_label"] = left_label
            resolved["right_label"] = right_label
            if spec.resolves_k_locally and (
                cfg.effective_k1() is None or cfg.effective_k2() is None
            ):
                # E.g. Algorithm 8 resolves unset k inside the local
                # candidate graph, which only exists at search time.
                resolved["k1"] = cfg.effective_k1()
                resolved["k2"] = cfg.effective_k2()
                resolved["note"] = "unset k resolved in the candidate graph"
            else:
                parameters = resolve_parameters(
                    self.frozen_graph(),
                    q_left,
                    q_right,
                    cfg.effective_k1(),
                    cfg.effective_k2(),
                    cfg.b,
                )
                resolved["k1"] = parameters.k1
                resolved["k2"] = parameters.k2
        elif spec.kind == "multilabel":
            # Same validation and parameter resolution as run_mbcc, so
            # explain() raises (and reports) exactly as search() would.
            validate_mbcc_query(self.graph, query.vertices)
            resolved["core_parameters"] = resolve_mbcc_parameters(
                self.graph,
                query.vertices,
                cfg.core_parameters,
                groups=self.group,
            )
        else:  # baselines resolve k at search time from the query's structure
            resolved["k"] = cfg.k
            if spec.name == "ctc":
                resolved["note"] = (
                    "k defaults to the maximum trussness containing the query"
                )
            elif spec.name == "psa":
                resolved["note"] = (
                    "k defaults to the minimum query-vertex coreness"
                )
            elif spec.description:
                # Custom baselines describe their own parameter semantics.
                resolved["note"] = spec.description
        return resolved

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BCCEngine(|V|={self.graph.num_vertices()}, "
            f"|E|={self.graph.num_edges()}, prepared={self._prepared}, "
            f"index={'built' if self.has_index() else 'lazy'}, "
            f"searches={self.counters_snapshot()['searches']})"
        )

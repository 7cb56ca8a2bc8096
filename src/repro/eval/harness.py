"""Experiment harness: run every method over a workload and collect results.

This module is the glue between the search methods, the datasets and the
benchmark scripts.  Since the ``repro.api`` redesign it is a thin layer over
the production serving path: methods are resolved through the method registry
(adding a method is one ``@register_method`` decorator — ``METHOD_NAMES``
derives from the registry) and executed by a :class:`repro.api.BCCEngine`,
so benchmarks exercise exactly what a long-lived service runs.

Timing is split honestly: ``QueryOutcome.seconds`` is pure query time, and
the cost of building the shared BCindex is reported separately in
``index_seconds`` (previously a caller-supplied index silently changed what
``seconds`` meant across methods).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.api import (
    STATUS_ERROR,
    BCCEngine,
    Query,
    SearchResponse,
    get_method,
    method_names,
)
from repro.core.bc_index import BCIndex
from repro.datasets.base import DatasetBundle
from repro.eval.instrumentation import SearchInstrumentation
from repro.eval.metrics import average_f1, f1_score
from repro.eval.queries import QuerySpec, generate_multilabel_queries, generate_query_pairs
from repro.exceptions import REASON_MISSING_VERTEX, VertexNotFoundError
from repro.graph.labeled_graph import Vertex

# METHOD_NAMES / BCC_METHOD_NAMES — the method names used throughout the
# paper's figures, in figure order.  Served via module ``__getattr__`` so
# every access reads the live registry: a method registered after import
# still appears (``from ... import METHOD_NAMES`` binds a snapshot; access
# ``harness.METHOD_NAMES`` for the live list).
_FIGURE_KINDS = ("baseline", "bcc")


def __getattr__(name: str) -> List[str]:
    """Expose the registry-derived name lists as live module attributes."""
    if name == "METHOD_NAMES":
        return method_names(kinds=_FIGURE_KINDS)
    if name == "BCC_METHOD_NAMES":
        return method_names(kinds=("bcc",))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class QueryOutcome:
    """Result of one method on one query.

    ``query_distance`` is the community's ``dist(H, Q)`` for answered
    queries and ``math.inf`` otherwise — an unanswered query is infinitely
    far from perfect, never distance 0.  ``status == "error"`` rows (batch
    mode under ``on_error="return"``) carry the exception message in
    ``error``.
    """

    method: str
    query: Tuple[Vertex, ...]
    vertices: Set[Vertex] = field(default_factory=set)
    seconds: float = 0.0
    f1: Optional[float] = None
    found: bool = False
    instrumentation: Optional[SearchInstrumentation] = None
    index_seconds: float = 0.0
    status: str = "ok"
    reason: Optional[str] = None
    query_distance: float = math.inf
    error: Optional[str] = None


@dataclass
class MethodSummary:
    """Aggregate of one method over a workload (one bar in Fig. 4 / Fig. 5).

    ``avg_query_distance`` averages only *answered* queries (empty/error
    responses report ``math.inf`` and would previously have been folded in
    as a perfect 0.0, deflating the mean); it is ``None`` when the method
    answered nothing.  ``errors`` counts ``status == "error"`` rows from
    batch mode.
    """

    method: str
    dataset: str
    queries: int = 0
    answered: int = 0
    avg_f1: float = 0.0
    avg_seconds: float = 0.0
    total_seconds: float = 0.0
    index_seconds: float = 0.0
    errors: int = 0
    avg_query_distance: Optional[float] = None

    def as_row(self) -> Tuple[str, str, int, int, float, float]:
        """Return (dataset, method, #queries, #answered, avg F1, avg seconds)."""
        return (
            self.dataset,
            self.method,
            self.queries,
            self.answered,
            self.avg_f1,
            self.avg_seconds,
        )


# Sentinel distinguishing "argument omitted" from an explicit value, so a
# caller-supplied engine's base config is honoured unless overridden.
_HARNESS_DEFAULT: object = object()


def run_method(
    method: str,
    bundle: DatasetBundle,
    q_left: Vertex,
    q_right: Vertex,
    k: Optional[int] = None,
    b: int = _HARNESS_DEFAULT,  # type: ignore[assignment]
    index: Optional[BCIndex] = None,
    max_iterations: Optional[int] = _HARNESS_DEFAULT,  # type: ignore[assignment]
    engine: Optional[BCCEngine] = None,
) -> QueryOutcome:
    """Run one registered method on one query pair and time it.

    Parameters
    ----------
    method:
        Any name the method registry resolves (one of :data:`METHOD_NAMES`,
        a canonical name, or an alias).
    bundle:
        The dataset (graph + ground truth).
    q_left, q_right:
        The query pair.
    k:
        When given, overrides both core parameters (the parameter sweeps of
        Fig. 8 vary a single ``k`` "due to their symmetry property"); BCC
        methods otherwise default to the query vertices' coreness, CTC to the
        maximum trussness (the symmetric override deliberately does not apply
        to it) and PSA to the query coreness.
    b:
        Butterfly-degree parameter for the BCC methods.  When omitted, a
        caller-supplied engine's base config governs; without an engine the
        paper default (1) applies.
    index:
        Optional pre-built BCindex shared across queries (used by L2P-BCC);
        ignored when ``engine`` is given (the engine owns its index).
    max_iterations:
        Safety cap forwarded to the peeling loops; same default policy as
        ``b`` (engine config when an engine is supplied, else 200).
    engine:
        Optional prepared :class:`BCCEngine` to serve the query; when
        omitted a throwaway engine is created, which prepares for this one
        query.

    Returns
    -------
    QueryOutcome
        ``seconds`` is pure query time; any lazy BCindex build triggered by
        this call is reported separately in ``index_seconds``, and the
        search's counters in ``instrumentation``.
    """
    spec = get_method(method)
    caller_engine = engine is not None
    if engine is None:
        engine = BCCEngine(bundle.graph, index=index)
    config = engine.config
    if b is not _HARNESS_DEFAULT:
        config = config.replace(b=b)
    elif not caller_engine:
        config = config.replace(b=1)
    if max_iterations is not _HARNESS_DEFAULT:
        config = config.replace(max_iterations=max_iterations)
    elif not caller_engine:
        config = config.replace(max_iterations=200)
    if k is not None and spec.symmetric_k:
        # The symmetric override replaces both core parameters outright
        # (k1=k2=k, as the pre-engine harness did), beating any k1/k2 in the
        # engine's base config; config.k alone would lose to explicit k1/k2.
        config = config.replace(k=k, k1=k, k2=k)
    if spec.missing_vertex_is_empty:
        # Historical harness contract: the label-agnostic baselines score a
        # query naming an unknown vertex as unanswered rather than erroring
        # the whole workload (the BCC methods raise, as they always did).
        # Validated explicitly up front — a VertexNotFoundError escaping a
        # runner for a non-query vertex is an implementation bug and must
        # propagate, not masquerade as "no community".
        try:
            engine.graph.require_vertices((q_left, q_right))
        except VertexNotFoundError:
            truth = bundle.community_for_query(q_left, q_right)
            return QueryOutcome(
                method=method,
                query=(q_left, q_right),
                found=False,
                f1=0.0 if truth is not None else None,
                status="empty",
                reason=REASON_MISSING_VERTEX,
            )
    response = engine.search(
        Query(method=spec.name, vertices=(q_left, q_right)),
        config=config,
        # Timing honesty: the harness measures the algorithm, so a warm
        # caller engine's result cache must not turn a repeated query's
        # seconds into cache-lookup time.
        use_cache=False,
    )
    return _outcome_from_response(method, bundle, response)


def _outcome_from_response(
    method: str, bundle: DatasetBundle, response: SearchResponse
) -> QueryOutcome:
    """Score one engine response against the bundle's ground truth.

    Error responses (batch mode under ``on_error="return"``) become error
    rows: unanswered, unscored (``f1 is None``), with the failure preserved
    in ``reason``/``error`` — except that a missing *query* vertex on a
    ``missing_vertex_is_empty`` baseline keeps its historical "unanswered"
    scoring.
    """
    q_left, q_right = response.query[0], response.query[-1]
    if response.status == STATUS_ERROR:
        spec = get_method(method)
        missing_query_vertex = (
            spec.missing_vertex_is_empty
            and response.reason == REASON_MISSING_VERTEX
        )
        truth = bundle.community_for_query(q_left, q_right)
        return QueryOutcome(
            method=method,
            query=tuple(response.query),
            found=False,
            f1=(0.0 if truth is not None else None) if missing_query_vertex else None,
            status="empty" if missing_query_vertex else STATUS_ERROR,
            reason=response.reason,
            error=None if missing_query_vertex else response.error,
        )
    outcome = QueryOutcome(
        method=method,
        query=tuple(response.query),
        vertices=set(response.vertices),
        seconds=response.timings["query_seconds"],
        found=response.found,
        instrumentation=response.instrumentation,
        index_seconds=response.timings["index_build_seconds"],
        status=response.status,
        reason=response.reason,
        query_distance=response.query_distance,
    )
    truth = bundle.community_for_query(q_left, q_right)
    if truth is not None:
        outcome.f1 = f1_score(outcome.vertices, truth.members) if outcome.found else 0.0
    return outcome


def _summarize_outcomes(
    method: str, dataset: str, outcomes: Sequence[QueryOutcome]
) -> MethodSummary:
    """Aggregate per-query outcomes into one :class:`MethodSummary`.

    ``avg_query_distance`` averages answered queries only — unanswered and
    errored queries report ``math.inf``, which must not be folded into (or
    silently deflate, as the old 0.0 convention did) the mean.  Error rows
    never ran the algorithm, so their placeholder 0.0 seconds are likewise
    excluded from the timing aggregates.
    """
    f1_scores = [o.f1 for o in outcomes if o.f1 is not None]
    times = [o.seconds for o in outcomes if o.status != STATUS_ERROR]
    distances = [o.query_distance for o in outcomes if math.isfinite(o.query_distance)]
    return MethodSummary(
        method=method,
        dataset=dataset,
        queries=len(outcomes),
        answered=sum(1 for o in outcomes if o.found),
        avg_f1=average_f1(f1_scores),
        avg_seconds=sum(times) / len(times) if times else 0.0,
        total_seconds=sum(times),
        index_seconds=sum(o.index_seconds for o in outcomes),
        errors=sum(1 for o in outcomes if o.status == STATUS_ERROR),
        avg_query_distance=(
            sum(distances) / len(distances) if distances else None
        ),
    )


def evaluate_methods(
    bundle: DatasetBundle,
    methods: Optional[Sequence[str]] = None,
    spec: QuerySpec = QuerySpec(count=10),
    seed: int = 0,
    k: Optional[int] = None,
    b: int = 1,
    share_index: bool = True,
    max_workers: int = 1,
    on_error: str = "return",
    sharded: bool = False,
) -> Dict[str, MethodSummary]:
    """Run several methods over a generated workload and aggregate per method.

    ``methods`` defaults to the registry-derived :data:`METHOD_NAMES`.
    Returns a mapping from method name to :class:`MethodSummary`; this is one
    dataset's worth of Figure 4 (``avg_f1``) and Figure 5 (``avg_seconds``).

    With ``share_index`` (the default) one prepared engine serves every
    method's workload as a ``search_many`` batch — the production path: the
    CSR snapshot, label groups and BCindex are built once and reused (the
    single lazy BCindex build is reported in the triggering method's
    ``index_seconds``, never in ``avg_seconds``), ``max_workers`` threads
    serve the batch, and ``on_error`` is the engine's per-query policy —
    the default ``"return"`` scores a failed query as an error row
    (``MethodSummary.errors``) instead of aborting the evaluation.
    ``sharded`` swaps the engine for a
    :class:`repro.serving.ShardedBCCEngine` (one engine per connected
    component behind the same batch surface): answers are identical on the
    evaluation networks, and a workload whose queries cluster in a few
    components only prepares those components' shards.  It requires
    ``share_index`` (per-query throwaway engines have nothing to shard).
    Caveat: with ``max_workers > 1`` the per-query wall-clock timings
    include scheduler/lock contention from concurrent queries, so
    ``avg_seconds`` measures serving latency under load, not the
    algorithm's single-threaded cost — keep the default ``max_workers=1``
    when regenerating the paper's Figure-5 timings.
    Without ``share_index`` each query runs sequentially on a throwaway
    engine, so per-query preparation cost lands in ``index_seconds`` and
    failures raise.
    """
    if methods is None:
        methods = method_names(kinds=_FIGURE_KINDS)
    pairs = generate_query_pairs(bundle, spec, seed=seed)
    engine = None
    if sharded:
        if not share_index:
            raise ValueError("sharded evaluation requires share_index=True")
        # Deferred import: the serving layer sits above the harness and
        # importing it eagerly here would make repro.eval pull the whole
        # serving/dataset stack in on import.
        from repro.serving.sharded import ShardedBCCEngine

        engine = ShardedBCCEngine(bundle.graph)
    elif share_index:
        engine = BCCEngine(bundle.graph).prepare()
    summaries: Dict[str, MethodSummary] = {}
    for method in methods:
        outcomes: List[QueryOutcome] = []
        if engine is not None:
            method_spec = get_method(method)
            config = engine.config.replace(b=b, max_iterations=200)
            if k is not None and method_spec.symmetric_k:
                config = config.replace(k=k, k1=k, k2=k)
            responses = engine.search_many(
                [Query(method=method_spec.name, vertices=pair) for pair in pairs],
                config=config,
                on_error=on_error,
                max_workers=max_workers,
                # Timing honesty: generated workloads regularly repeat a
                # pair, and a result-cache hit would report lookup time as
                # the algorithm's avg_seconds (the Figure-5 metric).
                use_cache=False,
            )
            outcomes = [
                _outcome_from_response(method, bundle, response)
                for response in responses
            ]
        else:
            for q_left, q_right in pairs:
                outcomes.append(
                    run_method(
                        method,
                        bundle,
                        q_left,
                        q_right,
                        k=k,
                        b=b,
                        max_iterations=200,
                    )
                )
        summaries[method] = _summarize_outcomes(method, bundle.name, outcomes)
    return summaries


def evaluate_multilabel(
    bundle: DatasetBundle,
    num_labels: int,
    methods: Sequence[str] = ("L2P-BCC",),
    count: int = 5,
    seed: int = 0,
    b: int = 1,
) -> Dict[str, MethodSummary]:
    """Run the multi-label experiments (Exp-9 / Exp-10) for one label count ``m``.

    The mBCC search framework (Algorithm 9) is used for every BCC variant
    (registry kind ``"bcc"``); the CTC and PSA baselines treat the query
    tuple as a plain vertex set.  One prepared engine serves the workload.
    """
    queries = generate_multilabel_queries(bundle, num_labels, count=count, seed=seed)
    engine = BCCEngine(bundle.graph).prepare()
    config = engine.config.replace(b=b, max_iterations=200)
    summaries: Dict[str, MethodSummary] = {}
    for method in methods:
        method_spec = get_method(method)
        run_as = method_spec.multilabel_method or method_spec.name
        f1_scores: List[float] = []
        times: List[float] = []
        answered = 0
        for query in queries:
            # use_cache=False: every BCC variant maps to the same mbcc
            # runner, so the second method's identical (method, vertices,
            # config) key would replay the first's answer in microseconds
            # and corrupt the Exp-9/Exp-10 timing comparison.
            response = engine.search(
                Query(method=run_as, vertices=tuple(query)),
                config=config,
                use_cache=False,
            )
            times.append(response.timings["query_seconds"])
            if response.found:
                answered += 1
            truth = None
            for community in bundle.communities:
                if all(q in community for q in query):
                    truth = community
                    break
            if truth is not None:
                f1_scores.append(
                    f1_score(response.vertices, truth.members)
                    if response.found
                    else 0.0
                )
        summaries[method] = MethodSummary(
            method=method,
            dataset=f"{bundle.name}(m={num_labels})",
            queries=len(queries),
            answered=answered,
            avg_f1=average_f1(f1_scores),
            avg_seconds=sum(times) / len(times) if times else 0.0,
            total_seconds=sum(times),
        )
    return summaries

"""Exception hierarchy for the BCC reproduction library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures without also
catching programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class GraphError(ReproError):
    """Base class for errors related to graph construction or access."""


class VertexNotFoundError(GraphError, KeyError):
    """Raised when an operation references a vertex not present in the graph."""

    def __init__(self, vertex) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """Raised when an operation references an edge not present in the graph."""

    def __init__(self, u, v) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.edge = (u, v)


class LabelError(GraphError):
    """Raised when vertex labels are missing or inconsistent with a query."""


class QueryError(ReproError):
    """Raised when a community-search query is malformed.

    Examples include query vertices that do not exist, query vertices that
    share a label when distinct labels are required, or non-positive
    structural parameters.
    """


class UnknownMethodError(QueryError, ValueError):
    """Raised when a search-method name is not present in the method registry."""

    def __init__(self, method, known=()) -> None:
        message = f"unknown method {method!r}"
        if known:
            message += f"; known: {list(known)}"
        super().__init__(message)
        self.method = method
        self.known = tuple(known)


#: Machine-readable reasons attached to :class:`EmptyCommunityError` (and
#: surfaced on ``SearchResponse.reason`` when a search finds no community).
REASON_NO_CANDIDATE = "no-candidate"
REASON_NO_LEADER_PAIR = "no-leader-pair"
REASON_NO_COMMUNITY = "no-community"
REASON_QUERY_DISCONNECTED = "query-disconnected"
REASON_MISSING_VERTEX = "missing-query-vertex"
REASON_NO_TRUSS = "no-truss"
REASON_NO_CORE = "no-core"
#: The query vertices live in different connected components, so no
#: connected community can contain them — the sharded serving layer
#: (:class:`repro.serving.ShardedBCCEngine`) answers ``status="empty"``
#: with this reason without touching any shard.
REASON_CROSS_SHARD = "cross-shard"

#: Machine-readable reasons surfaced on ``status="error"`` responses when
#: ``BCCEngine.search_many(on_error="return")`` converts a per-query failure
#: into a position-aligned error response instead of aborting the batch.
REASON_INVALID_QUERY = "invalid-query"
REASON_UNKNOWN_METHOD = "unknown-method"

#: The query's deadline (``SearchConfig.deadline_ms``) expired before an
#: answer was produced.  Surfaced as a position-aligned error row by
#: ``search_many`` (one stalled query cannot wedge a batch) and enforced per
#: request by the HTTP gateway, where it maps to ``504 Gateway Timeout``.
REASON_DEADLINE_EXCEEDED = "deadline-exceeded"

#: No healthy replica can serve the graph right now (every replica is
#: ejected by the health tracker).  The gateway answers a cached degraded
#: response when it has one, else ``503 Service Unavailable`` +
#: ``Retry-After``.
REASON_UNAVAILABLE = "unavailable"

#: A worker process of the multi-process compute backend died (was killed,
#: segfaulted, or exited) while the query was in flight.  The pool respawns
#: the worker and ``search_many(on_error="return")`` converts the loss into
#: a position-aligned error row — never a hang.  A transient server-side
#: condition, so the gateway maps it to ``503``.
REASON_WORKER_CRASHED = "worker-crashed"

#: Every registered reason code, derived from the module globals so a new
#: ``REASON_*`` constant is automatically part of the contract (and the
#: exhaustiveness test fails until :data:`HTTP_STATUS_BY_REASON` maps it).
REASON_CODES = tuple(
    sorted(
        value
        for name, value in globals().items()
        if name.startswith("REASON_") and isinstance(value, str)
    )
)

#: The single reason→HTTP-status table the HTTP gateway serves from.
#:
#: Only ``status="error"`` responses consult it: a missing *query* vertex is
#: the HTTP resource-not-found case (404), every other caller error is a bad
#: request (400).  Empty answers — including the sharded router's
#: cross-shard short-circuit — are *successful* searches whose result is "no
#: community", so they ship as 200 regardless of their reason code; the
#: table still carries a 200 for each of them so the mapping is total over
#: :data:`REASON_CODES` (enforced by an exhaustiveness test).
HTTP_STATUS_BY_REASON = {
    REASON_NO_CANDIDATE: 200,
    REASON_NO_LEADER_PAIR: 200,
    REASON_NO_COMMUNITY: 200,
    REASON_QUERY_DISCONNECTED: 200,
    REASON_NO_TRUSS: 200,
    REASON_NO_CORE: 200,
    REASON_CROSS_SHARD: 200,
    REASON_MISSING_VERTEX: 404,
    REASON_INVALID_QUERY: 400,
    REASON_UNKNOWN_METHOD: 400,
    REASON_UNAVAILABLE: 503,
    REASON_WORKER_CRASHED: 503,
    REASON_DEADLINE_EXCEEDED: 504,
}


def http_status_for_response(status: str, reason=None) -> int:
    """The HTTP status code for a ``SearchResponse``-shaped answer.

    ``status`` is the response's ``"ok" | "empty" | "error"``; only error
    responses consult :data:`HTTP_STATUS_BY_REASON` (an unknown error reason
    defaults to 400 — a caller error is never a server success).
    """
    if status != "error":
        return 200
    return HTTP_STATUS_BY_REASON.get(reason, 400)


class EmptyCommunityError(ReproError):
    """Raised when no community satisfying the requested constraints exists.

    The registered search implementations raise this internally with a
    machine-readable ``reason`` code (one of the ``REASON_*`` constants);
    :class:`repro.api.BCCEngine` converts it into a ``SearchResponse`` with
    ``status="empty"`` while the legacy free functions keep returning
    ``None``.
    """

    def __init__(self, message: str = "", reason: str = REASON_NO_COMMUNITY) -> None:
        super().__init__(message or f"no community exists ({reason})")
        self.reason = reason


class IndexNotBuiltError(ReproError):
    """Raised when an index-based method is invoked before building the index."""


class DatasetError(ReproError):
    """Raised when a synthetic dataset generator receives invalid parameters."""


class DeadlineExceededError(ReproError):
    """A serving deadline (``SearchConfig.deadline_ms``) expired.

    Raised from inside a kernel, by the first :func:`repro.deadline.checkpoint`
    after the budget ran out, or by ``run_with_deadline`` for an answer
    that arrived late.  Every host's ``search`` sets its config's budget
    (``BCCEngine``, the sharded router, the replica set, and so the engine
    behind each worker task), and the HTTP gateway sets one per request;
    a bare ``search`` raises it, ``search_many`` turns it into a
    ``deadline-exceeded`` row and the gateway into a 504.  Carries the
    expired budget so error rows and 504 payloads can report it.
    """

    def __init__(self, message: str = "", deadline_ms=None) -> None:
        if not message:
            budget = f"{deadline_ms:g}ms" if deadline_ms is not None else "deadline"
            message = f"deadline of {budget} exceeded before an answer was produced"
        super().__init__(message)
        self.deadline_ms = deadline_ms


class AllReplicasEjectedError(ReproError):
    """Every replica of a served graph is currently ejected as unhealthy.

    Raised by ``ReplicaSet`` routing when the health tracker has opened the
    circuit on all replicas and none is due for a re-admission probe.  The
    HTTP gateway converts it into a degraded cached answer or a ``503`` +
    ``Retry-After`` — never a hang.
    """

    def __init__(self, name: str = "replica-set", replicas: int = 0) -> None:
        super().__init__(
            f"all {replicas} replicas of {name!r} are ejected as unhealthy"
        )
        self.name = name
        self.replicas = replicas


class WorkerCrashedError(ReproError):
    """A process-backend worker died while this query was in flight.

    Raised by :class:`repro.parallel.ProcessWorkerPool` under
    ``on_error="raise"`` (and converted into a position-aligned
    ``status="error"`` / ``reason="worker-crashed"`` row under
    ``"return"``).  The pool has already respawned the worker by the time
    this surfaces; retrying the query is safe and usually succeeds, which
    is why the replica health tracker treats it as an ordinary replica
    failure (failover + breaker bookkeeping, never a caller error).
    """

    def __init__(self, message: str = "", worker: int = -1, pid=None) -> None:
        if not message:
            who = f"worker {worker}" if worker >= 0 else "a worker"
            if pid is not None:
                who += f" (pid {pid})"
            message = f"{who} died while the query was in flight"
        super().__init__(message)
        self.worker = worker
        self.pid = pid


class StoreError(ReproError):
    """A persisted index snapshot cannot be written, read or trusted.

    Raised by :mod:`repro.store` for structural problems — bad magic,
    format-version skew, truncated files, checksum mismatches, vertices
    that cannot round-trip through the header — always with a message
    naming the file and what failed, so an operator can tell a stale
    snapshot from a corrupted one.
    """


class SnapshotMismatchError(StoreError):
    """A structurally valid snapshot does not describe the given graph.

    The snapshot's graph fingerprint (vertex/edge counts, graph version,
    degree-sequence and label-histogram checksums) disagrees with the live
    graph, so attaching it would serve answers for a different graph.
    Callers that can rebuild (``SnapshotStore.attach_or_build``) catch this
    and fall back to a fresh build + persist.
    """


class GraphNotFoundError(ReproError, KeyError):
    """Raised when a serving directory is asked for a graph it does not host."""

    def __init__(self, name, known=()) -> None:
        message = f"no graph named {name!r} is being served"
        if known:
            message += f"; serving: {sorted(known)}"
        super().__init__(message)
        self.name = name
        self.known = tuple(known)

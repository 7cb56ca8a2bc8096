"""Typed queries and the uniform search response.

Every method — the three BCC searches, the multi-labeled mBCC search and the
CTC/PSA baselines — is invoked through a :class:`Query` and answers with a
:class:`SearchResponse`, so callers (and the eval harness) handle one shape
instead of five result types:

* ``status == "ok"`` — a community was found; ``result`` holds the
  method-native result object (``BCCResult``, ``MBCCResult``, ...) and
  ``vertices`` its member set.
* ``status == "empty"`` — no community satisfies the constraints; ``reason``
  carries a machine-readable code (``repro.exceptions.REASON_*``).
* ``status == "error"`` — the query itself was bad (unknown vertex, wrong
  arity, unknown method).  ``search`` still raises for these; only
  ``search_many(on_error="return")`` produces error responses, so one
  malformed query no longer aborts a whole batch.  ``reason`` carries the
  machine-readable code and ``error`` the exception message.

Malformed queries (unknown vertices, equal labels, bad parameters) still
raise from ``search`` — they are caller errors, not empty answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple, Union

from repro.api.config import SearchConfig
from repro.eval.instrumentation import SearchInstrumentation
from repro.exceptions import (
    REASON_NO_COMMUNITY,
    EmptyCommunityError,
    QueryError,
)
from repro.graph.labeled_graph import LabeledGraph, Vertex

#: ``SearchResponse.status`` values.
STATUS_OK = "ok"
STATUS_EMPTY = "empty"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class Query:
    """One community-search request: a method name plus its query vertices.

    ``method`` is resolved through the method registry (canonical names,
    paper display names and aliases all work — ``"lp-bcc"`` and ``"LP-BCC"``
    are the same method).  ``config`` optionally overrides the engine's base
    configuration for this query only.
    """

    method: str
    vertices: Tuple[Vertex, ...]
    config: Optional[SearchConfig] = None

    def __post_init__(self) -> None:
        if not self.method or not isinstance(self.method, str):
            raise QueryError("query method must be a non-empty string")
        if isinstance(self.vertices, str):
            # tuple("Toronto") would silently become one query per character.
            raise QueryError(
                "vertices must be a sequence of vertices, not a bare string"
            )
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if not self.vertices:
            raise QueryError("query must name at least one vertex")

    def as_pair(self) -> Tuple[Vertex, Vertex]:
        """Return the (q_left, q_right) pair; raise for other arities."""
        if len(self.vertices) != 2:
            raise QueryError(
                f"method {self.method!r} expects exactly two query vertices, "
                f"got {len(self.vertices)}"
            )
        return (self.vertices[0], self.vertices[1])

    def to_payload(self) -> Dict[str, object]:
        """This query as the HTTP gateway's JSON wire payload.

        Delegates to :mod:`repro.server.protocol` (imported lazily — the
        codec imports this module); vertices must be JSON scalars or the
        codec refuses with ``ProtocolError``.
        """
        from repro.server.protocol import encode_query

        return encode_query(self)

    @classmethod
    def from_payload(cls, payload: object) -> "Query":
        """Restore a query from its wire payload (exact round-trip)."""
        from repro.server.protocol import decode_query

        return decode_query(payload)


@dataclass(frozen=True)
class BatchQuery:
    """A batch of queries served over one warm engine snapshot.

    ``config`` (when given) is the shared override applied to every member
    query that does not carry its own.
    """

    queries: Tuple[Query, ...]
    config: Optional[SearchConfig] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "queries", tuple(self.queries))
        for index, member in enumerate(self.queries):
            # Catch non-Query members here, where the offending index is
            # known, instead of failing later inside search_many with an
            # opaque AttributeError.
            if not isinstance(member, Query):
                raise QueryError(
                    f"batch member {index} is not a Query: {member!r}"
                )

    @classmethod
    def of(cls, queries: Union["BatchQuery", Iterable[Query]]) -> "BatchQuery":
        """``queries`` as a batch: a batch passes through, an iterable is
        validated once (so a bad member fails up front, with its index)."""
        return queries if isinstance(queries, cls) else cls(queries=tuple(queries))

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)

    def to_payload(self) -> Dict[str, object]:
        """This batch as the HTTP gateway's JSON wire payload."""
        from repro.server.protocol import encode_batch

        return encode_batch(self)

    @classmethod
    def from_payload(cls, payload: object) -> "BatchQuery":
        """Restore a batch from its wire payload (exact round-trip)."""
        from repro.server.protocol import decode_batch

        return decode_batch(payload)


@dataclass
class SearchResponse:
    """The uniform answer to one :class:`Query`.

    Attributes
    ----------
    method:
        Canonical registry name of the method that ran (the caller-supplied
        name when the query failed before method resolution).
    query:
        The query vertices.
    status:
        ``"ok"``, ``"empty"`` or ``"error"`` (the latter only from
        ``search_many(on_error="return")``).
    result:
        The method-native result object (``BCCResult``, ``MBCCResult``,
        ``CTCResult``, ``PSAResult``) — ``None`` when empty or errored.
    reason:
        Machine-readable empty-/error-reason code (``None`` when
        ``status == "ok"``).
    error:
        The underlying exception message for ``status == "error"``
        responses; ``None`` otherwise.
    vertices:
        Community member set (empty set when no community exists).
    timings:
        ``total_seconds`` for the call, split into ``query_seconds`` and
        ``index_build_seconds`` (non-zero only on the call that triggered the
        engine's lazy BCindex build).
    instrumentation:
        The per-search counters recorded by the algorithm.
    degraded:
        ``True`` only on answers replayed from a stale cache because no
        healthy replica could serve the query live (the HTTP gateway's
        degraded mode).  A degraded answer was correct when computed but
        may not reflect the current graph; engines never set it.
    """

    method: str
    query: Tuple[Vertex, ...]
    status: str
    result: Optional[object] = None
    reason: Optional[str] = None
    error: Optional[str] = None
    vertices: Set[Vertex] = field(default_factory=set)
    timings: Dict[str, float] = field(default_factory=dict)
    instrumentation: Optional[SearchInstrumentation] = None
    degraded: bool = False

    @property
    def found(self) -> bool:
        """``True`` when a community was found."""
        return self.status == STATUS_OK

    @property
    def community(self) -> Optional[LabeledGraph]:
        """The community subgraph, when the method produced one.

        A BCC answer (:class:`~repro.core.bcc_model.BCCResult`) builds it
        from its snapshot on first read.  A held answer keeps that snapshot
        alive and stays valid on the graph version it came from.
        """
        return getattr(self.result, "community", None)

    @property
    def iterations(self) -> int:
        """Peeling iterations performed by the search (0 when unknown/empty)."""
        return int(getattr(self.result, "iterations", 0))

    @property
    def query_distance(self) -> float:
        """``dist(H, Q)`` of the returned community.

        ``math.inf`` for empty/error responses: a response without a
        community is infinitely far from the query, not a *perfect* answer —
        returning ``0.0`` here used to silently deflate harness averages.
        """
        if not self.found:
            return math.inf
        return float(getattr(self.result, "query_distance", 0.0))

    def to_payload(self) -> Dict[str, object]:
        """The observable surface of this response as a wire payload.

        ``query_distance`` and ``iterations`` are materialized (they are
        derived properties in-process) and ``math.inf`` is encoded as the
        string ``"inf"`` — never as non-standard JSON ``Infinity``.  The
        method-native ``result`` object and the instrumentation stay
        server-side.
        """
        from repro.server.protocol import encode_response

        return encode_response(self)

    @classmethod
    def from_payload(cls, payload: object) -> "SearchResponse":
        """Restore a response whose observable fields equal the served one."""
        from repro.server.protocol import decode_response

        return decode_response(payload)

    def raise_for_empty(self) -> "SearchResponse":
        """Raise :class:`EmptyCommunityError` when empty; return self otherwise.

        Error responses (from ``search_many(on_error="return")``) re-raise
        the caller error as :class:`QueryError` instead.
        """
        if self.status == STATUS_ERROR:
            raise QueryError(
                self.error
                or f"query {self.query!r} failed ({self.reason or 'error'})"
            )
        if not self.found:
            raise EmptyCommunityError(
                f"method {self.method!r} found no community for {self.query!r}",
                reason=self.reason or REASON_NO_COMMUNITY,
            )
        return self

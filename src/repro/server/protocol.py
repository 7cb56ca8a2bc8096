"""The typed JSON wire codec of the HTTP serving gateway.

One module owns the wire shapes of :class:`repro.api.Query`,
:class:`repro.api.BatchQuery` and :class:`repro.api.SearchResponse`, so the
gateway (:mod:`repro.server.app`) and the client
(:mod:`repro.server.client`) can never drift apart.  Three rules govern the
codec:

* **Exact round-tripping.**  ``decode(encode(x))`` restores every field a
  caller can observe: status and reason codes verbatim, community member
  sets, iteration counts and — the subtle one — ``math.inf`` query
  distances.  ``json.dumps`` would happily emit ``Infinity``, which is not
  JSON (``json.loads(..., parse_constant=...)`` on a strict peer rejects
  it), so non-finite floats ride the wire as the strings ``"inf"`` /
  ``"-inf"`` and are restored on decode.  :func:`json_dumps` passes
  ``allow_nan=False`` so a non-finite float that escaped the codec fails
  loudly at the boundary instead of producing invalid JSON.
* **Scalars only.**  Vertices and labels may be any hashable object
  in-process; on the wire they must be JSON scalars (``str`` / ``int`` /
  ``float`` / ``bool``) or the round-trip would silently mangle them
  (tuples become lists, objects become reprs).  The codec refuses anything
  else with :class:`ProtocolError`.
* **Reject, don't guess.**  Unknown config fields, malformed envelopes and
  non-standard JSON constants raise :class:`ProtocolError` — a wire peer
  speaking a different schema version fails fast, not subtly.

The reason→HTTP-status mapping lives next to the reason codes themselves
(:data:`repro.exceptions.HTTP_STATUS_BY_REASON`); this module re-exports
:func:`repro.exceptions.http_status_for_response` as the single place the
gateway asks "which status code does this response ship with".
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Dict, Iterable, List, Optional, Union

from repro.api.config import SearchConfig
from repro.api.query import (
    STATUS_EMPTY,
    STATUS_ERROR,
    STATUS_OK,
    BatchQuery,
    Query,
    SearchResponse,
)
from repro.core.path_weight import PathWeightConfig
from repro.exceptions import (
    HTTP_STATUS_BY_REASON,
    ReproError,
    http_status_for_response,
)

__all__ = [
    "HTTP_STATUS_BY_REASON",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "WireResult",
    "decode_batch",
    "decode_config",
    "decode_float",
    "decode_query",
    "decode_response",
    "decode_trace_context",
    "encode_batch",
    "encode_config",
    "encode_float",
    "encode_query",
    "encode_response",
    "encode_trace_context",
    "http_status_for_response",
    "jsonable",
    "json_dumps",
    "json_loads",
]

#: Wire-schema version; served on ``/healthz`` so clients can detect skew.
#: Version 2 dropped the config's ``backend`` field, which a version-1
#: peer still sends and this codec refuses.
PROTOCOL_VERSION = 2

#: Wire spellings of the non-finite floats JSON cannot carry.
_POS_INF = "inf"
_NEG_INF = "-inf"

#: JSON scalar types a vertex or label may be without losing identity.
_SCALARS = (str, int, float, bool)

#: Statuses a wire response may carry.
_STATUSES = (STATUS_OK, STATUS_EMPTY, STATUS_ERROR)


class ProtocolError(ReproError, ValueError):
    """Raised when a value cannot be encoded to, or decoded from, the wire."""


# ----------------------------------------------------------------------
# floats and scalars
# ----------------------------------------------------------------------
def encode_float(value: float) -> Union[float, str]:
    """A JSON-safe float: finite values pass, infinities become strings.

    NaN is refused — no field in the serving tier legitimately produces it,
    so one reaching the boundary is a bug upstream, not a value to ship.
    """
    value = float(value)
    if math.isnan(value):
        raise ProtocolError("NaN cannot be encoded on the wire")
    if math.isinf(value):
        return _POS_INF if value > 0 else _NEG_INF
    return value


def decode_float(value: object) -> float:
    """Restore a float encoded by :func:`encode_float` (exactly)."""
    if value == _POS_INF:
        return math.inf
    if value == _NEG_INF:
        return -math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"not a wire float: {value!r}")
    return float(value)


def _check_scalar(value: object, what: str) -> object:
    """Require a JSON scalar so the value round-trips without mangling."""
    if not isinstance(value, _SCALARS):
        raise ProtocolError(
            f"{what} must be a JSON scalar (str/int/float/bool) to round-trip "
            f"exactly; got {type(value).__name__}: {value!r}"
        )
    return value


# ----------------------------------------------------------------------
# strict JSON envelope
# ----------------------------------------------------------------------
def _reject_constant(name: str) -> float:
    raise ProtocolError(
        f"non-standard JSON constant {name!r} on the wire; "
        f"infinite distances are encoded as the string {_POS_INF!r}"
    )


def json_dumps(payload: object) -> str:
    """Serialize a wire payload, refusing non-finite floats outright."""
    try:
        return json.dumps(payload, allow_nan=False, sort_keys=True)
    except ValueError as exc:
        raise ProtocolError(f"payload is not wire-safe: {exc}") from exc


def json_loads(text: Union[str, bytes]) -> object:
    """Parse a wire payload strictly: ``Infinity``/``NaN`` are rejected."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ProtocolError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed JSON on the wire: {exc}") from exc


def _require_mapping(payload: object, what: str) -> Dict[str, object]:
    if not isinstance(payload, dict):
        raise ProtocolError(f"{what} must be a JSON object, got {type(payload).__name__}")
    return payload


# ----------------------------------------------------------------------
# SearchConfig
# ----------------------------------------------------------------------
def encode_config(config: Optional[SearchConfig]) -> Optional[Dict[str, object]]:
    """Encode a config field-for-field (``None`` stays ``None``)."""
    if config is None:
        return None
    payload: Dict[str, object] = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if field.name == "path_config":
            payload[field.name] = {
                "gamma1": encode_float(value.gamma1),
                "gamma2": encode_float(value.gamma2),
            }
        elif field.name == "core_parameters":
            payload[field.name] = None if value is None else list(value)
        else:
            payload[field.name] = value
    return payload


def encode_trace_context(request_id: str) -> Dict[str, object]:
    """The wire form of a trace context (today: just the request id).

    Carried as an *optional* message field by the process-pool task
    protocol — untraced messages omit it entirely, so the common case
    carries no extra field.
    """
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("a trace context needs a non-empty request id")
    return {"request_id": request_id}


def decode_trace_context(payload: object) -> Optional[str]:
    """The request id of a wire trace context (``None`` stays ``None``)."""
    if payload is None:
        return None
    payload = _require_mapping(payload, "trace context")
    request_id = payload.get("request_id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError(
            "a trace context needs a non-empty string request_id"
        )
    return request_id


def decode_config(payload: object) -> Optional[SearchConfig]:
    """Restore a config; unknown fields mean schema skew and are refused."""
    if payload is None:
        return None
    payload = dict(_require_mapping(payload, "config"))
    known = {field.name for field in dataclasses.fields(SearchConfig)}
    unknown = set(payload) - known
    if unknown:
        raise ProtocolError(f"unknown config fields on the wire: {sorted(unknown)}")
    if "path_config" in payload:
        block = _require_mapping(payload["path_config"], "config.path_config")
        payload["path_config"] = PathWeightConfig(
            gamma1=decode_float(block.get("gamma1", 0.5)),
            gamma2=decode_float(block.get("gamma2", 0.5)),
        )
    if payload.get("core_parameters") is not None:
        payload["core_parameters"] = tuple(payload["core_parameters"])
    try:
        return SearchConfig(**payload)
    except (ReproError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid config on the wire: {exc}") from exc


# ----------------------------------------------------------------------
# Query / BatchQuery
# ----------------------------------------------------------------------
def encode_query(query: Query) -> Dict[str, object]:
    """Encode one query: method, scalar vertices, optional config."""
    return {
        "method": query.method,
        "vertices": [
            _check_scalar(vertex, "query vertex") for vertex in query.vertices
        ],
        "config": encode_config(query.config),
    }


def decode_query(payload: object) -> Query:
    """Restore one query (validation re-runs in ``Query.__post_init__``)."""
    payload = _require_mapping(payload, "query")
    method = payload.get("method")
    if not isinstance(method, str):
        raise ProtocolError(f"query method must be a string, got {method!r}")
    vertices = payload.get("vertices")
    if not isinstance(vertices, list):
        raise ProtocolError("query vertices must be a JSON array")
    try:
        return Query(
            method=method,
            vertices=tuple(
                _check_scalar(vertex, "query vertex") for vertex in vertices
            ),
            config=decode_config(payload.get("config")),
        )
    except ReproError as exc:
        if isinstance(exc, ProtocolError):
            raise
        raise ProtocolError(f"invalid query on the wire: {exc}") from exc


def encode_batch(batch: Union[BatchQuery, Iterable[Query]]) -> Dict[str, object]:
    """Encode a batch; a plain iterable of queries is wrapped first."""
    if not isinstance(batch, BatchQuery):
        batch = BatchQuery(queries=tuple(batch))
    return {
        "queries": [encode_query(query) for query in batch.queries],
        "config": encode_config(batch.config),
    }


def decode_batch(payload: object) -> BatchQuery:
    """Restore a batch (member validation re-runs in ``__post_init__``)."""
    payload = _require_mapping(payload, "batch")
    queries = payload.get("queries")
    if not isinstance(queries, list):
        raise ProtocolError("batch queries must be a JSON array")
    return BatchQuery(
        queries=tuple(decode_query(member) for member in queries),
        config=decode_config(payload.get("config")),
    )


# ----------------------------------------------------------------------
# SearchResponse
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class WireResult:
    """The decoded stand-in for a method-native result object.

    The gateway does not ship ``BCCResult``/``MBCCResult`` object graphs —
    it ships what a caller observes: the member set, the iteration count
    and the query distance.  ``SearchResponse``'s derived properties
    (``iterations``, ``query_distance``) read these via ``getattr``, so a
    decoded response behaves exactly like the in-process one.
    """

    vertices: frozenset
    iterations: int
    query_distance: float


def _sorted_wire_vertices(vertices: Iterable[object]) -> List[object]:
    """Vertices as a deterministically ordered JSON array."""
    checked = [_check_scalar(vertex, "response vertex") for vertex in vertices]
    # A graph may mix vertex types (ints and strings); sort within a stable
    # type grouping so encoding never raises a cross-type TypeError.
    return sorted(checked, key=lambda v: (type(v).__name__, repr(v)))


def encode_response(response: SearchResponse) -> Dict[str, object]:
    """Encode the observable surface of one response.

    ``query_distance`` and ``iterations`` are materialized from the native
    result object here (they are derived properties in-process); timings
    ride as a plain float map.  The native ``result`` object and the
    instrumentation stay server-side.
    """
    payload: Dict[str, object] = {
        "method": response.method,
        "query": [
            _check_scalar(vertex, "response query vertex")
            for vertex in response.query
        ],
        "status": response.status,
        "reason": response.reason,
        "error": response.error,
        "vertices": _sorted_wire_vertices(response.vertices),
        "iterations": response.iterations,
        "query_distance": encode_float(response.query_distance),
        "timings": {
            name: encode_float(value)
            for name, value in response.timings.items()
        },
    }
    # Only degraded (stale-cache) answers carry the marker; the common case
    # stays byte-identical to protocol version 1 payloads.
    if getattr(response, "degraded", False):
        payload["degraded"] = True
    return payload


def decode_response(payload: object) -> SearchResponse:
    """Restore a :class:`SearchResponse` equal to the served one.

    Equality here means every observable field: status, reason, error,
    member set, iteration count, timings, and a ``query_distance`` that is
    *exactly* ``math.inf`` again for empty/error rows.
    """
    payload = _require_mapping(payload, "response")
    status = payload.get("status")
    if status not in _STATUSES:
        raise ProtocolError(f"unknown response status on the wire: {status!r}")
    for field in ("method", "query", "vertices", "timings"):
        if field not in payload:
            raise ProtocolError(f"response is missing the {field!r} field")
    if not isinstance(payload["query"], list) or not isinstance(
        payload["vertices"], list
    ):
        raise ProtocolError("response query/vertices must be JSON arrays")
    vertices = set(payload["vertices"])
    distance = decode_float(payload.get("query_distance", _POS_INF))
    result: Optional[WireResult] = None
    if status == STATUS_OK:
        result = WireResult(
            vertices=frozenset(vertices),
            iterations=int(payload.get("iterations", 0)),
            query_distance=distance,
        )
    timings = _require_mapping(payload["timings"], "response timings")
    return SearchResponse(
        method=str(payload["method"]),
        query=tuple(payload["query"]),
        status=status,
        result=result,
        reason=payload.get("reason"),
        error=payload.get("error"),
        vertices=vertices,
        timings={name: decode_float(value) for name, value in timings.items()},
        degraded=bool(payload.get("degraded", False)),
    )


# ----------------------------------------------------------------------
# best-effort JSON view (explain payloads, stats)
# ----------------------------------------------------------------------
def jsonable(value: object) -> object:
    """A lossy-but-safe JSON view of an arbitrary introspection payload.

    ``explain`` dictionaries mix tuples, sets, labels and floats; they are
    *reports*, not round-tripped values, so containers become arrays,
    non-finite floats become their wire strings, non-scalar leaves become
    ``repr`` strings, and mapping keys become strings.
    """
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=lambda v: (type(v).__name__, repr(v)))
        return [jsonable(item) for item in items]
    if isinstance(value, float):
        return encode_float(value) if not math.isnan(value) else "nan"
    if value is None or isinstance(value, (str, int, bool)):
        return value
    return repr(value)

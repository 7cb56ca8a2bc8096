"""The HTTP gateway: a process boundary over :class:`GraphDirectory`.

:class:`Gateway` wraps a :class:`repro.serving.GraphDirectory` in a
``ThreadingHTTPServer`` (one thread per connection, stdlib only) and exposes
the serving tier to remote callers:

========  =================================  =====================================
Verb      Path                               Meaning
========  =================================  =====================================
GET       ``/healthz``                       liveness + uptime + schema versions
GET       ``/graphs``                        names currently served
GET       ``/stats``                         ``GraphDirectory.stats_payload()``
GET       ``/metrics``                       Prometheus text exposition (0.0.4)
GET       ``/debug/slow``                    retained slow-query traces (JSON)
POST      ``/graphs/{name}/search``          one :class:`Query` → one response
POST      ``/graphs/{name}/search_many``     a batch → position-aligned responses
POST      ``/graphs/{name}/explain``         dispatch report, no search
========  =================================  =====================================

Observability rides the :class:`repro.obs.Observability` bundle the
directory carries (or a private one when the directory has none): every
POST runs under ``tracer.trace(request_id)`` — a no-op until tracing is
enabled — so span trees are keyed by the same ``X-Request-Id`` the access
log and error payloads carry, and ``/metrics`` renders the unified
registry (gateway admission counters included) for scrapers while
``/stats`` keeps serving the same numbers as JSON.

Two serving-tier policies live at this boundary:

* **Bounded admission (backpressure).**  A semaphore caps the number of
  in-flight POST requests; a request that cannot claim a slot is answered
  ``429 Too Many Requests`` with a ``Retry-After`` header *immediately*
  instead of queueing unboundedly in the accept backlog until the client
  times out.  ``GET`` endpoints are exempt so operators can read
  ``/stats`` from a saturated process.
* **One status mapping.**  Response rows ship with the HTTP status derived
  from the single reason→status table next to the reason codes
  (:data:`repro.exceptions.HTTP_STATUS_BY_REASON`): missing query vertex →
  404, malformed query / unknown method → 400, empty answers (cross-shard
  included) → 200 — an empty community is a successful search; a query
  that outruns its ``deadline_ms`` → 504; a graph whose every replica is
  ejected → 503 with ``Retry-After`` — unless the gateway has a cached
  last-good answer for the exact query, which it replays marked
  ``degraded: true`` (stale beats down).

Every request emits one structured JSON access-log line on the
``repro.server.access`` logger (method, path, status, duration, in-flight
gauge, request id) — parseable telemetry, not prose.  The line is written
just before the response body, so a client that has read its answer finds
it; a request whose client went away before its headers were written logs
499.  Callers may supply an ``X-Request-Id`` header (generated when
absent); it is echoed on the response and stamped into error payloads, so
one id follows a request through client logs, access logs and error bodies.
"""

from __future__ import annotations

import json
import logging
import threading
import time
import uuid
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple

from repro.api.engine import (
    deadline_seconds_for,
    error_response_for,
    is_caller_error,
    reason_for_error,
    run_with_deadline,
)
from repro.exceptions import (
    AllReplicasEjectedError,
    DeadlineExceededError,
    GraphNotFoundError,
    QueryError,
    VertexNotFoundError,
    http_status_for_response,
)
from repro.obs import Observability
from repro.obs.metrics import Sample, counter_samples
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_batch,
    decode_config,
    decode_query,
    encode_response,
    json_dumps,
    json_loads,
    jsonable,
)
from repro.serving.stats import STATS_SCHEMA_VERSION

__all__ = [
    "DEFAULT_DEGRADED_CACHE_SIZE",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_MAX_IN_FLIGHT",
    "DEFAULT_RETRY_AFTER_SECONDS",
    "Gateway",
]

#: Default cap on concurrently served POST requests.
DEFAULT_MAX_IN_FLIGHT = 64

#: Default size of the gateway's last-good-answer cache (degraded mode).
DEFAULT_DEGRADED_CACHE_SIZE = 256

#: Longest accepted caller-supplied ``X-Request-Id`` (longer ids are
#: replaced, not truncated — a mangled id is worse than a fresh one).
_MAX_REQUEST_ID_LENGTH = 128

#: Default ``Retry-After`` (seconds) on a 429 rejection.
DEFAULT_RETRY_AFTER_SECONDS = 1

#: Default cap on request body size (a query batch, not a graph upload).
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Structured access-log lines (one JSON document per request) land here.
ACCESS_LOGGER = logging.getLogger("repro.server.access")

#: POST verbs served under ``/graphs/{name}/...``.
_POST_VERBS = ("search", "search_many", "explain")

#: A served POST's answer, ``(status, JSON payload)``, written after its trace.
_Reply = Tuple[int, object]


class _ClientError(Exception):
    """Internal: abort request handling with a specific HTTP error."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


class _GatewayHTTPServer(ThreadingHTTPServer):
    """One daemon thread per connection; the gateway object rides along."""

    daemon_threads = True
    allow_reuse_address = True
    gateway: "Gateway"


class _GatewayRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-gateway"
    sys_version = ""
    # HTTP/1.1 keep-alive: one connection (and one server thread) serves a
    # client's whole session instead of paying accept + thread spawn per
    # request — the difference between ~150 and ~1000 q/s on loopback.
    # Every response carries Content-Length, which 1.1 requires.
    protocol_version = "HTTP/1.1"
    # Headers and body leave in separate writes; with Nagle on, the second
    # write waits for the delayed ACK of the first (~40ms per request on a
    # keep-alive connection).
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def gateway(self) -> "Gateway":
        return self.server.gateway  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:
        """Silence the default stderr chatter; access logs are structured."""

    def _assign_request_id(self) -> str:
        """Adopt the caller's ``X-Request-Id`` or mint one.

        A caller-supplied id must be modest (≤128 chars) and printable
        ASCII — anything else (including header-splitting control bytes)
        is replaced with a fresh id rather than echoed back.
        """
        supplied = self.headers.get("X-Request-Id", "")
        if (
            supplied
            and len(supplied) <= _MAX_REQUEST_ID_LENGTH
            and all(32 <= ord(ch) < 127 for ch in supplied)
        ):
            self._request_id = supplied
        else:
            self._request_id = uuid.uuid4().hex
        return self._request_id

    @property
    def request_id(self) -> str:
        """This request's id (assigned at the top of do_GET / do_POST)."""
        return getattr(self, "_request_id", "") or "-"

    def _begin(self) -> None:
        """Start this request's clock and assign its id (top of do_GET / do_POST)."""
        self._started = time.perf_counter()
        self._logged = False
        self._assign_request_id()

    def _access_log(self, status: int) -> None:
        """Emit this request's one access-log line; later calls do nothing."""
        if self._logged:
            return
        self._logged = True
        if not ACCESS_LOGGER.isEnabledFor(logging.INFO):
            return
        record = {
            "method": self.command,
            "path": self.path,
            "status": status,
            "duration_ms": round((time.perf_counter() - self._started) * 1000.0, 3),
            "in_flight": self.gateway.in_flight(),
            "request_id": self.request_id,
        }
        ACCESS_LOGGER.info("%s", json.dumps(record, sort_keys=True))

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        """Write one response; the access-log line goes out before the body."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", self.request_id)
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self._access_log(status)
        self.wfile.write(body)

    def _send_json(
        self,
        status: int,
        payload: object,
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        body = json_dumps(payload).encode("utf-8")
        self._send(status, body, "application/json; charset=utf-8", headers)

    def _send_error_json(self, status: int, code: str, message: str) -> None:
        self._send_json(
            status,
            {"error": message, "code": code, "request_id": self.request_id},
        )

    def _read_body(self) -> bytes:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header or "0")
        except ValueError:
            self.close_connection = True
            raise _ClientError(400, "bad-request", "malformed Content-Length")
        if length < 0:
            self.close_connection = True
            raise _ClientError(400, "bad-request", "malformed Content-Length")
        if length > self.gateway.max_body_bytes:
            # The body stays unread, so the keep-alive stream is desynced;
            # drop the connection after answering.
            self.close_connection = True
            raise _ClientError(
                413,
                "payload-too-large",
                f"request body of {length} bytes exceeds the "
                f"{self.gateway.max_body_bytes}-byte limit",
            )
        return self.rfile.read(length)

    # ------------------------------------------------------------------
    # GET endpoints (observability; never subject to backpressure)
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        gateway = self.gateway
        self._begin()
        try:
            if self.path == "/healthz":
                payload = gateway.health_payload()
                # A gateway whose every replica of some graph is ejected is
                # not healthy: load balancers reading /healthz should stop
                # sending it traffic until a probe re-admits a replica.
                self._send_json(503 if payload["status"] == "down" else 200, payload)
            elif self.path == "/graphs":
                self._send_json(200, {"graphs": gateway.directory.names()})
            elif self.path == "/stats":
                self._send_json(200, gateway.directory.stats_payload())
            elif self.path == "/metrics":
                self._send(
                    200,
                    gateway.observability.registry.render_prometheus().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif self.path == "/debug/slow":
                self._send_json(200, gateway.observability.slow_log.payload())
            else:
                self._send_error_json(
                    404, "not-found", f"no such endpoint: {self.path}"
                )
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            self._access_log(499)  # client went away; nothing to send
        except Exception as exc:  # pragma: no cover - defensive boundary
            self._send_error_json(500, "internal", repr(exc))

    # ------------------------------------------------------------------
    # POST endpoints (query serving; bounded admission)
    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        gateway = self.gateway
        self._begin()
        try:
            name, verb = self._route_post()
        except _ClientError as exc:
            # The body was never read: the keep-alive stream is desynced,
            # so answer and drop the connection.
            self.close_connection = True
            self._send_error_json(exc.status, exc.code, str(exc))
            return
        if not gateway.try_acquire():
            gateway.count("rejections")
            # Rejected before reading the body — same desync rule: the
            # 429 answer rides out on a closing connection, which also
            # stops a retrying client from hammering a warm socket.
            self.close_connection = True
            self._send_json(
                429,
                {
                    "error": (
                        f"gateway at capacity "
                        f"({gateway.max_in_flight} in-flight requests)"
                    ),
                    "code": "overloaded",
                    "max_in_flight": gateway.max_in_flight,
                    "retry_after_seconds": gateway.retry_after_seconds,
                },
                headers=(("Retry-After", str(gateway.retry_after_seconds)),),
            )
            return
        try:
            gateway.count("requests")
            # A no-op until tracing is enabled; once on, the whole POST
            # (routing, failover, kernels, even process-pool workers) hangs
            # its spans off this request-id-keyed trace.  The trace reaches
            # the slow log before the answer leaves, so a caller reading
            # /debug/slow after its response finds it.
            with gateway.observability.tracer.trace(
                self.request_id, path=self.path
            ):
                reply = self._serve_post(name, verb)
            self._send_json(*reply)
        except _ClientError as exc:
            self._send_error_json(exc.status, exc.code, str(exc))
        except AllReplicasEjectedError as exc:
            # Every replica of the graph is ejected and no degraded answer
            # was available: tell the client when to come back instead of
            # hanging or answering 500.
            gateway.count("unavailable")
            self._send_json(
                503,
                {
                    "error": str(exc),
                    "code": "unavailable",
                    "request_id": self.request_id,
                    "retry_after_seconds": gateway.retry_after_seconds,
                },
                headers=(("Retry-After", str(gateway.retry_after_seconds)),),
            )
        except GraphNotFoundError as exc:
            self._send_json(
                404,
                {"error": str(exc), "code": "graph-not-found",
                 "graph": str(exc.name)},
            )
        except ProtocolError as exc:
            self._send_error_json(400, "bad-request", str(exc))
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            self._access_log(499)  # client went away; nothing to send
        except Exception as exc:  # pragma: no cover - defensive boundary
            gateway.count("errors")
            self._send_error_json(500, "internal", repr(exc))
        finally:
            gateway.release()

    def _route_post(self) -> Tuple[str, str]:
        parts = self.path.strip("/").split("/")
        if len(parts) != 3 or parts[0] != "graphs":
            raise _ClientError(404, "not-found", f"no such endpoint: {self.path}")
        name, verb = parts[1], parts[2]
        if verb not in _POST_VERBS:
            raise _ClientError(
                404,
                "not-found",
                f"unknown action {verb!r}; known: {list(_POST_VERBS)}",
            )
        return name, verb

    def _serve_post(self, name: str, verb: str) -> _Reply:
        fault_plan = self.gateway.fault_plan
        if fault_plan is not None:
            fault_plan.on("gateway.request", endpoint=verb, graph=name)
        payload = json_loads(self._read_body())
        if not isinstance(payload, dict):
            raise _ClientError(400, "bad-request", "request body must be a JSON object")
        if verb == "search":
            return self._serve_search(name, payload)
        if verb == "search_many":
            return self._serve_search_many(name, payload)
        return self._serve_explain(name, payload)

    def _encode_response(self, response) -> Dict[str, object]:
        """Encode an outgoing response; an un-encodable one is OUR fault.

        The generic ``ProtocolError -> 400`` handler exists for malformed
        *request* payloads; a search that succeeded but cannot be put on
        the wire (e.g. a graph hosting non-scalar vertices) must answer
        500, not blame the caller.
        """
        try:
            return encode_response(response)
        except ProtocolError as exc:
            self.gateway.count("errors")
            raise _ClientError(
                500, "internal", f"response is not wire-encodable: {exc}"
            )

    def _serve_search(self, name: str, payload: Dict[str, object]) -> _Reply:
        query = decode_query(payload.get("query"))
        config = decode_config(payload.get("config"))
        use_cache = bool(payload.get("use_cache", True))
        gateway = self.gateway
        engine = gateway.directory.get(name)
        deadline = deadline_seconds_for(
            config, query.config, getattr(engine, "config", None)
        )
        # Only a replica set (the host with a health_summary, as in
        # GraphDirectory.readiness) raises AllReplicasEjectedError, so only
        # its answers are worth keeping for degraded mode.
        degraded_key = (
            gateway.degraded_cache_key(name, payload)
            if hasattr(engine, "health_summary")
            else None
        )
        try:
            response = run_with_deadline(
                lambda: gateway.directory.serve(
                    name, query, config=config, use_cache=use_cache
                ),
                deadline,
                what=f"search:{name}",
            )
        except (QueryError, VertexNotFoundError) as exc:
            if not is_caller_error(query, exc):
                raise  # an implementation bug is a 500, not a caller error
            response = error_response_for(query, exc)
        except DeadlineExceededError as exc:
            gateway.count("deadline_exceeded")
            response = error_response_for(query, exc)
        except AllReplicasEjectedError:
            # Degraded mode: replay the last good answer for this exact
            # request (marked so) rather than failing — stale beats down.
            stale = degraded_key and gateway.degraded_cache_get(degraded_key)
            if stale is None:
                raise  # → 503 + Retry-After in do_POST
            gateway.count("degraded")
            replay = dict(stale)
            replay["degraded"] = True
            return (
                http_status_for_response(
                    str(replay.get("status", "ok")), replay.get("reason")
                ),
                replay,
            )
        encoded = self._encode_response(response)
        if degraded_key is not None and response.status != "error":
            # Only genuinely served answers become degraded-mode material;
            # caching error rows would replay failures.
            gateway.degraded_cache_put(degraded_key, encoded)
        return http_status_for_response(response.status, response.reason), encoded

    def _serve_search_many(self, name: str, payload: Dict[str, object]) -> _Reply:
        batch = decode_batch(payload)
        # The call-level override rides separately from the batch's shared
        # config ("config" inside the batch payload): in-process precedence
        # is call > query > batch, and folding the call tier into the batch
        # tier would let per-query configs beat it.
        config = decode_config(payload.get("config_override"))
        on_error = payload.get("on_error", "raise")
        if on_error not in ("raise", "return"):
            raise _ClientError(
                400, "bad-request", f"unknown on_error policy {on_error!r}"
            )
        # Each worker is a serving thread: a batch may ask for no more of
        # them than the gateway admits requests.
        limit = self.gateway.max_in_flight
        max_workers = payload.get("max_workers", 1)
        if not isinstance(max_workers, int) or not 1 <= max_workers <= limit:
            raise _ClientError(
                400, "bad-request", f"max_workers must be an int in [1, {limit}]"
            )
        use_cache = bool(payload.get("use_cache", True))
        try:
            responses = self.gateway.directory.serve_many(
                name,
                batch,
                config=config,
                on_error=on_error,
                max_workers=max_workers,
                use_cache=use_cache,
            )
        except (QueryError, VertexNotFoundError) as exc:
            # on_error="raise" semantics over the wire: the batch aborts
            # with the caller error's own status (row-level failures only
            # exist under on_error="return").
            raise _ClientError(
                http_status_for_response("error", reason_for_error(exc)),
                "query-error",
                str(exc),
            )
        return 200, {
            "count": len(responses),
            "responses": [self._encode_response(r) for r in responses],
        }

    def _serve_explain(self, name: str, payload: Dict[str, object]) -> _Reply:
        query = decode_query(payload.get("query"))
        config = decode_config(payload.get("config"))
        engine = self.gateway.directory.get(name)
        try:
            report = engine.explain(query, config=config)
        except (QueryError, VertexNotFoundError) as exc:
            raise _ClientError(
                http_status_for_response("error", reason_for_error(exc)),
                "query-error",
                str(exc),
            )
        return 200, {"explain": jsonable(report)}


class Gateway:
    """A runnable HTTP gateway over one :class:`GraphDirectory`.

    Parameters
    ----------
    directory:
        The serving directory to expose.  The gateway adds no serving state
        of its own beyond admission control — engines, caches and stats all
        live in the directory.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back from
        :attr:`port` — the pattern tests, benchmarks and examples use).
    max_in_flight:
        Bounded admission: at most this many POST requests are served
        concurrently; overflow is answered ``429`` + ``Retry-After``.  It
        also caps a ``search_many`` request's ``max_workers`` (``400``
        above it).
    retry_after_seconds:
        The hint sent with 429 (overload) and 503 (unavailable) responses.
    max_body_bytes:
        Request bodies above this size are refused with ``413``.
    fault_plan:
        Optional :class:`repro.server.faults.FaultPlan` consulted at the
        ``"gateway.request"`` site before each POST is served.
    degraded_cache_size:
        Entries in the last-good-answer cache backing degraded mode
        (``0`` disables degraded answers entirely — all-replicas-down then
        always answers 503).
    observability:
        The :class:`repro.obs.Observability` bundle serving ``/metrics``,
        ``/debug/slow`` and request tracing.  Defaults to the directory's
        own bundle (``directory.observability``) so gateway counters land
        in the same registry as engine counters; a directory without one
        gets a private bundle (tracing off, defaults throughout).
    clock:
        Monotonic-seconds source for uptime reporting; injectable so
        deterministic tests can drive it (the BCC002 seam pattern).

    Use as a context manager (or call :meth:`start` / :meth:`stop`)::

        with Gateway(directory, port=0) as gateway:
            client = GatewayClient(gateway.url)
            client.search("orkut", Query("lp-bcc", pair))
    """

    def __init__(
        self,
        directory,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        retry_after_seconds: int = DEFAULT_RETRY_AFTER_SECONDS,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        fault_plan: Optional[object] = None,
        degraded_cache_size: int = DEFAULT_DEGRADED_CACHE_SIZE,
        observability: Optional[Observability] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if retry_after_seconds < 0:
            raise ValueError("retry_after_seconds must be non-negative")
        if degraded_cache_size < 0:
            raise ValueError("degraded_cache_size must be non-negative")
        self.directory = directory
        self.max_in_flight = max_in_flight
        self.retry_after_seconds = retry_after_seconds
        self.max_body_bytes = max_body_bytes
        self.fault_plan = fault_plan
        self.degraded_cache_size = degraded_cache_size
        self._degraded_lock = threading.Lock()
        self._degraded_cache: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._slots = threading.Semaphore(max_in_flight)
        self._gauge_lock = threading.Lock()
        self._in_flight = 0
        self._counters: Dict[str, int] = {
            "requests": 0,
            "rejections": 0,
            "errors": 0,
            "deadline_exceeded": 0,
            "degraded": 0,
            "unavailable": 0,
        }
        if observability is None:
            observability = getattr(directory, "observability", None)
        if observability is None:
            observability = Observability()
        self.observability = observability
        self.observability.registry.register_source(
            "gateway", self._metric_samples
        )
        self._clock = clock
        self._started_monotonic = clock()
        self._httpd = _GatewayHTTPServer((host, port), _GatewayRequestHandler)
        self._httpd.gateway = self
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def try_acquire(self) -> bool:
        """Claim an in-flight slot without blocking (False → answer 429)."""
        if not self._slots.acquire(blocking=False):
            return False
        with self._gauge_lock:
            self._in_flight += 1
        return True

    def release(self) -> None:
        """Return an in-flight slot."""
        with self._gauge_lock:
            self._in_flight -= 1
        self._slots.release()

    def in_flight(self) -> int:
        """The current in-flight POST gauge (for logs and tests)."""
        with self._gauge_lock:
            return self._in_flight

    def count(self, name: str) -> None:
        with self._gauge_lock:
            self._counters[name] = self._counters.get(name, 0) + 1

    def counters_snapshot(self) -> Dict[str, int]:
        """Gateway-level counters: requests served, 429 rejections, errors."""
        with self._gauge_lock:
            return dict(self._counters)

    def _metric_samples(self):
        """The gateway's rows in the unified metrics registry."""
        samples = counter_samples(
            "gateway",
            self.counters_snapshot(),
            help="gateway admission/serving counter",
        )
        samples.append(
            Sample(
                name="bcc_gateway_in_flight",
                value=float(self.in_flight()),
                kind="gauge",
                help="POST requests currently being served",
            )
        )
        return samples

    # ------------------------------------------------------------------
    # degraded mode (last-good-answer cache)
    # ------------------------------------------------------------------
    def degraded_cache_key(self, name: str, payload: Dict[str, object]) -> str:
        """One stable key per (graph, exact request payload).

        Keyed on the *wire* payload — two requests that would hit the same
        engine-cache entry but spell their config differently get separate
        degraded entries, which errs toward correctness (a degraded answer
        must match exactly what this caller asked before).
        """
        return json_dumps({"graph": name, "payload": payload})

    def degraded_cache_put(self, key: str, encoded: Dict[str, object]) -> None:
        """Remember a served answer as degraded-mode material (LRU)."""
        if self.degraded_cache_size == 0:
            return
        with self._degraded_lock:
            self._degraded_cache[key] = dict(encoded)
            self._degraded_cache.move_to_end(key)
            while len(self._degraded_cache) > self.degraded_cache_size:
                self._degraded_cache.popitem(last=False)

    def degraded_cache_get(self, key: str) -> Optional[Dict[str, object]]:
        """The last good answer for this exact request, if any (LRU touch)."""
        with self._degraded_lock:
            encoded = self._degraded_cache.get(key)
            if encoded is None:
                return None
            self._degraded_cache.move_to_end(key)
            return dict(encoded)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the real one, also when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """The base URL clients talk to."""
        return f"http://{self.host}:{self.port}"

    def uptime_seconds(self) -> float:
        return self._clock() - self._started_monotonic

    def health_payload(self) -> Dict[str, object]:
        """The ``/healthz`` body: readiness, uptime, versions, admission.

        ``status`` is the worst per-graph readiness state: ``"ok"`` when
        every served graph would serve a query right now, ``"degraded"``
        when some graph has ejected replicas but could still answer,
        ``"down"`` when some graph cannot answer at all (the handler turns
        that into a 503).  ``graphs`` carries the per-graph breakdown from
        :meth:`GraphDirectory.readiness`.
        """
        counters = self.counters_snapshot()
        readiness = self.directory.readiness()
        states = [str(entry.get("state", "ok")) for entry in readiness.values()]
        if any(state == "down" for state in states):
            status = "down"
        elif any(state == "degraded" for state in states):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "graphs": readiness,
            "uptime_seconds": self.uptime_seconds(),
            "protocol_version": PROTOCOL_VERSION,
            "stats_schema_version": STATS_SCHEMA_VERSION,
            "served_graphs": len(self.directory),
            "max_in_flight": self.max_in_flight,
            "in_flight": self.in_flight(),
            "requests": counters["requests"],
            "rejections": counters["rejections"],
            "degraded_answers": counters["degraded"],
            "deadline_exceeded": counters["deadline_exceeded"],
            # Persistent-store state (root, snapshots on disk, attach /
            # persist / mismatch counters, per-graph attach modes);
            # ``None`` when the directory serves without a store.
            "store": self.directory.store_summary(),
        }

    def start(self) -> "Gateway":
        """Serve in a daemon thread; returns self so construction chains."""
        if self._thread is not None:
            raise RuntimeError("gateway already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=f"repro-gateway:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Gateway(url={self.url!r}, graphs={self.directory.names()}, "
            f"max_in_flight={self.max_in_flight})"
        )

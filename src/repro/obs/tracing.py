"""Request-scoped tracing: a tree of timed spans riding contextvars.

A :class:`Trace` is one request's timing story — a tree of :class:`Span`
nodes keyed by the gateway's ``X-Request-Id`` — built *without* plumbing a
trace object through every call signature.  The active span lives in a
``contextvars.ContextVar``; any layer that wants to time a phase writes::

    from repro.obs.tracing import span

    with span("engine.kernel", method=query.method):
        result = runner(...)

and the call is **free when no trace is active**: :func:`span` then returns
a shared no-op context manager after a single ``ContextVar.get`` — that is
the entire disabled-path cost, which ``benchmarks/bench_obs_overhead.py``
measures (floor: <= 3% overhead on a batch trace).

Thread hops do not propagate contextvars by themselves.  The one place
the serving stack hops threads — ``serve_batch``'s executor — carries the
caller's context across with ``contextvars.copy_context()`` per row, so
rows join the batch's trace (and run under its deadline token).  A span
that an exception unwinds records ``error=<exception type>`` in its
meta: a deadline-exceeded query's trace names every span the
:class:`~repro.exceptions.DeadlineExceededError` unwound, down to the
kernel span that was running when the budget ran out.  Process hops carry
a trace-context field in the wire codec instead; the worker builds a
local :class:`Trace` and ships its span tree back to be grafted via
:meth:`Span.attach_remote`.

Clock hygiene (BCC002 covers this package): span timing uses
``time.perf_counter`` through an injectable ``clock=`` parameter default —
tests drive fake clocks, and ``perf_counter`` never gates behavior.
"""

from __future__ import annotations

import contextvars
import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = [
    "Span",
    "Trace",
    "Tracer",
    "TRACER_COUNTER_NAMES",
    "current_span",
    "current_trace",
    "format_trace",
    "span",
]

#: The active span of the current logical request (``None`` = tracing off
#: for this context — the common case, and the fast path).
_ACTIVE_SPAN: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_obs_active_span", default=None
)

#: Tracer counter names, in reporting order.
TRACER_COUNTER_NAMES = ("traces_started", "traces_finished", "traces_retained")


class _NullSpan:
    """The shared do-nothing span handed out when no trace is active.

    It answers the whole :class:`Span` surface with no-ops (returning
    itself where a span is expected), so instrumented call sites never
    branch on "is tracing on?" — they just use whatever :func:`span`
    handed them.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def annotate(self, **meta: object) -> "_NullSpan":
        return self

    def child(self, name: str, **meta: object) -> "_NullSpan":
        return self

    def finish(self) -> "_NullSpan":
        return self

    def attach_remote(self, payload: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


def current_span() -> Optional["Span"]:
    """The active span in this context (``None`` when tracing is off)."""
    return _ACTIVE_SPAN.get()


def current_trace() -> Optional["Trace"]:
    """The active trace in this context (``None`` when tracing is off)."""
    active = _ACTIVE_SPAN.get()
    return active.trace if active is not None else None


def span(name: str, **meta: object):
    """A context manager timing ``name`` under the active span.

    With no active trace this returns a shared no-op after one
    ``ContextVar.get`` — the documented disabled-path cost.  Inside the
    ``with`` block the new span is the active span, so nested ``span()``
    calls build the tree.
    """
    parent = _ACTIVE_SPAN.get()
    if parent is None:
        return _NULL_SPAN
    return Span(parent.trace, parent, name, meta)


class Span:
    """One timed node of a trace tree.

    Spans start at construction.  Used as a context manager they activate
    themselves for the block and finish on exit; used manually (the pool's
    dispatch path, where send and reply are separate events) the caller
    holds the object and calls :meth:`finish`.
    """

    __slots__ = (
        "trace",
        "name",
        "meta",
        "children",
        "start_seconds",
        "end_seconds",
        "_remote",
        "_token",
    )

    def __init__(
        self,
        trace: "Trace",
        parent: Optional["Span"],
        name: str,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        self.trace = trace
        self.name = name
        self.meta: Dict[str, object] = dict(meta) if meta else {}
        self.children: List["Span"] = []
        self.start_seconds = trace.now()
        self.end_seconds: Optional[float] = None
        self._remote: List[Dict[str, object]] = []
        self._token = None
        if parent is not None:
            with trace._lock:
                parent.children.append(self)

    # -- lifecycle -----------------------------------------------------
    def child(self, name: str, **meta: object) -> "Span":
        """Open a manually-managed child span (caller must finish it)."""
        return Span(self.trace, self, name, meta)

    def annotate(self, **meta: object) -> "Span":
        """Attach key/value metadata (JSON-safe scalars) to this span."""
        with self.trace._lock:
            self.meta.update(meta)
        return self

    def finish(self) -> "Span":
        """Stamp the end time (idempotent: the first finish wins)."""
        with self.trace._lock:
            if self.end_seconds is None:
                self.end_seconds = self.trace.now()
        return self

    def attach_remote(self, payload: object) -> None:
        """Graft a worker-reported span-tree payload under this span.

        ``payload`` is a list of already-JSON-safe span dicts (the shape
        :meth:`to_dict` emits), produced in another process and shipped
        back on the reply — it is stored as-is and merged into this
        span's ``children`` at :meth:`to_dict` time.
        """
        if not isinstance(payload, list):
            return
        with self.trace._lock:
            self._remote.extend(
                entry for entry in payload if isinstance(entry, dict)
            )

    @property
    def finished(self) -> bool:
        return self.end_seconds is not None

    def duration_seconds(self, cutoff: Optional[float] = None) -> float:
        """Elapsed seconds; unfinished spans run to ``cutoff`` (or now)."""
        end = self.end_seconds
        if end is None:
            end = cutoff if cutoff is not None else self.trace.now()
        return max(0.0, end - self.start_seconds)

    # -- context-manager protocol --------------------------------------
    def __enter__(self) -> "Span":
        self._token = _ACTIVE_SPAN.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            # The span an exception unwound names it: a deadline-exceeded
            # trace shows which span was running when the budget ran out.
            self.annotate(error=exc_type.__name__)
        self.finish()
        if self._token is not None:
            _ACTIVE_SPAN.reset(self._token)
            self._token = None
        return False

    # -- payload -------------------------------------------------------
    def to_dict(self, cutoff: Optional[float] = None) -> Dict[str, object]:
        """The JSON-safe span subtree (milliseconds, depth-first)."""
        with self.trace._lock:
            children = list(self.children)
            remote = list(self._remote)
            meta = dict(self.meta)
            end = self.end_seconds
        unfinished = end is None
        duration = self.duration_seconds(cutoff)
        payload: Dict[str, object] = {
            "name": self.name,
            "start_ms": round(self.start_seconds * 1000.0, 6),
            "duration_ms": round(duration * 1000.0, 6),
        }
        if unfinished:
            payload["unfinished"] = True
        if meta:
            payload["meta"] = meta
        child_payloads = [child.to_dict(cutoff) for child in children]
        child_payloads.extend(remote)
        if child_payloads:
            payload["children"] = child_payloads
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "open" if self.end_seconds is None else "closed"
        return f"Span({self.name!r}, {state})"


class Trace:
    """One request's span tree, keyed by its ``X-Request-Id``.

    A trace is also a context manager: entering activates its root span in
    the current context, exiting finishes the root and fires the optional
    ``on_finish`` callback (the :class:`Tracer` uses it to feed the slow
    log).  Times are seconds relative to the trace's start on its own
    injectable clock, so traces built on fake clocks are deterministic.
    """

    __slots__ = (
        "request_id",
        "root",
        "on_finish",
        "_clock",
        "_epoch",
        "_lock",
        "_token",
    )

    def __init__(
        self,
        request_id: str,
        name: str = "request",
        clock: Callable[[], float] = time.perf_counter,
        on_finish: Optional[Callable[["Trace"], None]] = None,
        **meta: object,
    ) -> None:
        self.request_id = request_id
        self.on_finish = on_finish
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self._token = None
        self.root = Span(self, None, name, meta)

    def now(self) -> float:
        """Seconds since this trace started (on the trace's clock)."""
        return self._clock() - self._epoch

    def finish(self) -> "Trace":
        self.root.finish()
        return self

    @property
    def finished(self) -> bool:
        return self.root.finished

    def duration_seconds(self) -> float:
        return self.root.duration_seconds()

    def __enter__(self) -> "Trace":
        self._token = _ACTIVE_SPAN.set(self.root)
        return self

    def __exit__(self, *exc_info) -> bool:
        self.finish()
        if self._token is not None:
            _ACTIVE_SPAN.reset(self._token)
            self._token = None
        if self.on_finish is not None:
            self.on_finish(self)
        return False

    def to_dict(self) -> Dict[str, object]:
        """The JSON-safe trace document (the slow-log entry shape)."""
        cutoff = self.root.end_seconds
        return {
            "request_id": self.request_id,
            "duration_ms": round(self.duration_seconds() * 1000.0, 6),
            "spans": self.root.to_dict(cutoff),
        }

    def span_payload(self) -> List[Dict[str, object]]:
        """The root subtree as a wire-safe list (worker replies ship this)."""
        return [self.root.to_dict(self.root.end_seconds)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace({self.request_id!r}, spans={self.root.name!r})"


class Tracer:
    """The tracing switchboard: off by default, owned by an Observability.

    ``trace(request_id)`` returns a no-op context manager while disabled
    (yielding ``None``) and a live :class:`Trace` once enabled; finished
    traces are offered to the attached slow log.  Counters ride the
    metrics registry through :meth:`counters_snapshot`.

    Locking: ``_counters`` only under ``_lock`` (leaf; nothing else is
    acquired while held).
    """

    def __init__(
        self,
        enabled: bool = False,
        clock: Callable[[], float] = time.perf_counter,
        slow_log: Optional[object] = None,
    ) -> None:
        self._enabled = bool(enabled)
        self._clock = clock
        self._slow_log = slow_log
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {
            name: 0 for name in TRACER_COUNTER_NAMES
        }

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> "Tracer":
        self._enabled = True
        return self

    def disable(self) -> "Tracer":
        self._enabled = False
        return self

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    def counters_snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def trace(self, request_id: str, name: str = "request", **meta: object):
        """A context manager yielding the request's :class:`Trace`.

        Disabled (the default): yields the shared no-op span and records
        nothing.
        """
        if not self._enabled:
            return _NULL_SPAN
        self._count("traces_started")
        return Trace(
            request_id,
            name=name,
            clock=self._clock,
            on_finish=self._finished,
            **meta,
        )

    def _finished(self, trace: Trace) -> None:
        self._count("traces_finished")
        if self._slow_log is not None and self._slow_log.offer(trace):
            self._count("traces_retained")


def _format_span(
    payload: Dict[str, object], indent: int, lines: List[str]
) -> None:
    duration = payload.get("duration_ms")
    suffix = " (unfinished)" if payload.get("unfinished") else ""
    meta = payload.get("meta") or {}
    meta_text = (
        " ".join(f"{key}={meta[key]!r}" for key in sorted(meta)) if meta else ""
    )
    lines.append(
        "  " * indent
        + f"{payload.get('name', '?')}  {duration:.3f}ms{suffix}"
        + (f"  [{meta_text}]" if meta_text else "")
    )
    for child in payload.get("children") or []:
        if isinstance(child, dict):
            _format_span(child, indent + 1, lines)


def format_trace(payload: Dict[str, object]) -> str:
    """Pretty-print one trace document (the ``to_dict`` shape) as a tree."""
    lines = [
        f"request {payload.get('request_id', '?')}  "
        f"{payload.get('duration_ms', 0.0):.3f}ms"
    ]
    spans = payload.get("spans")
    if isinstance(spans, dict):
        _format_span(spans, 1, lines)
    return "\n".join(lines)

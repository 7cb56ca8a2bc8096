"""The worker-process entry point of the multi-process compute backend.

:func:`worker_main` is a top-level importable function (a requirement of
the ``spawn`` start method) that attaches the shared graph, builds a
local serving engine and answers tasks from its pipe until told to stop.
Every message in both directions is a JSON document produced and parsed
by the wire codec (:mod:`repro.server.protocol`) — the same marshalling
the HTTP gateway speaks, so responses round-trip with exactly the same
fidelity guarantees (sorted vertex sets, ``inf`` encoding, NaN refusal).

Protocol (parent -> worker)::

    {"op": "search", "task": int, "query": <wire query>,
     "config": <wire config> | null, "use_cache": bool}
    {"op": "explain", "task": int, "query": ..., "config": ...}
    {"op": "shutdown"}

Worker -> parent replies carry the task id, an ``ok`` flag, either a
wire-encoded response or a structured error descriptor (enough for the
parent to re-raise the exact caller error), and a piggybacked snapshot of
the worker engine's counters, so ``/stats`` never needs a blocking
round-trip into a busy worker.

Failure discipline: every error ships as a descriptor the parent rebuilds
the exception from; the parent then applies the threaded path's own
:func:`~repro.api.engine.is_caller_error` rule to row or raise it.  An
*internal* error is reported as ``kind="internal"`` and always raises.
The worker never dies on a query error; only a kill / crash ends the
loop, which the parent observes as pipe EOF.

Clock hygiene (BCC002 covers this package): this file reads no clock.
A task's deadline is its engine's: ``engine.search`` runs under the
``deadline_ms`` of the config it resolves (the row's, else the engine's
base), as it does in the parent process.
"""

from __future__ import annotations

from typing import Dict

from repro.api.engine import BCCEngine
from repro.exceptions import (
    DeadlineExceededError,
    QueryError,
    UnknownMethodError,
    VertexNotFoundError,
)
from repro.obs.tracing import Trace
from repro.parallel.shm import GraphHandle, attach_graph
from repro.server.protocol import (
    decode_config,
    decode_query,
    decode_trace_context,
    encode_response,
    json_dumps,
    json_loads,
    jsonable,
)

def _describe_error(exc: Exception) -> Dict[str, object]:
    """A JSON-safe descriptor from which the parent rebuilds ``exc``.

    ``kind`` picks the exception type (never parsed from the message).
    """
    message = exc.args[0] if exc.args and isinstance(exc.args[0], str) else str(exc)
    descriptor: Dict[str, object] = {"message": message}
    if isinstance(exc, DeadlineExceededError):
        descriptor.update(kind="deadline", deadline_ms=exc.deadline_ms)
    elif isinstance(exc, VertexNotFoundError):
        vertex = getattr(exc, "vertex", None)
        descriptor.update(
            kind="vertex",
            vertex=vertex if isinstance(vertex, (int, str)) else str(vertex),
        )
    elif isinstance(exc, UnknownMethodError):
        # Ship the known-method list so the parent-side rebuild produces
        # the *identical* message the threaded path would — error rows
        # are part of the value-for-value parity surface.
        descriptor.update(
            kind="unknown-method",
            method=str(getattr(exc, "method", "")),
            known=[str(k) for k in getattr(exc, "known", ())],
        )
    elif isinstance(exc, QueryError):
        descriptor["kind"] = "query"
    else:
        descriptor.update(kind="internal", type=type(exc).__name__)
    return descriptor


def _build_engine(handle: GraphHandle, attachment) -> object:
    """The worker-local serving engine the handle asks for."""
    config = decode_config(handle.config)  # None builds the default config
    if handle.sharded:
        from repro.serving.sharded import ShardedBCCEngine  # deferred import

        return ShardedBCCEngine(
            attachment.graph,
            config,
            result_cache_size=handle.result_cache_size,
        )
    return BCCEngine(
        attachment.graph, config, result_cache_size=handle.result_cache_size
    ).prepare()


def _serve_search(engine, message: Dict[str, object]) -> Dict[str, object]:
    """Run one search under its row config (``None`` = engine base) and deadline.

    When the message carries a trace context (the parent has an active
    trace), the search runs under a worker-local :class:`Trace` and the
    resulting span tree rides back on the reply as ``spans`` — the parent
    grafts it under the task's row span.  Without one, the reply stays
    byte-identical to the untraced protocol.
    """
    request_id = decode_trace_context(message.get("trace"))
    if request_id is None:
        return _serve_search_untraced(engine, message)
    trace = Trace(request_id, name="worker")
    with trace:
        reply = _serve_search_untraced(engine, message)
    reply["spans"] = trace.span_payload()
    return reply


def _serve_search_untraced(
    engine, message: Dict[str, object]
) -> Dict[str, object]:
    query = decode_query(message["query"])
    config = decode_config(message.get("config"))
    use_cache = bool(message.get("use_cache", True))
    try:
        response = engine.search(query, config=config, use_cache=use_cache)
        return {
            "task": message["task"],
            "ok": True,
            "response": encode_response(response),
        }
    except Exception as exc:  # descriptor'd and re-raised parent-side
        return {
            "task": message["task"],
            "ok": False,
            "error": _describe_error(exc),
        }


def worker_main(worker_id: int, conn, handle_text: str) -> None:
    """Attach, build, then serve tasks until shutdown or pipe EOF.

    Any failure *before* the ready message (attach error, bad handle) is
    reported as a ``ready: false`` message so the parent can raise a
    clear error instead of diagnosing a silent exit.
    """
    try:
        handle = GraphHandle.from_payload(json_loads(handle_text))
        attachment = attach_graph(handle)
        engine = _build_engine(handle, attachment)
    except Exception as exc:  # surfaced parent-side at spawn
        try:
            conn.send(
                json_dumps(
                    {"ready": False, "worker": worker_id, "error": str(exc)}
                )
            )
        finally:
            conn.close()
        return
    # A sharded engine's own counters are its router's; its shards do the work.
    counters = engine.engine_counters if handle.sharded else engine.counters_snapshot
    conn.send(json_dumps({"ready": True, "worker": worker_id}))
    while True:
        try:
            text = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        message = json_loads(text)
        op = message.get("op")
        if op == "shutdown":
            break
        if op == "search":
            reply = _serve_search(engine, message)
        elif op == "explain":
            query = decode_query(message["query"])
            config = decode_config(message.get("config"))
            try:
                reply = {
                    "task": message["task"],
                    "ok": True,
                    "explain": jsonable(engine.explain(query, config=config)),
                }
            except Exception as exc:
                reply = {
                    "task": message["task"],
                    "ok": False,
                    "error": _describe_error(exc),
                }
        else:
            reply = {
                "task": message.get("task", -1),
                "ok": False,
                "error": {"kind": "internal", "message": f"unknown worker op {op!r}"},
            }
        reply["counters"] = counters()
        try:
            conn.send(json_dumps(reply))
        except (BrokenPipeError, OSError):  # parent went away mid-reply
            break
    conn.close()
    attachment.release()

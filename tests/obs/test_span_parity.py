"""Span-tree parity: the process transport traces the same logical shape.

One batch served through ``backend="process"`` and through the threaded
path must tell the same timing story at the dispatch level — one
``batch`` span whose ``row`` children carry the same methods — with only
the transport annotation (and the workers' own remote subtrees) differing.
An operator reading a slow-query trace should not have to know which
transport served it to navigate the tree.
"""

from __future__ import annotations

import random

import pytest

from repro.api import BCCEngine, Query
from repro.graph.generators import random_labeled_graph
from repro.obs.tracing import Trace
from tests.obs.conftest import FakeClock

pytestmark = pytest.mark.parallel


@pytest.fixture(scope="module")
def parity_graph():
    rng = random.Random(2024)
    graph = random_labeled_graph(40, 0.2, ["A", "B"], seed=rng.randint(0, 999))
    assert any(True for _ in graph.cross_edges()), "needs a cross edge"
    return graph


def cross_pairs(graph, limit):
    pairs = []
    for u, v in graph.cross_edges():
        pairs.append((u, v))
        if len(pairs) >= limit:
            break
    return pairs


def find_spans(doc, name):
    """Every span dict named ``name`` in a trace document, depth-first."""
    found = []
    stack = [doc["spans"]]
    while stack:
        node = stack.pop()
        if node.get("name") == name:
            found.append(node)
        stack.extend(
            child for child in node.get("children", ())
            if isinstance(child, dict)
        )
    return found


def batch_shape(trace):
    """``(transport, sorted row methods)`` of the one batch span."""
    doc = trace.to_dict()
    (batch,) = find_spans(doc, "batch")
    rows = [c for c in batch.get("children", ()) if c.get("name") == "row"]
    methods = sorted(row.get("meta", {}).get("method") for row in rows)
    return batch["meta"]["transport"], len(rows), methods


def traced_batch(engine, queries, backend):
    trace = Trace("parity", clock=FakeClock())
    with trace:
        responses = engine.search_many(
            queries, max_workers=2, on_error="return", backend=backend
        )
    return trace, responses


def test_process_and_thread_batches_trace_the_same_logical_shape(
    parity_graph,
):
    queries = [
        Query("online-bcc", pair) for pair in cross_pairs(parity_graph, 4)
    ]
    engine = BCCEngine(parity_graph)
    engine.prepare()
    try:
        thread_trace, thread_responses = traced_batch(engine, queries, "thread")
        process_trace, process_responses = traced_batch(
            engine, queries, "process"
        )
    finally:
        engine.close_process_pool()

    # The answers agree (the transport is invisible) ...
    assert [r.status for r in process_responses] == [
        r.status for r in thread_responses
    ]

    # ... and so does the logical span tree: one batch, same row fan-out.
    thread_transport, thread_rows, thread_methods = batch_shape(thread_trace)
    process_transport, process_rows, process_methods = batch_shape(
        process_trace
    )
    assert thread_transport == "thread"
    assert process_transport == "process"
    assert process_rows == thread_rows == len(queries)
    assert process_methods == thread_methods


def test_process_rows_graft_remote_worker_spans(parity_graph):
    queries = [
        Query("online-bcc", pair) for pair in cross_pairs(parity_graph, 2)
    ]
    engine = BCCEngine(parity_graph)
    engine.prepare()
    try:
        trace, _ = traced_batch(engine, queries, "process")
    finally:
        engine.close_process_pool()

    rows = find_spans(trace.to_dict(), "row")
    assert rows, "process batch produced no row spans"
    worker_roots = [
        child
        for row in rows
        for child in row.get("children", ())
        if child.get("name") == "worker"
    ]
    # Every row's reply piggybacked the worker-side span tree.
    assert len(worker_roots) == len(rows)
    for remote in worker_roots:
        names = {c.get("name") for c in remote.get("children", ())}
        assert "engine.search" in names

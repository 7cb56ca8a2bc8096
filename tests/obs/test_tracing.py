"""Tracing unit tests: null-span surface, fake-clock trees, deadlines."""

from __future__ import annotations

import contextvars

import pytest

from repro.api.engine import run_with_deadline
from repro.deadline import checkpoint
from repro.exceptions import DeadlineExceededError
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracing import (
    Trace,
    Tracer,
    TRACER_COUNTER_NAMES,
    current_span,
    current_trace,
    format_trace,
    span,
)


# ----------------------------------------------------------------------
# disabled path: the shared null span
# ----------------------------------------------------------------------
class TestNullSpan:
    def test_span_without_active_trace_is_shared_noop(self):
        assert current_span() is None
        first = span("engine.kernel", method="online-bcc")
        second = span("something.else")
        assert first is second  # one shared object, no allocation per call

    def test_null_span_answers_the_whole_span_surface(self):
        with span("outer") as outer:
            # Call sites never branch on "is tracing on?": annotate/child/
            # finish all answer on the null object too.
            assert outer.annotate(status="ok") is outer
            assert outer.child("inner", worker=0) is outer
            assert outer.finish() is outer
            assert outer.attach_remote([{"name": "w"}]) is None
            assert current_span() is None  # the null span never activates

    def test_disabled_tracer_returns_noop_and_counts_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.trace("req-1", path="/x"):
            assert current_trace() is None
        assert tracer.counters_snapshot() == {
            name: 0 for name in TRACER_COUNTER_NAMES
        }


# ----------------------------------------------------------------------
# enabled path: trees on a fake clock
# ----------------------------------------------------------------------
class TestTraceTree:
    def test_nested_spans_build_a_timed_tree(self, clock):
        trace = Trace("req-7", clock=clock, path="/graphs/g/search")
        with trace:
            clock.advance(0.001)
            with span("engine.search", method="online-bcc") as search:
                clock.advance(0.002)
                with span("engine.kernel"):
                    clock.advance(0.003)
                search.annotate(status="ok")
            clock.advance(0.0005)

        doc = trace.to_dict()
        assert doc["request_id"] == "req-7"
        assert doc["duration_ms"] == pytest.approx(6.5)
        root = doc["spans"]
        assert root["name"] == "request"
        assert root["meta"] == {"path": "/graphs/g/search"}
        (search_doc,) = root["children"]
        assert search_doc["name"] == "engine.search"
        assert search_doc["start_ms"] == pytest.approx(1.0)
        assert search_doc["duration_ms"] == pytest.approx(5.0)
        assert search_doc["meta"] == {"method": "online-bcc", "status": "ok"}
        (kernel_doc,) = search_doc["children"]
        assert kernel_doc["duration_ms"] == pytest.approx(3.0)

    def test_span_context_activates_and_restores(self, clock):
        trace = Trace("req-8", clock=clock)
        with trace:
            assert current_span() is trace.root
            assert current_trace() is trace
            with span("phase") as phase:
                assert current_span() is phase
            assert current_span() is trace.root
        assert current_span() is None
        assert trace.finished

    def test_unfinished_span_is_cut_at_trace_end(self, clock):
        trace = Trace("req-9", clock=clock)
        with trace:
            trace.root.child("stuck")  # never finished by anyone
            clock.advance(0.004)
        clock.advance(10.0)  # time after the trace must not leak in

        (stuck_doc,) = trace.to_dict()["spans"]["children"]
        assert stuck_doc["unfinished"] is True
        assert stuck_doc["duration_ms"] == pytest.approx(4.0)

    def test_attach_remote_grafts_worker_payloads(self, clock):
        trace = Trace("req-10", clock=clock)
        with trace:
            row = trace.root.child("row", worker=0)
            row.attach_remote([{"name": "worker", "duration_ms": 1.5}])
            row.attach_remote("garbage")  # non-list payloads are ignored
            row.attach_remote([17, {"name": "worker2"}])  # non-dict rows too
            row.finish()

        (row_doc,) = trace.to_dict()["spans"]["children"]
        names = [child["name"] for child in row_doc["children"]]
        assert names == ["worker", "worker2"]

    def test_trace_context_survives_an_explicit_context_hop(self, clock):
        # Fresh threads do not inherit contextvars; the serving stack
        # carries them across with copy_context().run — same mechanism,
        # asserted without a real thread.
        trace = Trace("req-11", clock=clock)
        seen = {}

        def hop():
            with span("hopped"):
                seen["span"] = current_span().name

        with trace:
            context = contextvars.copy_context()
        context.run(hop)
        assert seen["span"] == "hopped"
        assert [c["name"] for c in trace.to_dict()["spans"]["children"]] == [
            "hopped"
        ]


# ----------------------------------------------------------------------
# the tracer switchboard + slow-log handoff
# ----------------------------------------------------------------------
class TestTracer:
    def test_enabled_tracer_counts_and_retains_slow_traces(self, clock):
        slow_log = SlowQueryLog(threshold_ms=3.0, capacity=4)
        tracer = Tracer(enabled=True, clock=clock, slow_log=slow_log)

        with tracer.trace("fast"):
            clock.advance(0.001)  # 1ms < 3ms: not retained
        with tracer.trace("slow"):
            clock.advance(0.010)  # 10ms >= 3ms: retained

        assert tracer.counters_snapshot() == {
            "traces_started": 2,
            "traces_finished": 2,
            "traces_retained": 1,
        }
        (entry,) = slow_log.snapshot()
        assert entry["request_id"] == "slow"

    def test_enable_disable_round_trip(self):
        tracer = Tracer()
        assert not tracer.enabled
        assert tracer.enable().enabled
        assert not tracer.disable().enabled


# ----------------------------------------------------------------------
# the acceptance path: a deadline-exceeded trace names the culprit
# ----------------------------------------------------------------------
class TestDeadlineTrace:
    def test_deadline_exceeded_trace_shows_budget_consuming_span(self):
        def stuck_kernel():
            with span("engine.kernel", method="online-bcc"):
                while True:
                    checkpoint()

        trace = Trace("req-dl")
        with trace:
            with pytest.raises(DeadlineExceededError):
                run_with_deadline(stuck_kernel, 0.05, what="row:online-bcc")

        doc = trace.to_dict()
        (deadline_doc,) = doc["spans"]["children"]
        assert deadline_doc["name"] == "deadline"
        assert deadline_doc["meta"]["exceeded"] is True
        assert deadline_doc["meta"]["budget_ms"] == pytest.approx(50.0)
        (kernel_doc,) = deadline_doc["children"]
        assert kernel_doc["name"] == "engine.kernel"
        # The kernel's checkpoint raised: its span names the error.
        assert kernel_doc["meta"]["error"] == "DeadlineExceededError"

    def test_deadline_without_budget_runs_inline_and_unspanned(self, clock):
        trace = Trace("req-inline", clock=clock)
        with trace:
            assert run_with_deadline(lambda: 41 + 1, None) == 42
        assert "children" not in trace.to_dict()["spans"]


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
class TestFormatTrace:
    def test_renders_an_indented_tree_with_markers(self, clock):
        trace = Trace("req-fmt", clock=clock)
        with trace:
            clock.advance(0.001)
            with span("engine.search", method="online-bcc"):
                trace.root.child("stuck")
                clock.advance(0.002)

        text = format_trace(trace.to_dict())
        lines = text.splitlines()
        assert lines[0].startswith("request req-fmt")
        assert lines[1].lstrip().startswith("request")
        assert any(
            line.lstrip().startswith("engine.search")
            and "method='online-bcc'" in line
            for line in lines
        )
        assert any("(unfinished)" in line for line in lines)
        # children indent one level deeper than their parent
        search_line = next(l for l in lines if "engine.search" in l)
        root_line = lines[1]
        indent = len(search_line) - len(search_line.lstrip())
        assert indent > len(root_line) - len(root_line.lstrip())

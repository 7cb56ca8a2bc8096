"""Gateway observability: /metrics, /debug/slow, stats blocks, request ids.

The acceptance surface of the observability layer: every live counter is
scrapeable as Prometheus text, the scrape agrees with ``/stats``, slow
queries are retained as navigable traces, and one logical client request
keeps one ``X-Request-Id`` across its retries.
"""

from __future__ import annotations

import json
import re
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.api import Query, SearchConfig
from repro.api.engine import ENGINE_COUNTER_NAMES
from repro.exceptions import DeadlineExceededError
from repro.obs.metrics import EXPORTED_COUNTERS
from repro.obs.slowlog import SLOWLOG_COUNTER_NAMES
from repro.obs.tracing import TRACER_COUNTER_NAMES
from repro.graph.generators import random_labeled_graph
from repro.server import Gateway, GatewayClient
from repro.server.resilience import RetryPolicy
from repro.serving import GraphDirectory

QUERY = Query("online-bcc", ("ql", "qr"))


@pytest.fixture
def slow_gateway():
    """A gateway over a graph whose cold search costs tens of ms."""
    graph = random_labeled_graph(800, 0.04, ["A", "B"], seed=7)
    directory = GraphDirectory(sharded=False)
    directory.add("slow", graph)
    with Gateway(directory, port=0, max_in_flight=8) as server:
        yield server

#: One exposition sample row: ``name{labels} value`` or ``name value``.
EXPOSITION_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? -?[0-9]"
)


def sample_value(text: str, name: str, **labels: str) -> float:
    """The value of the exposition row ``name{labels...}``."""
    wanted = {f'{key}="{value}"' for key, value in labels.items()}
    for line in text.splitlines():
        if line.startswith("#") or not line.startswith(name):
            continue
        row_name, _, rest = line.partition("{") if "{" in line else (
            line.split(" ", 1)[0],
            "",
            "",
        )
        if row_name != name:
            continue
        if wanted:
            body = line[line.index("{") + 1 : line.index("}")]
            if not wanted <= set(body.split(",")):
                continue
        return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"no sample {name} with labels {labels} in scrape")


# ----------------------------------------------------------------------
# GET /metrics
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    def test_scrape_is_valid_exposition_with_prometheus_content_type(
        self, gateway, client
    ):
        client.search("paper", QUERY)
        request = urllib.request.Request(gateway.url + "/metrics")
        with urllib.request.urlopen(request, timeout=10.0) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            assert response.headers["X-Request-Id"]
            text = response.read().decode("utf-8")
        assert text.endswith("\n")
        for line in text.rstrip("\n").splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert EXPOSITION_LINE.match(line), f"malformed line: {line!r}"

    def test_every_live_counter_key_is_scrapeable(self, gateway, client):
        client.search("paper", QUERY)
        text = client.metrics_text()
        for name in ENGINE_COUNTER_NAMES:
            assert f"bcc_engine_{name}_total" in text
        for name in gateway.counters_snapshot():
            assert f"bcc_gateway_{name}_total" in text
        for name in TRACER_COUNTER_NAMES:
            assert f"bcc_obs_tracer_{name}_total" in text
        for name in SLOWLOG_COUNTER_NAMES:
            assert f"bcc_obs_slowlog_{name}_total" in text
        assert "bcc_obs_registry_scrapes_total" in text
        assert "bcc_graph_latency_seconds_bucket" in text
        assert 'le="+Inf"' in text
        assert "bcc_gateway_in_flight" in text
        assert "bcc_directory_served_graphs 1" in text

    def test_live_counter_keys_are_all_declared_in_the_manifest(
        self, gateway, client
    ):
        client.search("paper", QUERY)
        assert set(gateway.counters_snapshot()) <= EXPORTED_COUNTERS
        stats = client.stats()
        engine_counters = stats["graphs"]["paper"]["counters"]
        assert set(engine_counters) <= EXPORTED_COUNTERS

    def test_scrape_agrees_with_stats(self, gateway, client):
        client.search("paper", QUERY)
        client.search("paper", QUERY)
        stats = client.stats()
        text = client.metrics_text()
        engine_counters = stats["graphs"]["paper"]["counters"]
        for name in ("searches", "result_cache_hits", "result_cache_misses"):
            assert sample_value(
                text, f"bcc_engine_{name}_total", graph="paper"
            ) == float(engine_counters[name])
        assert sample_value(
            text, "bcc_gateway_requests_total"
        ) == float(gateway.counters_snapshot()["requests"])
        assert sample_value(
            text, "bcc_graph_latency_seconds_count", graph="paper"
        ) == float(stats["graphs"]["paper"]["latency"]["count"])


# ----------------------------------------------------------------------
# /stats observability blocks (schema v2)
# ----------------------------------------------------------------------
class TestStatsBlocks:
    def test_trace_and_metrics_blocks(self, gateway, client):
        client.search("paper", QUERY)
        stats = client.stats()
        assert stats["schema_version"] == 2

        trace_block = stats["trace"]
        assert trace_block["enabled"] is False
        assert trace_block["slow_retained"] == 0
        assert set(TRACER_COUNTER_NAMES) <= set(trace_block["counters"])
        assert set(SLOWLOG_COUNTER_NAMES) <= set(trace_block["counters"])

        metrics_block = stats["metrics"]
        assert set(metrics_block["sources"]) >= {"obs", "directory", "gateway"}
        assert metrics_block["series"] > 0
        assert "bcc_gateway_requests_total" in metrics_block["names"]


# ----------------------------------------------------------------------
# slow-query capture end to end
# ----------------------------------------------------------------------
class TestSlowQueryCapture:
    def test_slow_request_is_retained_with_its_span_tree(
        self, gateway, client
    ):
        gateway.observability.tracer.enable()
        gateway.observability.slow_log.set_threshold_ms(0.0)
        client.search("paper", QUERY)

        payload = client.debug_slow()
        assert payload["retained"] >= 1
        entry = payload["traces"][0]
        assert entry["request_id"]  # the gateway's X-Request-Id
        names = set()
        stack = [entry["spans"]]
        while stack:
            node = stack.pop()
            names.add(node.get("name"))
            stack.extend(
                c for c in node.get("children", ()) if isinstance(c, dict)
            )
        assert {"request", "engine.search", "engine.kernel"} <= names

        trace_block = client.stats()["trace"]
        assert trace_block["enabled"] is True
        assert trace_block["counters"]["traces_retained"] >= 1

    def test_deadline_exceeded_trace_records_the_budget(self, slow_gateway):
        # A graph whose cold search outlasts the budget — on the tiny paper
        # graph the kernel can finish before a checkpoint sees the budget
        # spent and the deadline never fires (same reason tests/parallel
        # uses a slow graph).
        slow_gateway.observability.tracer.enable()
        slow_gateway.observability.slow_log.set_threshold_ms(0.0)
        client = GatewayClient(slow_gateway.url, timeout_seconds=10.0)
        pair = next(iter(slow_gateway.directory.get("slow").graph.cross_edges()))
        with pytest.raises(DeadlineExceededError):
            client.search(
                "slow",
                Query("online-bcc", pair),
                config=SearchConfig(deadline_ms=1.0),
            )
        assert slow_gateway.counters_snapshot()["deadline_exceeded"] == 1

        entries = slow_gateway.observability.slow_log.snapshot()
        assert entries, "deadline-exceeded request was not retained"
        deadline_spans, errored = [], []
        stack = [entries[0]["spans"]]
        while stack:
            node = stack.pop()
            if node.get("name") == "deadline":
                deadline_spans.append(node)
            if node.get("meta", {}).get("error") == "DeadlineExceededError":
                errored.append(node["name"])
            stack.extend(
                c for c in node.get("children", ()) if isinstance(c, dict)
            )
        (deadline_span,) = deadline_spans
        assert deadline_span["meta"]["exceeded"] is True
        assert deadline_span["meta"]["budget_ms"] == pytest.approx(1.0)
        # The span that consumed the budget names the error that unwound it.
        assert "engine.kernel" in errored, "no kernel span marked with the error"

    @pytest.mark.parametrize("deadline_ms", [None, 1.0])
    def test_a_trace_reaches_the_slow_log_before_its_response(
        self, slow_gateway, monkeypatch, deadline_ms
    ):
        # Hold the trace's hand-off to the slow log: the answer (the 504
        # too) must wait for it instead of racing it to the caller.
        tracer = slow_gateway.observability.tracer
        tracer.enable()
        slow_gateway.observability.slow_log.set_threshold_ms(0.0)
        finished = tracer._finished

        def late_finish(trace):
            time.sleep(0.2)
            finished(trace)

        monkeypatch.setattr(tracer, "_finished", late_finish)
        client = GatewayClient(slow_gateway.url, timeout_seconds=10.0)
        pair = next(iter(slow_gateway.directory.get("slow").graph.cross_edges()))
        query = Query("online-bcc", pair)
        config = SearchConfig(deadline_ms=deadline_ms)
        if deadline_ms is None:
            client.search("slow", query, config=config)
        else:
            with pytest.raises(DeadlineExceededError):
                client.search("slow", query, config=config)
        assert len(slow_gateway.observability.slow_log.snapshot()) == 1


# ----------------------------------------------------------------------
# satellite regression: one X-Request-Id per logical request
# ----------------------------------------------------------------------
class FlakyOnce(BaseHTTPRequestHandler):
    """Answer 503 to the first request, 200 after; record request ids."""

    seen_ids = None  # set per test via subclassing in the fixture

    def do_GET(self):  # noqa: N802  (http.server naming)
        self.seen_ids.append(self.headers.get("X-Request-Id"))
        if len(self.seen_ids) == 1:
            body = json.dumps({"error": "warming up"}).encode("utf-8")
            self.send_response(503)
            self.send_header("Retry-After", "0")
        else:
            body = json.dumps({"status": "ok"}).encode("utf-8")
            self.send_response(200)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # keep pytest output clean
        pass


@pytest.fixture
def flaky_server():
    seen = []
    handler = type("Handler", (FlakyOnce,), {"seen_ids": seen})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", seen
    finally:
        server.shutdown()
        server.server_close()


class TestRequestIdAcrossRetries:
    def test_retry_attempts_reuse_the_same_request_id(self, flaky_server):
        url, seen = flaky_server
        client = GatewayClient(
            url,
            timeout_seconds=5.0,
            retry_policy=RetryPolicy(
                max_attempts=3,
                base_delay_seconds=0.0,
                max_delay_seconds=0.0,
            ),
            sleep=lambda seconds: None,
        )
        assert client.healthz() == {"status": "ok"}
        assert client.retries() == 1
        assert len(seen) == 2
        assert seen[0] is not None
        assert seen[0] == seen[1]  # the retry kept the logical request's id

    def test_distinct_logical_requests_get_distinct_ids(self, flaky_server):
        url, seen = flaky_server
        client = GatewayClient(
            url,
            timeout_seconds=5.0,
            retry_policy=RetryPolicy(
                max_attempts=3,
                base_delay_seconds=0.0,
                max_delay_seconds=0.0,
            ),
            sleep=lambda seconds: None,
        )
        client.healthz()  # attempt 1 (503) + retry (200): one id
        client.healthz()  # fresh logical request: a fresh id
        assert len(seen) == 3
        assert seen[0] == seen[1]
        assert seen[2] != seen[0]

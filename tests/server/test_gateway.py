"""Gateway endpoints, HTTP status mapping, backpressure, access logs."""

from __future__ import annotations

import json
import logging
import math
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import BatchQuery, Query, SearchConfig
from repro.api.query import STATUS_ERROR, STATUS_OK
from repro.exceptions import (
    REASON_MISSING_VERTEX,
    REASON_UNKNOWN_METHOD,
    GraphNotFoundError,
    QueryError,
)
from repro.server import (
    Gateway,
    GatewayClient,
    GatewayOverloadedError,
    PROTOCOL_VERSION,
)
from repro.server.app import ACCESS_LOGGER
from repro.serving import GraphDirectory

OK_QUERY = Query("online-bcc", ("ql", "qr"))


def raw_request(url: str, method: str = "GET", body: bytes = b"", timeout=10.0):
    """A raw HTTP exchange returning (status, parsed-or-raw body)."""
    request = urllib.request.Request(url, method=method, data=body or None)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        payload = exc.read()
        try:
            return exc.code, json.loads(payload)
        except json.JSONDecodeError:
            return exc.code, payload


class TestObservabilityEndpoints:
    def test_healthz(self, client, gateway):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["protocol_version"] == PROTOCOL_VERSION
        assert health["served_graphs"] == 1
        assert health["uptime_seconds"] >= 0.0
        assert health["max_in_flight"] == gateway.max_in_flight

    def test_graphs(self, client):
        assert client.graphs() == ["paper"]

    def test_stats_is_the_directory_payload(self, client, paper_directory):
        client.search("paper", OK_QUERY)
        stats = client.stats()
        assert stats["schema_version"] == 2
        assert stats["served_graphs"] == 1
        assert stats["graphs"]["paper"]["kind"] == "monolithic"
        assert stats["graphs"]["paper"]["counters"]["searches"] >= 1

    def test_unknown_get_endpoint_is_404(self, gateway):
        status, body = raw_request(f"{gateway.url}/nope")
        assert status == 404
        assert body["code"] == "not-found"


class TestSearchEndpoint:
    def test_ok_search_decodes_to_a_real_response(self, client, paper_directory):
        remote = client.search("paper", OK_QUERY)
        local = paper_directory.get("paper").search(OK_QUERY)
        assert remote.status == STATUS_OK
        assert remote.vertices == local.vertices
        assert remote.iterations == local.iterations
        assert remote.query_distance == local.query_distance

    def test_missing_vertex_is_http_404_query_error(self, client, gateway):
        with pytest.raises(QueryError):
            client.search("paper", Query("online-bcc", ("ql", "zz")))
        status, body = raw_request(
            f"{gateway.url}/graphs/paper/search",
            method="POST",
            body=json.dumps(
                {"query": {"method": "online-bcc", "vertices": ["ql", "zz"],
                           "config": None}}
            ).encode(),
        )
        assert status == 404
        assert body["status"] == STATUS_ERROR
        assert body["reason"] == REASON_MISSING_VERTEX
        assert body["query_distance"] == "inf"  # never Infinity

    def test_unknown_method_is_http_400(self, gateway):
        status, body = raw_request(
            f"{gateway.url}/graphs/paper/search",
            method="POST",
            body=json.dumps(
                {"query": {"method": "warp", "vertices": ["ql", "qr"],
                           "config": None}}
            ).encode(),
        )
        assert status == 400
        assert body["reason"] == REASON_UNKNOWN_METHOD

    def test_unknown_graph_is_graph_not_found(self, client):
        with pytest.raises(GraphNotFoundError):
            client.search("atlantis", OK_QUERY)

    def test_config_override_rides_through(self, client):
        response = client.search(
            "paper", Query("online-bcc", ("ql", "qr")), config=SearchConfig(k1=4, k2=3)
        )
        assert response.status == STATUS_OK

    def test_malformed_body_is_400(self, gateway):
        status, body = raw_request(
            f"{gateway.url}/graphs/paper/search", method="POST", body=b"{not json"
        )
        assert status == 400
        assert body["code"] == "bad-request"

    def test_unknown_action_is_404(self, gateway):
        status, body = raw_request(
            f"{gateway.url}/graphs/paper/teleport", method="POST", body=b"{}"
        )
        assert status == 404

    def test_unencodable_response_is_500_not_callers_fault(self):
        """A graph may host non-scalar vertices in-process; a community
        containing one cannot ride the wire — that is a server-side 500,
        never a 400 blaming the well-formed request."""
        from repro.graph.labeled_graph import LabeledGraph
        from repro.server import GatewayError

        graph = LabeledGraph()
        for vertex in ("a", "b", ("t", 1)):
            graph.add_vertex(vertex, label="L")
        for vertex in ("x", "y", ("t", 2)):
            graph.add_vertex(vertex, label="R")
        for left in ("a", "b", ("t", 1)):
            for right in ("x", "y", ("t", 2)):
                graph.add_edge(left, right)
        for u, v in (("a", "b"), ("a", ("t", 1)), ("x", "y"), ("x", ("t", 2))):
            graph.add_edge(u, v)
        directory = GraphDirectory(sharded=False)
        directory.add("mixed", graph, config=SearchConfig(k1=1, k2=1))
        local = directory.serve("mixed", Query("online-bcc", ("a", "x")))
        assert any(isinstance(v, tuple) for v in local.vertices)
        with Gateway(directory, port=0) as gateway:
            client = GatewayClient(gateway.url, timeout_seconds=10.0)
            with pytest.raises(GatewayError) as failure:
                client.search("mixed", Query("online-bcc", ("a", "x")))
            assert "500" in str(failure.value)


class TestSearchManyEndpoint:
    def test_batch_with_one_bad_query_returns_aligned_rows(self, client):
        rows = client.search_many(
            "paper",
            [OK_QUERY, Query("online-bcc", ("ql", "nope")), OK_QUERY],
            on_error="return",
        )
        assert [row.status for row in rows] == [STATUS_OK, STATUS_ERROR, STATUS_OK]
        assert rows[1].reason == REASON_MISSING_VERTEX
        assert rows[1].query_distance == math.inf
        assert rows[0].vertices == rows[2].vertices

    def test_on_error_raise_aborts_with_the_query_error(self, client):
        with pytest.raises(QueryError):
            client.search_many(
                "paper", [OK_QUERY, Query("online-bcc", ("ql", "nope"))],
                on_error="raise",
            )

    def test_batch_query_shared_config_rides_through(self, client):
        batch = BatchQuery(queries=(OK_QUERY,), config=SearchConfig(k1=4, k2=3))
        rows = client.search_many("paper", batch)
        assert rows[0].status == STATUS_OK

    def test_call_level_config_beats_query_config_like_in_process(
        self, client, paper_directory
    ):
        """Config precedence over the wire: call > query > batch — the
        call-level override must ride as its own field, not be folded into
        the batch config (which per-query configs would beat)."""
        query = Query(
            "online-bcc", ("ql", "qr"), config=SearchConfig(max_iterations=0)
        )
        call_config = SearchConfig(k1=4, k2=3, max_iterations=200)
        local = paper_directory.serve_many(
            "paper", [query], config=call_config
        )
        remote = client.search_many("paper", [query], config=call_config)
        assert remote[0].vertices == local[0].vertices
        assert remote[0].iterations == local[0].iterations
        # And the call override genuinely changed the answer vs the
        # query's own config (otherwise this test proves nothing).
        unoverridden = client.search_many(
            "paper", [Query("online-bcc", ("ql", "qr"),
                            config=SearchConfig(k1=4, k2=3, max_iterations=0))]
        )
        assert unoverridden[0].iterations != remote[0].iterations

    def test_bad_options_are_400(self, gateway):
        body = json.dumps(
            {"queries": [{"method": "online-bcc", "vertices": ["ql", "qr"],
                          "config": None}],
             "config": None, "on_error": "explode"}
        ).encode()
        status, payload = raw_request(
            f"{gateway.url}/graphs/paper/search_many", method="POST", body=body
        )
        assert status == 400

    def test_max_workers_above_max_in_flight_is_400(self, paper_directory):
        """A batch may ask for no more worker threads than the gateway
        admits requests."""
        with Gateway(paper_directory, port=0, max_in_flight=2) as gateway:
            body = json.dumps(
                {"queries": [{"method": "online-bcc", "vertices": ["ql", "qr"],
                              "config": None}],
                 "config": None, "max_workers": 3}
            ).encode()
            status, payload = raw_request(
                f"{gateway.url}/graphs/paper/search_many", method="POST", body=body
            )
            assert status == 400
            assert payload["code"] == "bad-request"
            client = GatewayClient(gateway.url, timeout_seconds=10.0)
            rows = client.search_many("paper", [OK_QUERY] * 2, max_workers=2)
            assert [row.status for row in rows] == [STATUS_OK, STATUS_OK]


class TestExplainEndpoint:
    def test_explain_reports_dispatch(self, client):
        report = client.explain("paper", Query("lp-bcc", ("ql", "qr")))
        assert report["method"]["name"] == "lp-bcc"
        assert report["resolved"]["left_label"] == "SE"

    def test_explain_caller_error_is_mapped(self, client):
        with pytest.raises(QueryError):
            client.explain("paper", Query("lp-bcc", ("ql", "zz")))


class TestBackpressure:
    def test_forced_429_with_retry_after(self, paper_directory):
        with Gateway(paper_directory, port=0, max_in_flight=2,
                     retry_after_seconds=7) as gateway:
            client = GatewayClient(gateway.url, timeout_seconds=10.0)
            # Deterministically exhaust both slots, then expect rejection.
            assert gateway.try_acquire() and gateway.try_acquire()
            try:
                with pytest.raises(GatewayOverloadedError) as failure:
                    client.search("paper", OK_QUERY)
                assert failure.value.retry_after_seconds == 7.0
                assert gateway.counters_snapshot()["rejections"] == 1
            finally:
                gateway.release()
                gateway.release()
            # Slots free again: the same request now succeeds.
            assert client.search("paper", OK_QUERY).status == STATUS_OK

    def test_get_endpoints_are_exempt_from_backpressure(self, paper_directory):
        with Gateway(paper_directory, port=0, max_in_flight=1) as gateway:
            client = GatewayClient(gateway.url, timeout_seconds=10.0)
            assert gateway.try_acquire()
            try:
                # Stats/health stay readable while serving is saturated.
                assert client.healthz()["in_flight"] == 1
                assert "paper" in client.stats()["graphs"]
            finally:
                gateway.release()

    def test_concurrent_overflow_is_rejected_not_queued(self, paper_directory):
        """Offered concurrency above the cap produces 429s, not a pile-up."""
        import repro.api.methods  # ensure built-ins registered before patching
        from repro.api.registry import get_method

        gate = threading.Event()
        spec = get_method("online-bcc")
        original_runner = spec.runner

        def slow_runner(engine, query, config, instrumentation):
            gate.wait(timeout=10.0)
            return original_runner(engine, query, config, instrumentation)

        object.__setattr__(spec, "runner", slow_runner)
        try:
            with Gateway(paper_directory, port=0, max_in_flight=1) as gateway:
                client = GatewayClient(gateway.url, timeout_seconds=15.0)
                outcomes = []

                def call():
                    try:
                        outcomes.append(client.search(
                            "paper", OK_QUERY, use_cache=False).status)
                    except GatewayOverloadedError:
                        outcomes.append("rejected")

                threads = [threading.Thread(target=call) for _ in range(4)]
                for thread in threads:
                    thread.start()
                # Let the slow query occupy the slot, then release it.
                import time
                time.sleep(0.3)
                gate.set()
                for thread in threads:
                    thread.join(timeout=15.0)
                assert "rejected" in outcomes          # backpressure engaged
                assert STATUS_OK in outcomes           # and real work finished
        finally:
            object.__setattr__(spec, "runner", original_runner)


class TestAccessLogs:
    def test_structured_json_lines_are_emitted(self, client, caplog):
        with caplog.at_level(logging.INFO, logger=ACCESS_LOGGER.name):
            client.search("paper", OK_QUERY)
            client.healthz()
        records = [json.loads(record.getMessage()) for record in caplog.records]
        posts = [r for r in records if r["method"] == "POST"]
        gets = [r for r in records if r["method"] == "GET"]
        assert posts and gets
        assert posts[0]["path"] == "/graphs/paper/search"
        assert posts[0]["status"] == 200
        assert posts[0]["duration_ms"] >= 0.0
        assert "in_flight" in posts[0]

    def test_line_lands_before_the_answer(self, client):
        """A handler that holds each record 0.5 s still has it stored by the
        time the client has read its answer."""
        import time

        class HeldHandler(logging.Handler):
            def __init__(self):
                super().__init__()
                self.lines = []

            def emit(self, record):
                time.sleep(0.5)
                self.lines.append(json.loads(record.getMessage()))

        held = HeldHandler()
        level = ACCESS_LOGGER.level
        ACCESS_LOGGER.addHandler(held)
        ACCESS_LOGGER.setLevel(logging.INFO)
        try:
            client.healthz()
            assert [line["path"] for line in held.lines] == ["/healthz"]
            client.search("paper", OK_QUERY)
            assert [line["path"] for line in held.lines] == [
                "/healthz", "/graphs/paper/search",
            ]
        finally:
            ACCESS_LOGGER.removeHandler(held)
            ACCESS_LOGGER.setLevel(level)
        # The search's line is written while it still holds its slot.
        assert held.lines[1]["in_flight"] >= 1


class TestLifecycle:
    def test_context_manager_binds_ephemeral_port_and_stops(self, paper_directory):
        with Gateway(paper_directory, port=0) as gateway:
            port = gateway.port
            assert port != 0
            assert GatewayClient(gateway.url).healthz()["status"] == "ok"
        # After stop, the port no longer answers.
        from repro.server import GatewayError
        with pytest.raises(GatewayError):
            GatewayClient(f"http://127.0.0.1:{port}", timeout_seconds=0.5).healthz()

    def test_double_start_is_refused(self, paper_directory):
        gateway = Gateway(paper_directory, port=0).start()
        try:
            with pytest.raises(RuntimeError):
                gateway.start()
        finally:
            gateway.stop()

    def test_invalid_construction(self, paper_directory):
        with pytest.raises(ValueError):
            Gateway(paper_directory, max_in_flight=0)

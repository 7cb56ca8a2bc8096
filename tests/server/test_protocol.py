"""Wire codec: exact round-trips, JSON-safety, the reason→HTTP table."""

from __future__ import annotations

import json
import math

import pytest

import repro.exceptions as exceptions_module
from repro.api import BatchQuery, Query, SearchConfig, SearchResponse
from repro.api.query import STATUS_EMPTY, STATUS_ERROR, STATUS_OK
from repro.core.path_weight import PathWeightConfig
from repro.exceptions import (
    HTTP_STATUS_BY_REASON,
    REASON_CODES,
    REASON_CROSS_SHARD,
    REASON_INVALID_QUERY,
    REASON_MISSING_VERTEX,
    REASON_UNKNOWN_METHOD,
    http_status_for_response,
)
from repro.server.protocol import (
    ProtocolError,
    decode_batch,
    decode_config,
    decode_float,
    decode_query,
    decode_response,
    encode_batch,
    encode_config,
    encode_float,
    encode_query,
    encode_response,
    json_dumps,
    json_loads,
    jsonable,
)


def strict_loads(text: str) -> object:
    """json.loads with parse_constant raising — the acceptance criterion's
    proof that nothing non-standard (Infinity/NaN) is ever emitted."""

    def reject(name: str):
        raise AssertionError(f"non-standard JSON constant emitted: {name}")

    return json.loads(text, parse_constant=reject)


class TestFloats:
    def test_infinities_ride_as_strings(self):
        assert encode_float(math.inf) == "inf"
        assert encode_float(-math.inf) == "-inf"
        assert decode_float("inf") == math.inf
        assert decode_float("-inf") == -math.inf

    def test_finite_floats_pass_through(self):
        assert encode_float(1.5) == 1.5
        assert decode_float(1.5) == 1.5
        assert decode_float(3) == 3.0

    def test_nan_is_refused(self):
        with pytest.raises(ProtocolError):
            encode_float(math.nan)

    def test_decode_rejects_non_floats(self):
        for bad in ("infinity", None, True, [1.0]):
            with pytest.raises(ProtocolError):
                decode_float(bad)

    def test_json_dumps_refuses_raw_infinity(self):
        with pytest.raises(ProtocolError):
            json_dumps({"distance": math.inf})

    def test_json_loads_rejects_nonstandard_constants(self):
        for text in ("Infinity", "-Infinity", "NaN", '{"x": Infinity}'):
            with pytest.raises(ProtocolError):
                json_loads(text)

    def test_json_loads_rejects_malformed_json(self):
        with pytest.raises(ProtocolError):
            json_loads("{not json")


class TestConfigRoundTrip:
    def test_none_stays_none(self):
        assert encode_config(None) is None
        assert decode_config(None) is None

    def test_default_config_round_trips(self):
        config = SearchConfig()
        assert decode_config(json.loads(json_dumps(encode_config(config)))) == config

    def test_fully_custom_config_round_trips(self):
        config = SearchConfig(
            k1=2,
            k2=5,
            k=3,
            b=2,
            bulk_deletion=False,
            rho=4,
            max_iterations=77,
            eta=9,
            path_config=PathWeightConfig(gamma1=0.25, gamma2=1.75),
            core_parameters=(2, 3, 4),
            size_budget=11,
            shrink_rounds=2,
        )
        restored = decode_config(strict_loads(json_dumps(encode_config(config))))
        assert restored == config
        assert restored.core_parameters == (2, 3, 4)  # tuple, not list
        assert restored.cache_key() == config.cache_key()

    # "backend" is what a protocol-version-1 peer still sends.
    @pytest.mark.parametrize("field", ["warp_speed", "backend"])
    def test_unknown_fields_mean_schema_skew(self, field):
        payload = encode_config(SearchConfig())
        payload[field] = "auto"
        with pytest.raises(ProtocolError):
            decode_config(payload)

    def test_invalid_values_are_protocol_errors(self):
        payload = encode_config(SearchConfig())
        payload["b"] = -1
        with pytest.raises(ProtocolError):
            decode_config(payload)


class TestQueryRoundTrip:
    def test_plain_query(self):
        query = Query("lp-bcc", ("alice", "bob"))
        assert decode_query(strict_loads(json_dumps(encode_query(query)))) == query

    def test_query_with_config_and_int_vertices(self):
        query = Query("mbcc", (1, 2, 3), config=SearchConfig(b=2, k=4))
        restored = decode_query(json.loads(json_dumps(encode_query(query))))
        assert restored == query
        assert restored.vertices == (1, 2, 3)  # ints stay ints

    def test_non_scalar_vertices_are_refused(self):
        query = Query("lp-bcc", (("a", "b"), "c"))
        with pytest.raises(ProtocolError):
            encode_query(query)

    def test_malformed_payloads_are_refused(self):
        for payload in (None, [], {"method": 7, "vertices": ["a"]},
                        {"method": "lp-bcc", "vertices": "ab"},
                        {"method": "lp-bcc", "vertices": []}):
            with pytest.raises(ProtocolError):
                decode_query(payload)

    def test_batch_round_trips_with_shared_config(self):
        batch = BatchQuery(
            queries=(Query("lp-bcc", ("a", "b")), Query("ctc", ("c", "d"))),
            config=SearchConfig(k=2),
        )
        restored = decode_batch(strict_loads(json_dumps(encode_batch(batch))))
        assert restored == batch

    def test_encode_batch_accepts_plain_iterables(self):
        payload = encode_batch([Query("lp-bcc", ("a", "b"))])
        assert decode_batch(payload).queries[0].method == "lp-bcc"

    def test_codec_hooks_on_the_query_types(self):
        query = Query("lp-bcc", ("a", "b"), config=SearchConfig(rho=3))
        assert Query.from_payload(query.to_payload()) == query
        batch = BatchQuery(queries=(query,))
        assert BatchQuery.from_payload(batch.to_payload()) == batch


def make_response(status: str, reason=None, **overrides) -> SearchResponse:
    fields = dict(
        method="lp-bcc",
        query=("a", "b"),
        status=status,
        reason=reason,
        timings={"total_seconds": 0.25, "index_build_seconds": 0.0,
                 "query_seconds": 0.25},
    )
    fields.update(overrides)
    return SearchResponse(**fields)


class _FakeResult:
    """Stands in for a method-native result object on the encode side."""

    def __init__(self, vertices, iterations, query_distance):
        self.vertices = vertices
        self.iterations = iterations
        self.query_distance = query_distance


class TestResponseRoundTrip:
    def test_ok_response_round_trips_every_observable_field(self):
        result = _FakeResult({"a", "b", "x"}, iterations=4, query_distance=1.5)
        response = make_response(STATUS_OK, result=result,
                                 vertices={"a", "b", "x"})
        restored = decode_response(strict_loads(json_dumps(encode_response(response))))
        assert restored.status == STATUS_OK
        assert restored.vertices == {"a", "b", "x"}
        assert restored.iterations == 4
        assert restored.query_distance == 1.5
        assert restored.timings == response.timings
        assert restored.found

    def test_empty_response_restores_inf_distance_exactly(self):
        response = make_response(STATUS_EMPTY, reason=REASON_CROSS_SHARD)
        text = json_dumps(encode_response(response))
        assert "Infinity" not in text
        restored = decode_response(strict_loads(text))
        assert restored.query_distance == math.inf
        assert math.isinf(restored.query_distance)
        assert restored.reason == REASON_CROSS_SHARD
        assert restored.vertices == set()
        assert restored.iterations == 0

    def test_error_response_keeps_message_and_reason(self):
        response = make_response(
            STATUS_ERROR,
            reason=REASON_MISSING_VERTEX,
            error="vertex 'zz' is not in the graph",
        )
        restored = decode_response(json.loads(json_dumps(encode_response(response))))
        assert restored.status == STATUS_ERROR
        assert restored.error == "vertex 'zz' is not in the graph"
        assert restored.reason == REASON_MISSING_VERTEX
        assert restored.query_distance == math.inf

    @pytest.mark.parametrize("status", [STATUS_OK, STATUS_EMPTY, STATUS_ERROR])
    @pytest.mark.parametrize("reason", REASON_CODES)
    def test_every_status_reason_combination_round_trips(self, status, reason):
        overrides = {}
        if status == STATUS_OK:
            overrides = dict(result=_FakeResult({"v"}, 1, 0.0), vertices={"v"})
            reason = None
        response = make_response(status, reason=reason, **overrides)
        restored = decode_response(strict_loads(json_dumps(encode_response(response))))
        assert restored.status == status
        assert restored.reason == reason
        assert restored.query_distance == response.query_distance

    def test_codec_hooks_on_search_response(self):
        response = make_response(STATUS_EMPTY, reason=REASON_CROSS_SHARD)
        restored = SearchResponse.from_payload(response.to_payload())
        assert restored.status == response.status
        assert restored.query_distance == math.inf

    def test_mixed_vertex_types_encode_deterministically(self):
        result = _FakeResult({1, "a", 2, "b"}, 1, 0.0)
        response = make_response(STATUS_OK, result=result,
                                 vertices={1, "a", 2, "b"})
        payload = encode_response(response)
        assert payload["vertices"] == encode_response(response)["vertices"]
        assert decode_response(payload).vertices == {1, "a", 2, "b"}

    def test_unknown_status_is_refused(self):
        payload = encode_response(make_response(STATUS_EMPTY, reason=None))
        payload["status"] = "maybe"
        with pytest.raises(ProtocolError):
            decode_response(payload)

    def test_missing_fields_are_refused(self):
        payload = encode_response(make_response(STATUS_EMPTY, reason=None))
        del payload["timings"]
        with pytest.raises(ProtocolError):
            decode_response(payload)


class TestJsonable:
    def test_containers_floats_and_objects(self):
        view = jsonable(
            {
                "tuple": (1, 2),
                "set": {"b", "a"},
                "inf": math.inf,
                ("non", "str", "key"): "value",
                "obj": PathWeightConfig(),
            }
        )
        assert view["tuple"] == [1, 2]
        assert view["set"] == ["a", "b"]
        assert view["inf"] == "inf"
        assert "('non', 'str', 'key')" in view
        assert isinstance(view["obj"], str)
        json.dumps(view)  # the whole view is JSON-serializable


class TestReasonHttpMapping:
    def test_every_registered_reason_code_has_a_mapping(self):
        """Exhaustiveness: a new REASON_* constant must be mapped."""
        registered = {
            value
            for name, value in vars(exceptions_module).items()
            if name.startswith("REASON_") and isinstance(value, str)
        }
        assert registered == set(REASON_CODES)
        assert set(HTTP_STATUS_BY_REASON) == registered

    def test_mapping_values_are_the_specified_ones(self):
        assert HTTP_STATUS_BY_REASON[REASON_MISSING_VERTEX] == 404
        assert HTTP_STATUS_BY_REASON[REASON_UNKNOWN_METHOD] == 400
        assert HTTP_STATUS_BY_REASON[REASON_INVALID_QUERY] == 400
        assert HTTP_STATUS_BY_REASON[REASON_CROSS_SHARD] == 200

    def test_only_error_rows_consult_the_table(self):
        # Empty answers are successful searches: 200 whatever the reason.
        assert http_status_for_response("ok") == 200
        assert http_status_for_response("empty", REASON_MISSING_VERTEX) == 200
        assert http_status_for_response("empty", REASON_CROSS_SHARD) == 200
        assert http_status_for_response("error", REASON_MISSING_VERTEX) == 404
        assert http_status_for_response("error", REASON_INVALID_QUERY) == 400
        # Unknown error reasons default to a caller error, never a success.
        assert http_status_for_response("error", "someday-new-reason") == 400

    def test_round_trip_strictness_proves_standard_json(self):
        """The satellite's exact claim: json.loads(json.dumps(payload))
        round-trips with parse_constant raising on Infinity/NaN."""
        response = make_response(STATUS_EMPTY, reason=REASON_CROSS_SHARD)
        payload = encode_response(response)
        assert strict_loads(json.dumps(payload)) == payload


class TestFaultToleranceWireFields:
    def test_deadline_ms_round_trips_in_configs(self):
        config = SearchConfig(k1=4, k2=3, deadline_ms=250.0)
        restored = decode_config(json_loads(json_dumps(encode_config(config))))
        assert restored == config
        assert restored.deadline_ms == 250.0

    def test_degraded_flag_round_trips(self):
        response = SearchResponse(
            method="lp-bcc",
            query=("a", "b"),
            status=STATUS_OK,
            vertices={"a", "b"},
            degraded=True,
        )
        restored = decode_response(json_loads(json_dumps(encode_response(response))))
        assert restored.degraded is True

    def test_degraded_default_keeps_payloads_byte_identical(self):
        # Back-compat: a non-degraded response encodes without the field,
        # and decoding an old payload (no "degraded" key) restores False.
        response = SearchResponse(
            method="lp-bcc", query=("a", "b"), status=STATUS_OK, vertices={"a"}
        )
        payload = encode_response(response)
        assert "degraded" not in payload
        assert decode_response(payload).degraded is False

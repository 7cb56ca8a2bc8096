"""Metrics registry tests: manifest coverage, collection, exposition."""

from __future__ import annotations

import re

from repro.api.engine import ENGINE_COUNTER_NAMES
from repro.obs.metrics import (
    EXPORTED_COUNTERS,
    MetricsRegistry,
    REGISTRY_COUNTER_NAMES,
    Sample,
    counter_samples,
)
from repro.obs.slowlog import SLOWLOG_COUNTER_NAMES
from repro.obs.tracing import TRACER_COUNTER_NAMES
from repro.parallel.pool import POOL_COUNTER_NAMES
from repro.serving.stats import LatencyHistogram
from repro.store.store import STORE_COUNTER_NAMES

#: One exposition line: ``name{labels} value`` or ``name value``.
EXPOSITION_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"  # optional label set
    r" -?[0-9]"  # a numeric value follows
)


def assert_valid_exposition(text: str) -> None:
    """Every line is a comment or a well-formed sample row."""
    assert text.endswith("\n")
    for line in text.rstrip("\n").splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert EXPOSITION_LINE.match(line), f"malformed exposition line: {line!r}"


# ----------------------------------------------------------------------
# the manifest
# ----------------------------------------------------------------------
class TestExportedCounters:
    def test_manifest_covers_every_live_counter_name_tuple(self):
        declared = set(EXPORTED_COUNTERS)
        for names in (
            ENGINE_COUNTER_NAMES,
            POOL_COUNTER_NAMES,
            STORE_COUNTER_NAMES,
            TRACER_COUNTER_NAMES,
            SLOWLOG_COUNTER_NAMES,
            REGISTRY_COUNTER_NAMES,
        ):
            missing = set(names) - declared
            assert not missing, f"undeclared counters: {sorted(missing)}"

    def test_manifest_matches_what_the_checker_reads(self):
        # The BCC006 checker parses the assignment lexically; the live
        # frozenset and the parsed literal must be the same set.
        import ast
        import inspect

        import repro.obs.metrics as metrics_mod
        from repro.analysis.checkers.metrics_coverage import declared_counters

        tree = ast.parse(inspect.getsource(metrics_mod))
        assert declared_counters(tree) == EXPORTED_COUNTERS


# ----------------------------------------------------------------------
# counter_samples
# ----------------------------------------------------------------------
class TestCounterSamples:
    def test_names_values_and_labels(self):
        samples = counter_samples(
            "engine",
            {"searches": 3, "hits": 0},
            labels={"graph": "paper"},
            help="engine counters",
        )
        assert [s.name for s in samples] == [
            "bcc_engine_hits_total",
            "bcc_engine_searches_total",
        ]
        by_name = {s.name: s for s in samples}
        assert by_name["bcc_engine_searches_total"].value == 3.0
        assert by_name["bcc_engine_searches_total"].labels == (
            ("graph", "paper"),
        )
        assert all(s.kind == "counter" for s in samples)

    def test_non_numeric_and_bool_values_are_skipped(self):
        samples = counter_samples(
            "pool", {"alive": True, "pid": 123, "state": "up"}
        )
        assert [s.name for s in samples] == ["bcc_pool_pid_total"]

    def test_hostile_key_is_sanitized(self):
        (sample,) = counter_samples("x", {"bad key!": 1})
        assert sample.name == "bcc_x_bad_key__total"


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_sources_collect_in_registration_order(self):
        registry = MetricsRegistry()
        registry.register_source("b", lambda: [Sample(name="bcc_from_b")])
        registry.register_source(
            "a", lambda: counter_samples("layer_a", {"ticks": 2})
        )
        names = [s.name for s in registry.collect()]
        assert names.index("bcc_from_b") < names.index(
            "bcc_layer_a_ticks_total"
        )
        assert registry.sources() == ["b", "a"]

    def test_registering_an_id_again_replaces_the_source(self):
        registry = MetricsRegistry()
        registry.register_source("layer", lambda: [Sample(name="bcc_old")])
        registry.register_source("layer", lambda: [Sample(name="bcc_new")])
        names = [s.name for s in registry.collect()]
        assert "bcc_new" in names and "bcc_old" not in names
        assert registry.sources() == ["layer"]

    def test_raising_source_is_skipped_and_counted(self):
        registry = MetricsRegistry()
        registry.register_source("good", lambda: [Sample(name="bcc_good")])

        def broken():
            raise RuntimeError("snapshot exploded")

        registry.register_source("broken", broken)
        names = [s.name for s in registry.collect()]
        assert "bcc_good" in names  # one bad source never hides the rest
        assert registry.counters_snapshot() == {"scrapes": 1, "source_errors": 1}
        registry.collect()
        assert registry.counters_snapshot() == {"scrapes": 2, "source_errors": 2}

    def test_snapshot_is_a_summary_not_the_samples(self):
        registry = MetricsRegistry()
        registry.register_source(
            "layer", lambda: counter_samples("layer", {"ticks": 1})
        )
        snapshot = registry.snapshot()
        assert snapshot["sources"] == ["layer"]
        assert snapshot["series"] == len(snapshot["names"]) == 3
        assert snapshot["names"] == sorted(snapshot["names"])
        assert snapshot["counters"]["scrapes"] == 1


# ----------------------------------------------------------------------
# text exposition
# ----------------------------------------------------------------------
def render(*samples):
    """The exposition of ``samples`` fed through one source."""
    registry = MetricsRegistry()
    registry.register_source("test", lambda: list(samples))
    return registry.render_prometheus()


class TestPrometheusRendering:
    def test_help_type_and_value_lines(self):
        text = render(
            Sample(name="bcc_test_ops_total", value=1.0, help="operations\nserved")
        )
        assert "# HELP bcc_test_ops_total operations\\nserved" in text
        assert "# TYPE bcc_test_ops_total counter" in text
        assert "\nbcc_test_ops_total 1\n" in text
        assert_valid_exposition(text)

    def test_label_values_are_escaped(self):
        text = render(
            Sample(
                name="bcc_test_depth",
                value=1.0,
                labels=(("graph", 'pa"per\\x'),),
                kind="gauge",
            )
        )
        assert 'bcc_test_depth{graph="pa\\"per\\\\x"} 1' in text

    def test_histogram_buckets_are_cumulated_with_inf(self):
        histogram = LatencyHistogram()
        # 50 s is past the top bound (10 s), so it lands in the overflow bucket
        for seconds in (0.05, 0.5, 50.0):
            histogram.observe(seconds)
        text = render(
            Sample(
                name="bcc_test_latency_seconds",
                kind="histogram",
                histogram=histogram.snapshot(),
            )
        )
        # per-bucket counts 1/1/1 cumulate to 1/2/3
        assert 'bcc_test_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'bcc_test_latency_seconds_bucket{le="1"} 2' in text
        assert 'bcc_test_latency_seconds_bucket{le="10"} 2' in text
        assert 'bcc_test_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "bcc_test_latency_seconds_sum 50.55" in text
        assert "bcc_test_latency_seconds_count 3" in text
        assert_valid_exposition(text)

    def test_registry_self_counters_are_exposed(self):
        text = MetricsRegistry().render_prometheus()
        assert "bcc_obs_registry_scrapes_total 1" in text
        assert "bcc_obs_registry_source_errors_total 0" in text

"""The unified metrics registry and its Prometheus text exposition.

Every layer of the serving stack keeps ad-hoc counters behind leaf locks
(``counters_snapshot()``, pool worker blocks, store attach counters,
breaker ejections).  :class:`MetricsRegistry` unifies them without moving
them: a layer registers a **source** — a callable returning
:class:`Sample` rows built from its existing snapshot methods — and the
registry renders everything as Prometheus text format for ``GET /metrics``.
Because sources read the same snapshot methods ``/stats`` reads, the two
endpoints agree by construction.  Sources are the only way in: a
histogram arrives as a ``Sample(kind="histogram")`` row carrying a
:meth:`repro.serving.stats.LatencyHistogram.snapshot` payload, the way
the directory's ``bcc_graph_latency_seconds`` does.

:data:`EXPORTED_COUNTERS` is the machine-readable manifest of every
counter name the stack increments; the BCC006 analysis checker
(``repro.analysis.checkers.metrics_coverage``) statically verifies that
every ``_count("name")``-style bump anywhere in ``repro/`` names a
declared counter, so a future PR cannot add a counter that never reaches
``/metrics``.  ``tests/obs/test_metrics.py`` pins the manifest to the
live name tuples (``ENGINE_COUNTER_NAMES``, ``POOL_COUNTER_NAMES``, ...).

Exposition note: ``LatencyHistogram.snapshot()`` reports *per-bucket*
counts; Prometheus ``le`` buckets are *cumulative*, so the renderer
cumulates while emitting.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "EXPORTED_COUNTERS",
    "MetricsRegistry",
    "REGISTRY_COUNTER_NAMES",
    "Sample",
    "counter_samples",
]

#: Every counter name incremented anywhere in ``repro/`` — the manifest
#: the BCC006 checker reads (it must stay a pure literal).  Grouped by the
#: layer that owns the name; names shared across layers appear once.
EXPORTED_COUNTERS = frozenset(
    {
        # BCCEngine (repro/api/engine.py, ENGINE_COUNTER_NAMES)
        "prepare_calls",
        "csr_freezes",
        "index_builds",
        "group_builds",
        "searches",
        "invalidations",
        "result_cache_hits",
        "result_cache_misses",
        "result_cache_expirations",
        "result_cache_rejections",
        "result_cache_budget_evictions",
        "process_batches",
        "process_tasks",
        "process_fallbacks",
        "g0_memo_hits",
        "g0_memo_misses",
        # ShardedBCCEngine router (repro/serving/sharded.py)
        "partitions",
        "cross_shard_queries",
        "shard_engines_built",
        "shard_attaches",
        "shard_persists",
        "shard_evictions",
        # ProcessWorkerPool (repro/parallel/pool.py, POOL_COUNTER_NAMES)
        "batches",
        "tasks",
        "completed",
        "error_rows",
        "crashes",
        "respawns",
        "deadline_kills",
        "stale_results",
        # per-worker rows (pool _count_worker)
        "dispatched",
        "errors",
        # SnapshotStore (repro/store/store.py)
        "attaches",
        "builds",
        "persists",
        "mismatches",
        "invalid",
        # Gateway (repro/server/app.py)
        "requests",
        "rejections",
        "deadline_exceeded",
        "degraded",
        "unavailable",
        # ReplicaSet / ReplicaHealth (repro/server/replicas.py, resilience.py)
        "replicas",
        "failovers",
        "replica_failures",
        "ejections",
        "readmissions",
        # GatewayClient (repro/server/client.py)
        "retries",
        # Tracer (repro/obs/tracing.py)
        "traces_started",
        "traces_finished",
        "traces_retained",
        # SlowQueryLog (repro/obs/slowlog.py)
        "slow_offered",
        "slow_retained",
        "slow_evicted",
        # MetricsRegistry itself
        "scrapes",
        "source_errors",
    }
)

#: Registry-internal counter names, in reporting order.
REGISTRY_COUNTER_NAMES = ("scrapes", "source_errors")

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_BAD_CHAR = re.compile(r"[^a-zA-Z0-9_:]")

Labels = Tuple[Tuple[str, str], ...]


def _clean_name(name: str) -> str:
    """A valid Prometheus metric name (invalid characters -> ``_``)."""
    if _NAME_OK.match(name):
        return name
    cleaned = _BAD_CHAR.sub("_", str(name))
    if not cleaned or not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _labels_of(labels: Dict[str, object]) -> Labels:
    pairs = []
    for key in sorted(labels):
        label = key if _LABEL_OK.match(key) else _BAD_CHAR.sub("_", key)
        pairs.append((label, str(labels[key])))
    return tuple(pairs)


@dataclass(frozen=True)
class Sample:
    """One exposition row: a named value (or histogram) with labels."""

    name: str
    value: float = 0.0
    labels: Labels = ()
    kind: str = "counter"  # "counter" | "gauge" | "histogram"
    help: str = ""
    #: ``LatencyHistogram.snapshot()``-shaped payload for ``kind="histogram"``
    #: (per-bucket counts; the renderer cumulates for ``le``).
    histogram: Optional[Dict[str, object]] = field(default=None, compare=False)


def counter_samples(
    prefix: str,
    counters: Dict[str, object],
    labels: Optional[Dict[str, object]] = None,
    help: str = "",
) -> List[Sample]:
    """One counter sample per dict entry: ``bcc_<prefix>_<key>_total``."""
    label_pairs = _labels_of(labels or {})
    samples = []
    for key in sorted(counters):
        value = counters[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        samples.append(
            Sample(
                name=_clean_name(f"bcc_{prefix}_{key}_total"),
                value=float(value),
                labels=label_pairs,
                kind="counter",
                help=help,
            )
        )
    return samples


class MetricsRegistry:
    """Sample sources behind one ``collect()`` / text exposition.

    Locking: ``_sources`` and ``_counters`` only under ``_lock`` (leaf —
    supplier callables run *outside* the lock, so a slow snapshot never
    blocks registration).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sources: "OrderedDict[str, Callable[[], Iterable[Sample]]]" = (
            OrderedDict()
        )
        self._counters: Dict[str, int] = {
            name: 0 for name in REGISTRY_COUNTER_NAMES
        }

    # -- internal counters ---------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    def counters_snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    # -- sources ---------------------------------------------------------
    def register_source(
        self, source_id: str, supplier: Callable[[], Iterable[Sample]]
    ) -> None:
        """Register (or replace) a sample source under ``source_id``."""
        if not callable(supplier):
            raise TypeError("a metrics source must be callable")
        with self._lock:
            self._sources[source_id] = supplier

    def sources(self) -> List[str]:
        with self._lock:
            return list(self._sources)

    # -- collection ------------------------------------------------------
    def collect(self) -> List[Sample]:
        """Every source's samples, in registration order.

        A raising source is skipped (and counted in ``source_errors``) —
        one broken snapshot must not take down the whole ``/metrics``
        endpoint.  The registry's own counters are always appended.
        """
        self._count("scrapes")
        with self._lock:
            suppliers = list(self._sources.values())
        samples: List[Sample] = []
        for supplier in suppliers:
            try:
                rows = list(supplier())
            except Exception:
                self._count("source_errors")
                continue
            samples.extend(row for row in rows if isinstance(row, Sample))
        samples.extend(
            counter_samples(
                "obs_registry",
                self.counters_snapshot(),
                help="metrics registry self-counters",
            )
        )
        return samples

    def snapshot(self) -> Dict[str, object]:
        """The ``/stats`` ``metrics`` block: a summary, not the samples."""
        samples = self.collect()
        names = sorted({sample.name for sample in samples})
        return {
            "sources": self.sources(),
            "series": len(samples),
            "names": names,
            "counters": self.counters_snapshot(),
        }

    def render_prometheus(self) -> str:
        """The ``GET /metrics`` body (Prometheus text exposition 0.0.4)."""
        samples = self.collect()
        by_name: "OrderedDict[str, List[Sample]]" = OrderedDict()
        for sample in samples:
            by_name.setdefault(sample.name, []).append(sample)
        lines: List[str] = []
        for name, rows in by_name.items():
            first = rows[0]
            if first.help:
                lines.append(f"# HELP {name} {_escape_help(first.help)}")
            lines.append(f"# TYPE {name} {first.kind}")
            for row in rows:
                if row.kind == "histogram" and row.histogram is not None:
                    _render_histogram(lines, name, row)
                else:
                    lines.append(
                        f"{name}{_render_labels(row.labels)} "
                        f"{_format_value(row.value)}"
                    )
        return "\n".join(lines) + "\n"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Labels, extra: Labels = ()) -> str:
    pairs = tuple(labels) + tuple(extra)
    if not pairs:
        return ""
    body = ",".join(f'{key}="{_escape_label(value)}"' for key, value in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: object) -> str:
    if bound == "inf":
        return "+Inf"
    return _format_value(float(bound))  # type: ignore[arg-type]


def _render_histogram(lines: List[str], name: str, row: Sample) -> None:
    """Emit ``_bucket``/``_sum``/``_count`` rows with cumulative ``le``.

    The snapshot's buckets carry per-bucket counts (the JSON ``/stats``
    shape); Prometheus ``le`` buckets are cumulative, hence the running
    total here.
    """
    snapshot = row.histogram or {}
    running = 0
    for bucket in snapshot.get("buckets", ()):
        running += int(bucket.get("count", 0))
        le = _format_bound(bucket.get("le"))
        lines.append(
            f"{name}_bucket"
            f"{_render_labels(row.labels, (('le', le),))} {running}"
        )
    lines.append(
        f"{name}_sum{_render_labels(row.labels)} "
        f"{_format_value(float(snapshot.get('sum_seconds', 0.0)))}"
    )
    lines.append(
        f"{name}_count{_render_labels(row.labels)} "
        f"{int(snapshot.get('count', 0))}"
    )

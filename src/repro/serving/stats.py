"""Serving statistics: latency histograms and the stats-endpoint payload.

Operators of a long-lived serving process ask three questions: *is the
cache working* (hit rates), *did laziness hold* (which shards actually paid
freeze/index cost), and *what does latency look like* (a histogram, not an
average).  :class:`ServingStats` answers all three with one JSON-serializable
snapshot — the payload a ``/stats`` endpoint would return — which every
host builds in its own ``stats(name)`` from its lock-protected counters
and cache info.  Latency has one owner: :class:`repro.serving.GraphDirectory`
keeps one :class:`LatencyHistogram` per served graph at its edge; hosts
keep none.

Nothing here blocks serving: snapshots copy under short leaf locks, and the
histogram's ``observe`` is a counter bump under its own lock.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.engine import ENGINE_COUNTER_NAMES

#: Version stamp of the stats-endpoint payload schema
#: (``GraphDirectory.stats_payload`` / ``GET /stats``).  Bump when a field
#: is renamed or removed; adding fields is backward compatible.  Version 2
#: added the top-level ``trace`` and ``metrics`` observability blocks.
STATS_SCHEMA_VERSION = 2

#: Half-decade log-scaled bucket upper bounds (seconds): 100µs .. 10s, plus
#: an implicit overflow bucket.  Community searches on the evaluation
#: networks span exactly this range — cache hits land in the first buckets,
#: cold index builds in the last.
LATENCY_BOUNDS: Tuple[float, ...] = (
    0.0001,
    0.000316,
    0.001,
    0.00316,
    0.01,
    0.0316,
    0.1,
    0.316,
    1.0,
    3.16,
    10.0,
)


class LatencyHistogram:
    """A fixed-bucket latency histogram safe to fill from serving threads.

    Buckets are the :data:`LATENCY_BOUNDS` upper bounds (Prometheus ``le``
    idiom) with a final overflow bucket.  Quantiles are estimated as the
    upper bound of the bucket containing the quantile rank — deliberately
    conservative (never under-reports) and cheap enough for a per-request
    hot path.
    """

    def __init__(self) -> None:
        self._counts: List[int] = [0] * (len(LATENCY_BOUNDS) + 1)  # + overflow
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Record one request latency."""
        if seconds < 0:
            seconds = 0.0
        index = bisect_left(LATENCY_BOUNDS, seconds)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += seconds
            if seconds > self._max:
                self._max = seconds

    def _quantile_upper_bound(
        self, counts: List[int], rank: float, observed_max: float
    ) -> float:
        """Upper bound of the bucket holding the ``rank``-quantile sample.

        ``observed_max`` is the caller's already-snapshotted maximum — this
        runs outside the lock, so it must not touch live counter state.
        """
        target = rank * sum(counts)
        running = 0
        for index, count in enumerate(counts):
            running += count
            if running >= target and count:
                if index < len(LATENCY_BOUNDS):
                    return LATENCY_BOUNDS[index]
                return observed_max  # overflow bucket: the observed max
        return 0.0

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable copy: bucket counts plus derived summaries."""
        with self._lock:
            counts = list(self._counts)
            count = self._count
            total = self._sum
            observed_max = self._max
        buckets = [
            {"le": bound, "count": counts[index]}
            for index, bound in enumerate(LATENCY_BOUNDS)
        ]
        buckets.append({"le": "inf", "count": counts[-1]})
        snapshot: Dict[str, object] = {
            "count": count,
            "sum_seconds": total,
            "mean_seconds": (total / count) if count else None,
            "max_seconds": observed_max if count else None,
            "buckets": buckets,
        }
        for name, rank in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            snapshot[f"{name}_seconds"] = (
                self._quantile_upper_bound(counts, rank, observed_max)
                if count
                else None
            )
        return snapshot


def zero_engine_counters() -> Dict[str, int]:
    """An all-zero engine counter dict (for shards that never did work)."""
    return {name: 0 for name in ENGINE_COUNTER_NAMES}


def graph_shape(graph) -> Dict[str, int]:
    """A served graph's ``graph`` block: vertices, edges and version."""
    return {
        "vertices": graph.num_vertices(),
        "edges": graph.num_edges(),
        "version": graph.version(),
    }


def aggregate_counters(parts: Sequence[Dict[str, int]]) -> Dict[str, int]:
    """Sum counter dicts key-wise (missing keys count as zero)."""
    total: Dict[str, int] = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


@dataclass(frozen=True)
class ServingStats:
    """The stats-endpoint payload for one served graph.

    Every host reports one through its own ``stats(name)``:
    :class:`repro.api.BCCEngine` (``kind="monolithic"``),
    :class:`repro.serving.ShardedBCCEngine` (``"sharded"``),
    :class:`repro.server.ReplicaSet` (``"replicated"``) and
    :class:`repro.parallel.ProcessEngine` (``"process"``).  A composite
    nests each member's own report through :meth:`member_block`.

    ``counters`` aggregates engine counters across every shard (for a
    monolithic engine it *is* the engine's counters) merged with the
    serving-layer counters (``searches``, ``cross_shard_queries``,
    ``partitions``, ...).  ``shards`` carries one block per shard —
    including never-built shards, whose counters are explicitly all-zero:
    that is the laziness proof a test or an operator reads off the
    endpoint.  A replica set carries one ``replicas`` block per replica
    (routed counts, in-flight gauge, health and the member's own block).

    A host's own snapshot carries an empty ``latency``: hosts keep no
    latency.  :meth:`repro.serving.GraphDirectory.stats` fills it from
    the one histogram the directory keeps per served graph — one
    observation per ``serve`` / ``serve_many`` call, whatever the host.
    """

    name: str
    kind: str  # "monolithic" | "sharded" | "replicated" | "process"
    graph: Dict[str, int]
    counters: Dict[str, int]
    cache: Dict[str, object]
    latency: Dict[str, object] = field(
        default_factory=lambda: LatencyHistogram().snapshot()
    )
    shards: Tuple[Dict[str, object], ...] = ()
    replicas: Tuple[Dict[str, object], ...] = ()
    #: Whether one engine serves the whole graph prepared and indexed;
    #: ``None`` for sharded and replicated hosts (their blocks say it).
    prepared: Optional[bool] = None
    index_built: Optional[bool] = None
    #: Replica-set health summary (``state``/``available``/``states``);
    #: ``None`` for engines without health tracking.
    health: Optional[Dict[str, object]] = None
    #: Persistent-store block (attach mode, resident/evicted shard counts);
    #: ``None`` for engines serving without a snapshot store.
    store: Optional[Dict[str, object]] = None
    #: Process-backend worker-pool block (pool size, dispatch counters,
    #: one row per worker process with pid / liveness / crash counts and
    #: its last piggybacked engine counters); ``None`` when no pool is
    #: live — serving never blocks on a busy worker to report this.
    workers: Optional[Dict[str, object]] = None

    def member_block(self) -> Dict[str, object]:
        """This report as a shard or replica block of a composite's payload.

        A sharded host's block counts its shards instead of listing them.
        """
        block: Dict[str, object] = {
            "counters": dict(self.counters),
            "cache": dict(self.cache),
        }
        if self.prepared is not None:
            block["prepared"] = self.prepared
        if self.index_built is not None:
            block["index_built"] = self.index_built
        if self.kind == "sharded":
            block["shards"] = len(self.shards)
        if self.workers is not None:
            block["workers"] = dict(self.workers)
        return block

    def shard(self, shard_id: int) -> Dict[str, object]:
        """The stats block of one shard (raises IndexError when absent)."""
        for block in self.shards:
            if block.get("shard") == shard_id:
                return block
        raise IndexError(f"no shard {shard_id} in stats for {self.name!r}")

    def to_dict(self) -> Dict[str, object]:
        """The JSON-serializable endpoint payload."""
        payload: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "graph": dict(self.graph),
            "latency": dict(self.latency),
            **self.member_block(),
        }
        if self.kind == "sharded":  # the shard blocks, not their count
            payload["shards"] = [dict(block) for block in self.shards]
        if self.kind == "replicated":
            payload["replicas"] = [dict(block) for block in self.replicas]
        if self.health is not None:
            payload["health"] = dict(self.health)
        if self.store is not None:
            payload["store"] = dict(self.store)
        return payload

    def to_json(self, indent: Optional[int] = None) -> str:
        """The payload as a JSON document (the endpoint body)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

"""Serving statistics: latency histograms and the stats-endpoint payload.

Operators of a long-lived serving process ask three questions: *is the
cache working* (hit rates), *did laziness hold* (which shards actually paid
freeze/index cost), and *what does latency look like* (a histogram, not an
average).  :class:`ServingStats` answers all three with one JSON-serializable
snapshot — the payload a ``/stats`` endpoint would return — assembled from
the lock-protected engine counters (:meth:`BCCEngine.counters_snapshot`),
the result-cache info and a :class:`LatencyHistogram`.  Latency has one
owner: :class:`repro.serving.GraphDirectory` keeps one histogram per
served graph at its edge; engines keep none.

Nothing here blocks serving: snapshots copy under short leaf locks, and the
histogram's ``observe`` is a counter bump under its own lock.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.engine import ENGINE_COUNTER_NAMES, BCCEngine

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


def aggregate_counters(parts: Sequence[Dict[str, int]]) -> Dict[str, int]:
    """Sum counter dicts key-wise (missing keys count as zero)."""
    total: Dict[str, int] = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


def engine_payload(engine: BCCEngine) -> Dict[str, object]:
    """One engine's stats block: graph shape, counters, cache info."""
    return {
        "vertices": engine.graph.num_vertices(),
        "edges": engine.graph.num_edges(),
        "prepared": engine.is_prepared(),
        "index_built": engine.has_index(),
        "counters": engine.counters_snapshot(),
        "cache": engine.result_cache_info(),
    }


@dataclass(frozen=True)
class ServingStats:
    """The stats-endpoint payload for one served graph.

    ``counters`` aggregates engine counters across every shard (for a
    monolithic engine it *is* the engine's counters) merged with the
    serving-layer counters (``searches``, ``cross_shard_queries``,
    ``partitions``, ...).  ``shards`` carries one block per shard —
    including never-built shards, whose counters are explicitly all-zero:
    that is the laziness proof a test or an operator reads off the
    endpoint.  A replicated engine (:class:`repro.server.ReplicaSet`)
    reports ``kind="replicated"`` with one ``replicas`` block per replica
    (routed counts, in-flight gauge, per-replica engine counters).

    An engine's own snapshot carries an empty ``latency``: engines keep
    no latency.  :meth:`repro.serving.GraphDirectory.stats` fills it from
    the one histogram the directory keeps per served graph — one
    observation per ``serve`` / ``serve_many`` call, whatever the host.
    """

    name: str
    kind: str  # "sharded" | "monolithic" | "replicated"
    graph: Dict[str, int]
    counters: Dict[str, int]
    cache: Dict[str, object]
    latency: Dict[str, object] = field(
        default_factory=lambda: LatencyHistogram().snapshot()
    )
    shards: Tuple[Dict[str, object], ...] = ()
    replicas: Tuple[Dict[str, object], ...] = ()
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

    @classmethod
    def from_engine(cls, engine: BCCEngine, name: str = "engine") -> "ServingStats":
        """Snapshot a monolithic :class:`BCCEngine`.

        (Sharded engines build their own snapshot — see
        :meth:`repro.serving.sharded.ShardedBCCEngine.stats`.)
        """
        payload = engine_payload(engine)
        pool_stats = getattr(engine, "process_pool_stats", None)
        return cls(
            name=name,
            kind="monolithic",
            graph={
                "vertices": payload["vertices"],
                "edges": payload["edges"],
                "version": engine.graph.version(),
            },
            counters=payload["counters"],
            cache=payload["cache"],
            workers=pool_stats() if pool_stats is not None else None,
        )

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
            "counters": dict(self.counters),
            "cache": dict(self.cache),
            "latency": dict(self.latency),
        }
        if self.kind == "sharded":
            payload["shards"] = [dict(block) for block in self.shards]
        if self.kind == "replicated":
            payload["replicas"] = [dict(block) for block in self.replicas]
        if self.health is not None:
            payload["health"] = dict(self.health)
        if self.store is not None:
            payload["store"] = dict(self.store)
        if self.workers is not None:
            payload["workers"] = dict(self.workers)
        return payload

    def to_json(self, indent: Optional[int] = None) -> str:
        """The payload as a JSON document (the endpoint body)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

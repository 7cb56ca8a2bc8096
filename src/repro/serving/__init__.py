"""Sharded multi-graph serving layer above :mod:`repro.api`.

This package is the process-level serving tier the ROADMAP's north star
asks for: many graphs, many shards, one uniform ``Query`` /
``SearchResponse`` surface.

* :class:`ShardedBCCEngine` — one :class:`repro.api.BCCEngine` per
  connected component behind a vertex→shard routing table; shards prepare
  lazily, cross-component queries short-circuit to ``status="empty"`` with
  ``reason="cross-shard"``, and ``search_many`` scatter-gathers with the
  monolithic engine's exact batch semantics.
* :class:`GraphDirectory` — named engines (sharded or monolithic) wired to
  the dataset registry, so any registered network is servable by name; it
  is the one place a served request's latency is recorded.
* :class:`ServingStats` / :class:`LatencyHistogram` — the JSON-serializable
  "stats endpoint" payload: per-shard counters, cache hit rates and the
  directory's one latency histogram per served graph.
* :mod:`repro.serving.policies` — cache admission policies (TTL expiry,
  per-method size budgets) layered onto the engine's LRU result cache.
"""

from repro.serving.directory import GraphDirectory
from repro.serving.policies import (
    CacheAdmissionPolicy,
    CompositePolicy,
    MethodBudgetPolicy,
    TTLPolicy,
)
from repro.serving.sharded import ShardedBCCEngine
from repro.serving.stats import LatencyHistogram, ServingStats

__all__ = [
    "CacheAdmissionPolicy",
    "CompositePolicy",
    "GraphDirectory",
    "LatencyHistogram",
    "MethodBudgetPolicy",
    "ServingStats",
    "ShardedBCCEngine",
    "TTLPolicy",
]

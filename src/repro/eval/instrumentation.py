"""Per-search instrumentation counters.

Exp-5 (Table 4) of the paper breaks a search down into the time spent on
query-distance calculation, the time spent updating leader-pair butterfly
degrees, and the number of times the full butterfly-counting procedure
(Algorithm 3) is invoked.  :class:`SearchInstrumentation` collects exactly
those quantities; every search algorithm accepts an optional instance and
records into it, so the benchmark harness can reproduce the table without
touching algorithm internals.  A served search records into a fresh
instance, which its response carries beside its wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator


@dataclass
class SearchInstrumentation:
    """Counters and timers collected during one community search.

    ``iterations`` counts the greedy deletion steps, and ``vertices_deleted``
    the ids removed by the steps that kept a valid community.  A step of
    Online-, LP- or L2P-BCC that fails (its cascade peeled a query vertex,
    or a check of Def. 4 failed) ends the search and adds no deletions, so
    the count does not depend on the order a backend peels in.
    """

    butterfly_counting_calls: int = 0
    query_distance_seconds: float = 0.0
    leader_update_seconds: float = 0.0
    iterations: int = 0
    vertices_deleted: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_butterfly_counting(self, calls: int = 1) -> None:
        """Record that Algorithm 3 ran ``calls`` more times."""
        self.butterfly_counting_calls += calls

    def record_iteration(self, deleted: int = 0) -> None:
        """Record one peeling iteration that removed ``deleted`` vertices."""
        self.iterations += 1
        self.vertices_deleted += deleted

    def add(self, key: str, value: float) -> None:
        """Accumulate ``value`` into the free-form counter ``key``."""
        self.extra[key] = self.extra.get(key, 0.0) + value

    @contextmanager
    def time_query_distance(self) -> Iterator[None]:
        """Context manager accumulating wall time into query-distance seconds."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.query_distance_seconds += time.perf_counter() - start

    @contextmanager
    def time_leader_update(self) -> Iterator[None]:
        """Context manager accumulating wall time into leader-update seconds."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.leader_update_seconds += time.perf_counter() - start

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, float]:
        """Return a flat dictionary of all counters (for reporting)."""
        payload: Dict[str, float] = {
            "butterfly_counting_calls": float(self.butterfly_counting_calls),
            "query_distance_seconds": self.query_distance_seconds,
            "leader_update_seconds": self.leader_update_seconds,
            "iterations": float(self.iterations),
            "vertices_deleted": float(self.vertices_deleted),
        }
        payload.update(self.extra)
        return payload

    def reset(self) -> None:
        """Zero every counter."""
        self.butterfly_counting_calls = 0
        self.query_distance_seconds = 0.0
        self.leader_update_seconds = 0.0
        self.iterations = 0
        self.vertices_deleted = 0
        self.extra.clear()

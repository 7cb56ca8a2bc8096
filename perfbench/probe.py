"""Host-speed probe and probe normalization.

On a small shared VM a fixed pure-Python loop can take 60% longer from one
minute to the next.  Every timed value of this benchmark is therefore
divided by host-speed probes taken whenever nothing is in flight, and
multiplied by a fixed reference probe time::

    normalized = raw * REFERENCE_PROBE_SECONDS / mean(probes around the operation)

The probes around an operation are the ``PROBE_WINDOW`` readings taken just
before it and the ``PROBE_WINDOW`` taken just after it.  Units stay seconds
(milliseconds in the report) at the reference host speed, and a uniform
slowdown of the host cancels out.  Raw wall-clock values are kept beside
the normalized ones in the run record.

The probe is a fixed BFS plus set and dict traffic over a small built-in
graph: the same kind of interpreter work as the search kernels (hash
lookups, set membership, integer compares).  One probe point runs it
``PROBE_REPEATS`` times and keeps the fastest repeat, so a single
preemption of the load generator does not read as a slow host.

Every probe reads both cores of the host at once: a :class:`ProbePartner`
process runs the same probe while the load generator runs its own, and the
reading is the mean of the two.  A neighbour stealing one core then shows
in the reading even when the load generator's own core is free, which
matters most where the workload keeps both cores busy (the gateway process
beside its clients, two pool workers).

Run as ``python3 perfbench/probe.py --serve`` this module is that partner:
it answers each ``probe`` line on stdin with one reading on stdout.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Probe reading on the reference host, a 2-vCPU x86-64 VM running
#: CPython 3.11, between its slow (~0.6 ms) and fast (~0.35 ms) states.
REFERENCE_PROBE_SECONDS = 0.00045

#: Repeats per probe point; the fastest one is the reading.
PROBE_REPEATS = 2

#: Readings taken on each side of an operation that its normalization
#: averages: one reading alone is noisy at the ~10% level, host drift is
#: slower than a few probe intervals.
PROBE_WINDOW = 2

_PROBE_VERTICES = 240


def _probe_graph() -> Dict[int, List[int]]:
    """A fixed sparse graph: a ring plus deterministic chords."""
    adjacency: Dict[int, List[int]] = {v: [] for v in range(_PROBE_VERTICES)}
    for v in range(_PROBE_VERTICES):
        for step in (1, 7, 31):
            w = (v * 13 + step * 17) % _PROBE_VERTICES
            if w != v and w not in adjacency[v]:
                adjacency[v].append(w)
                adjacency[w].append(v)
    return adjacency


_PROBE_ADJACENCY = _probe_graph()


def probe_work() -> int:
    """The fixed unit of interpreter work the probe times (returns a checksum)."""
    adjacency = _PROBE_ADJACENCY
    checksum = 0
    for source in range(0, _PROBE_VERTICES, 60):
        distance = {source: 0}
        queue = deque([source])
        while queue:
            vertex = queue.popleft()
            next_distance = distance[vertex] + 1
            for neighbor in adjacency[vertex]:
                if neighbor not in distance:
                    distance[neighbor] = next_distance
                    queue.append(neighbor)
        far = {v for v, d in distance.items() if d >= 3}
        checksum += len(far) + max(distance.values())
    return checksum


def fastest(clock: Callable[[], float] = time.perf_counter, probe_fn: Callable[[], object] = probe_work) -> float:
    """The fastest of ``PROBE_REPEATS`` timed runs of ``probe_fn``."""
    best = None
    for _ in range(PROBE_REPEATS):
        start = clock()
        probe_fn()
        elapsed = clock() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


class ProbePartner:
    """A second process that takes a probe reading on request."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, __file__, "--serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def start(self) -> None:
        self.process.stdin.write("probe\n")
        self.process.stdin.flush()

    def result(self) -> float:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("probe partner exited")
        return float(line)

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Timeline:
    """Operation timings interleaved with host-speed probes, on one clock.

    Call :meth:`probe` whenever nothing is in flight and :meth:`record`
    after each timed operation; every operation is normalized by the mean
    of the ``PROBE_WINDOW`` probes taken before it and the ``PROBE_WINDOW``
    taken after it.  The clock and the probe routine are injectable so the
    normalization can be tested with a fake clock.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        probe_fn: Callable[[], object] = probe_work,
        reference_seconds: float = REFERENCE_PROBE_SECONDS,
        partner: Optional[ProbePartner] = None,
    ) -> None:
        self.clock = clock
        self._probe_fn = probe_fn
        self.reference_seconds = reference_seconds
        self._partner = partner
        self.probes: List[float] = []
        # (kind, raw seconds, index of the probe taken before it)
        self._ops: List[Tuple[str, float, int]] = []

    def probe(self) -> float:
        """Take one probe reading (fastest of ``PROBE_REPEATS`` runs, both
        cores when a partner is attached)."""
        if self._partner is not None:
            self._partner.start()
        reading = fastest(self.clock, self._probe_fn)
        if self._partner is not None:
            reading = (reading + self._partner.result()) / 2.0
        self.probes.append(reading)
        return reading

    def record(self, kind: str, raw_seconds: float) -> None:
        """Record one operation of ``kind`` that took ``raw_seconds``."""
        if not self.probes:
            raise RuntimeError("take a probe before the first operation")
        self._ops.append((kind, raw_seconds, len(self.probes) - 1))

    def time(self, kind: str, fn: Callable[[], object]) -> object:
        """Run ``fn``, record its duration under ``kind`` and return its value."""
        start = self.clock()
        value = fn()
        self.record(kind, self.clock() - start)
        return value

    def _factor(self, before: int) -> float:
        low = max(0, before + 1 - PROBE_WINDOW)
        around = self.probes[low:before + 1 + PROBE_WINDOW]
        return self.reference_seconds * len(around) / sum(around)

    def raw(self, kind: str) -> List[float]:
        """Raw seconds of every operation of ``kind``, in order."""
        return [raw for k, raw, _ in self._ops if k == kind]

    def normalized(self, kind: str) -> List[float]:
        """Probe-normalized seconds of every operation of ``kind``, in order."""
        return [
            raw * self._factor(before)
            for k, raw, before in self._ops
            if k == kind
        ]

    def count(self, kind: str) -> int:
        return sum(1 for k, _, _ in self._ops if k == kind)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per kind: count and normalized/raw quantiles in milliseconds."""
        table = {}
        for kind in dict.fromkeys(k for k, _, _ in self._ops):
            normalized = self.normalized(kind)
            raw = self.raw(kind)
            table[kind] = {
                "count": len(raw),
                "p10_ms": percentile(normalized, 0.1) * 1e3,
                "p50_ms": percentile(normalized, 0.5) * 1e3,
                "p90_ms": percentile(normalized, 0.9) * 1e3,
                "p99_ms": percentile(normalized, 0.99) * 1e3,
                "raw_p50_ms": percentile(raw, 0.5) * 1e3,
                "raw_p99_ms": percentile(raw, 0.99) * 1e3,
            }
        return table

    def probe_summary(self) -> Dict[str, float]:
        """Median, min and max probe reading in milliseconds."""
        if not self.probes:
            return {"count": 0}
        return {
            "count": len(self.probes),
            "median_ms": statistics.median(self.probes) * 1e3,
            "min_ms": min(self.probes) * 1e3,
            "max_ms": max(self.probes) * 1e3,
            "reference_ms": self.reference_seconds * 1e3,
        }


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _serve() -> int:
    for line in sys.stdin:
        if line.strip() == "probe":
            sys.stdout.write(f"{fastest()!r}\n")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        sys.exit(_serve())

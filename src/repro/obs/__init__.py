"""End-to-end observability: tracing, metrics, and slow-query capture.

Three pieces, one bundle:

* :mod:`repro.obs.tracing` — request-scoped span trees riding
  contextvars (off by default, near-zero cost when off);
* :mod:`repro.obs.metrics` — a unified :class:`MetricsRegistry` every
  ad-hoc counter registers into, rendered as Prometheus text at
  ``GET /metrics``;
* :mod:`repro.obs.slowlog` — a bounded ring buffer of traces that
  crossed a threshold, dumped at ``GET /debug/slow`` and pretty-printed
  by ``python -m repro.obs``.

:class:`Observability` wires the three together.  A
:class:`~repro.serving.directory.GraphDirectory` builds one by default
(metrics always scrapeable; tracing stays off until
``directory.observability.tracer.enable()``), and the HTTP gateway
adopts its directory's bundle so ``/metrics``, ``/debug/slow`` and the
``/stats`` ``trace``/``metrics`` blocks all read the same state.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.obs.metrics import (
    EXPORTED_COUNTERS,
    MetricsRegistry,
    Sample,
    counter_samples,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracing import (
    Span,
    Trace,
    Tracer,
    current_span,
    current_trace,
    format_trace,
    span,
)

__all__ = [
    "EXPORTED_COUNTERS",
    "MetricsRegistry",
    "Observability",
    "Sample",
    "SlowQueryLog",
    "Span",
    "Trace",
    "Tracer",
    "counter_samples",
    "current_span",
    "current_trace",
    "format_trace",
    "span",
]

#: Default slow-query threshold (ms) and ring capacity.
DEFAULT_SLOW_THRESHOLD_MS = 100.0
DEFAULT_SLOW_CAPACITY = 64


class Observability:
    """One process's observability bundle: tracer + registry + slow log.

    ``trace=False`` (the default) keeps tracing off; the registry is
    always live — registering sources costs nothing until scraped.
    """

    def __init__(
        self,
        *,
        trace: bool = False,
        slow_threshold_ms: float = DEFAULT_SLOW_THRESHOLD_MS,
        slow_capacity: int = DEFAULT_SLOW_CAPACITY,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.slow_log = SlowQueryLog(
            threshold_ms=slow_threshold_ms, capacity=slow_capacity
        )
        self.tracer = Tracer(enabled=trace, clock=clock, slow_log=self.slow_log)
        self.registry = MetricsRegistry()
        self.registry.register_source("obs", self._samples)

    # -- stats blocks ----------------------------------------------------
    def trace_block(self) -> Dict[str, object]:
        """The ``/stats`` ``trace`` block."""
        return {
            "enabled": self.tracer.enabled,
            "slow_threshold_ms": self.slow_log.threshold_ms,
            "slow_capacity": self.slow_log.capacity,
            "slow_retained": len(self.slow_log),
            "counters": {
                **self.tracer.counters_snapshot(),
                **self.slow_log.counters_snapshot(),
            },
        }

    def metrics_block(self) -> Dict[str, object]:
        """The ``/stats`` ``metrics`` block."""
        return self.registry.snapshot()

    # -- own metrics source ---------------------------------------------
    def _samples(self):
        samples = counter_samples(
            "obs_tracer",
            self.tracer.counters_snapshot(),
            help="request tracer counters",
        )
        samples.extend(
            counter_samples(
                "obs_slowlog",
                self.slow_log.counters_snapshot(),
                help="slow-query log counters",
            )
        )
        samples.append(
            Sample(
                name="bcc_obs_slowlog_retained",
                value=float(len(self.slow_log)),
                kind="gauge",
                help="traces currently retained in the slow-query ring",
            )
        )
        samples.append(
            Sample(
                name="bcc_obs_tracing_enabled",
                value=1.0 if self.tracer.enabled else 0.0,
                kind="gauge",
                help="1 when request tracing is enabled",
            )
        )
        return samples

"""Replica health tracking, circuit breaking and retry backoff.

Three small, clock-injectable primitives the fault-tolerant serving path is
assembled from:

* :class:`HealthPolicy` / :class:`ReplicaHealth` — a per-replica health
  tracker with half-open circuit-breaker semantics.  Consecutive non-caller
  failures (or a latency EWMA above a configured ceiling) **eject** the
  replica; after ``ejection_seconds`` the breaker admits exactly one
  **probe** query, whose outcome either **re-admits** the replica or
  re-ejects it for another window.  All transitions run on an injected
  monotonic clock, so chaos tests drive ejection and re-admission with a
  fake clock instead of sleeping.
* :class:`RetryPolicy` — bounded retries with exponential backoff and *full
  jitter* (delay drawn uniformly from ``[0, min(cap, base·mult^attempt)]``),
  the schedule deterministic for a seeded RNG.  Used by
  :class:`repro.server.GatewayClient`.
* :func:`run_with_deadline` — run a callable under a wall-clock budget,
  raising :class:`~repro.exceptions.DeadlineExceededError` once it is
  spent.  The call runs inline under a :mod:`repro.deadline` token whose
  checkpoints stop the kernel, so the caller gets its answer (an error row
  / 504) on time and no work outlives it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

# Defined next to within_deadline (its primary consumer, which must not
# depend on the server package); re-exported here as part of the
# resilience surface.
from repro.api.engine import run_with_deadline

__all__ = [
    "HEALTH_DOWN",
    "HEALTH_OK",
    "HEALTH_PROBING",
    "HealthPolicy",
    "ReplicaHealth",
    "RetryPolicy",
    "run_with_deadline",
]

#: Replica health states (also the wire spellings in stats payloads).
HEALTH_OK = "ok"
HEALTH_DOWN = "ejected"
HEALTH_PROBING = "probing"


@dataclass(frozen=True)
class HealthPolicy:
    """When to eject a replica and when to probe it again.

    Parameters
    ----------
    failure_threshold:
        Consecutive non-caller failures that open the circuit.
    ejection_seconds:
        How long an ejected replica sits out before one probe is admitted.
    latency_alpha:
        Smoothing factor of the per-replica latency EWMA
        (``ewma = alpha·sample + (1-alpha)·ewma``).
    latency_threshold_seconds:
        Optional latency ceiling: once at least ``latency_min_samples``
        served queries have been observed, an EWMA above this ejects the
        replica even though every call "succeeded" — a replica that answers
        in 30s is down in every way that matters.  ``None`` disables the
        latency trigger.
    latency_min_samples:
        Minimum observations before the latency trigger may fire (protects
        against ejecting on one cold-start outlier).
    """

    failure_threshold: int = 3
    ejection_seconds: float = 30.0
    latency_alpha: float = 0.2
    latency_threshold_seconds: Optional[float] = None
    latency_min_samples: int = 10

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.ejection_seconds < 0:
            raise ValueError("ejection_seconds must be non-negative")
        if not 0.0 < self.latency_alpha <= 1.0:
            raise ValueError("latency_alpha must be within (0, 1]")
        if (
            self.latency_threshold_seconds is not None
            and self.latency_threshold_seconds <= 0
        ):
            raise ValueError("latency_threshold_seconds must be positive or None")
        if self.latency_min_samples < 1:
            raise ValueError("latency_min_samples must be >= 1")


class ReplicaHealth:
    """Health state of one replica: a half-open circuit breaker plus EWMA.

    Thread-safe; every transition happens under the instance lock.  The
    router asks :meth:`try_admit` before dispatching (which atomically
    claims the single probe slot of a half-open breaker), then reports the
    outcome with :meth:`record_success` / :meth:`record_failure` /
    :meth:`record_neutral` (caller errors: the replica is fine, the query
    was not — no health verdict either way).
    """

    def __init__(
        self,
        policy: Optional[HealthPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy if policy is not None else HealthPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = HEALTH_OK
        self._consecutive_failures = 0
        self._ejected_until = 0.0
        self._probe_in_flight = False
        self._ewma: Optional[float] = None
        self._samples = 0
        self._failures = 0
        self._ejections = 0
        self._readmissions = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def try_admit(self) -> bool:
        """Whether the router may dispatch one query here *right now*.

        Ejected replicas refuse until the ejection window elapses; then the
        breaker goes half-open and admits exactly one probe at a time (the
        claim is atomic — concurrent routers cannot both probe).
        """
        with self._lock:
            if self._state == HEALTH_OK:
                return True
            if self._state == HEALTH_DOWN:
                if self._clock() < self._ejected_until:
                    return False
                self._state = HEALTH_PROBING
                self._probe_in_flight = True
                return True
            # probing: one probe at a time
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True

    def peek_available(self) -> bool:
        """Like :meth:`try_admit` but side-effect free (for health reports)."""
        with self._lock:
            if self._state == HEALTH_OK:
                return True
            if self._state == HEALTH_DOWN:
                return self._clock() >= self._ejected_until
            return not self._probe_in_flight

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    def record_success(self, latency_seconds: float) -> None:
        """A served answer: closes a probing breaker, feeds the EWMA.

        The latency trigger can still eject here — a "successful" replica
        whose smoothed latency sits above the ceiling is serving too slowly
        to keep in rotation.
        """
        with self._lock:
            self._consecutive_failures = 0
            alpha = self.policy.latency_alpha
            self._ewma = (
                latency_seconds
                if self._ewma is None
                else alpha * latency_seconds + (1.0 - alpha) * self._ewma
            )
            self._samples += 1
            if self._state == HEALTH_PROBING:
                self._probe_in_flight = False
                self._state = HEALTH_OK
                self._readmissions += 1
            ceiling = self.policy.latency_threshold_seconds
            if (
                ceiling is not None
                and self._state == HEALTH_OK
                and self._samples >= self.policy.latency_min_samples
                and self._ewma > ceiling
            ):
                self._eject_locked()

    def record_failure(self) -> None:
        """A non-caller failure: trips or re-opens the breaker."""
        with self._lock:
            self._failures += 1
            self._consecutive_failures += 1
            if self._state == HEALTH_PROBING:
                # The probe failed: straight back to ejected for another
                # window (no threshold — a probing replica has no credit).
                self._probe_in_flight = False
                self._eject_locked()
            elif (
                self._state == HEALTH_OK
                and self._consecutive_failures >= self.policy.failure_threshold
            ):
                self._eject_locked()

    def record_neutral(self) -> None:
        """No verdict (caller error): releases a claimed probe slot only."""
        with self._lock:
            if self._state == HEALTH_PROBING:
                self._probe_in_flight = False

    def _eject_locked(self) -> None:
        self._state = HEALTH_DOWN
        self._ejected_until = self._clock() + self.policy.ejection_seconds
        self._ejections += 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def state(self) -> str:
        """``"ok"`` / ``"ejected"`` / ``"probing"``."""
        with self._lock:
            return self._state

    def snapshot(self) -> Dict[str, object]:
        """The JSON-serializable health block for stats payloads."""
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failures": self._failures,
                "ejections": self._ejections,
                "readmissions": self._readmissions,
                "latency_ewma_seconds": self._ewma,
                "observed": self._samples,
            }


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and full jitter.

    ``delay_seconds(attempt, rng)`` draws uniformly from ``[0, cap]`` where
    ``cap = min(max_delay, base·multiplier^attempt)`` — the "full jitter"
    scheme that decorrelates a thundering herd of retrying clients.  The
    schedule is a pure function of the RNG, so a seeded
    ``random.Random`` makes it assertable in tests.
    """

    max_attempts: int = 4
    base_delay_seconds: float = 0.05
    max_delay_seconds: float = 2.0
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_seconds < 0 or self.max_delay_seconds < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay_seconds(self, attempt: int, rng) -> float:
        """The jittered sleep before retry number ``attempt + 1``."""
        cap = min(
            self.max_delay_seconds,
            self.base_delay_seconds * (self.multiplier ** attempt),
        )
        return rng.uniform(0.0, cap)

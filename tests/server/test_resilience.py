"""ReplicaHealth breaker transitions, RetryPolicy schedules, deadlines.

Everything runs on fake clocks — no wall-clock sleeps anywhere.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.deadline import checkpoint
from repro.exceptions import DeadlineExceededError
from repro.server.resilience import (
    HEALTH_DOWN,
    HEALTH_OK,
    HEALTH_PROBING,
    HealthPolicy,
    ReplicaHealth,
    RetryPolicy,
    run_with_deadline,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_health(clock, **policy):
    policy.setdefault("failure_threshold", 3)
    policy.setdefault("ejection_seconds", 30.0)
    return ReplicaHealth(HealthPolicy(**policy), clock=clock)


class TestHealthPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            HealthPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            HealthPolicy(ejection_seconds=-1)
        with pytest.raises(ValueError):
            HealthPolicy(latency_alpha=0.0)
        with pytest.raises(ValueError):
            HealthPolicy(latency_threshold_seconds=0.0)
        with pytest.raises(ValueError):
            HealthPolicy(latency_min_samples=0)


class TestCircuitBreaker:
    def test_consecutive_failures_eject_at_threshold(self):
        clock = FakeClock()
        health = make_health(clock)
        health.record_failure()
        health.record_failure()
        assert health.state() == HEALTH_OK  # below threshold
        health.record_failure()
        assert health.state() == HEALTH_DOWN
        assert not health.try_admit()

    def test_success_resets_the_consecutive_count(self):
        clock = FakeClock()
        health = make_health(clock)
        health.record_failure()
        health.record_failure()
        health.record_success(0.01)
        health.record_failure()
        health.record_failure()
        assert health.state() == HEALTH_OK

    def test_ejection_window_then_single_probe(self):
        clock = FakeClock()
        health = make_health(clock)
        for _ in range(3):
            health.record_failure()
        clock.advance(29.9)
        assert not health.try_admit()  # window not yet elapsed
        clock.advance(0.2)
        assert health.try_admit()  # the probe
        assert health.state() == HEALTH_PROBING
        assert not health.try_admit()  # one probe at a time

    def test_probe_success_readmits(self):
        clock = FakeClock()
        health = make_health(clock)
        for _ in range(3):
            health.record_failure()
        clock.advance(31.0)
        assert health.try_admit()
        health.record_success(0.01)
        assert health.state() == HEALTH_OK
        assert health.try_admit()
        snapshot = health.snapshot()
        assert snapshot["ejections"] == 1
        assert snapshot["readmissions"] == 1

    def test_probe_failure_reejects_immediately(self):
        clock = FakeClock()
        health = make_health(clock)
        for _ in range(3):
            health.record_failure()
        clock.advance(31.0)
        assert health.try_admit()
        health.record_failure()  # probe failed: no threshold credit
        assert health.state() == HEALTH_DOWN
        assert not health.try_admit()
        clock.advance(31.0)
        assert health.try_admit()  # next window, next probe

    def test_neutral_releases_probe_slot_without_verdict(self):
        clock = FakeClock()
        health = make_health(clock)
        for _ in range(3):
            health.record_failure()
        clock.advance(31.0)
        assert health.try_admit()
        health.record_neutral()  # caller error during the probe
        assert health.state() == HEALTH_PROBING
        assert health.try_admit()  # slot free again for a real probe

    def test_peek_available_has_no_side_effects(self):
        clock = FakeClock()
        health = make_health(clock)
        for _ in range(3):
            health.record_failure()
        clock.advance(31.0)
        assert health.peek_available()
        assert health.state() == HEALTH_DOWN  # peek did not flip to probing
        assert health.try_admit()
        assert not health.peek_available()  # probe slot claimed
        assert health.state() == HEALTH_PROBING


class TestLatencyEjection:
    def test_slow_successes_eject_after_min_samples(self):
        clock = FakeClock()
        health = make_health(
            clock,
            latency_threshold_seconds=0.1,
            latency_min_samples=5,
            latency_alpha=1.0,  # EWMA == last sample, for exactness
        )
        for _ in range(4):
            health.record_success(5.0)
        assert health.state() == HEALTH_OK  # not enough samples yet
        health.record_success(5.0)
        assert health.state() == HEALTH_DOWN

    def test_fast_replica_never_trips_latency_trigger(self):
        clock = FakeClock()
        health = make_health(
            clock, latency_threshold_seconds=0.1, latency_min_samples=2
        )
        for _ in range(50):
            health.record_success(0.001)
        assert health.state() == HEALTH_OK

    def test_ewma_smooths_one_outlier(self):
        clock = FakeClock()
        health = make_health(
            clock,
            latency_threshold_seconds=1.0,
            latency_min_samples=2,
            latency_alpha=0.2,
        )
        for _ in range(10):
            health.record_success(0.01)
        health.record_success(4.0)  # one spike: ewma ≈ 0.2*4 = 0.8 < 1.0
        assert health.state() == HEALTH_OK


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_seconds=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_full_jitter_bounds_and_growth(self):
        policy = RetryPolicy(
            max_attempts=6,
            base_delay_seconds=0.1,
            max_delay_seconds=1.0,
            multiplier=2.0,
        )
        rng = random.Random(0)
        for attempt in range(6):
            cap = min(1.0, 0.1 * (2.0 ** attempt))
            for _ in range(20):
                delay = policy.delay_seconds(attempt, rng)
                assert 0.0 <= delay <= cap

    def test_seeded_schedule_is_deterministic(self):
        policy = RetryPolicy()
        first = [policy.delay_seconds(i, random.Random(3)) for i in range(4)]
        second = [policy.delay_seconds(i, random.Random(3)) for i in range(4)]
        assert first == second


class TestRunWithDeadline:
    def test_none_runs_inline(self):
        assert run_with_deadline(lambda: 42, None) == 42

    def test_fast_call_beats_its_deadline(self):
        assert run_with_deadline(lambda: "ok", 5.0) == "ok"

    def test_stalled_call_raises_within_budget(self):
        def stall():
            # A kernel that never finishes on its own: only its checkpoints
            # can stop it.
            while True:
                checkpoint()

        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError) as excinfo:
            run_with_deadline(stall, 0.05, what="stall")
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0  # stopped at a checkpoint, did not spin on
        assert excinfo.value.deadline_ms == pytest.approx(50.0)

    def test_late_answer_is_a_deadline_error(self):
        # A call that ran past its budget without reaching a checkpoint
        # still answers late: the clock decides.
        readings = iter([0.0, 2.0])
        with pytest.raises(DeadlineExceededError):
            run_with_deadline(lambda: "late", 1.0, clock=lambda: next(readings))

    def test_answer_within_budget_by_the_clock_returns(self):
        readings = iter([0.0, 0.5])
        assert run_with_deadline(lambda: "ok", 1.0, clock=lambda: next(readings)) == "ok"

    def test_worker_exceptions_reraise_in_caller(self):
        def boom():
            raise KeyError("inner")

        with pytest.raises(KeyError, match="inner"):
            run_with_deadline(boom, 5.0)

"""Probe normalization, tested on a fake clock."""

import pytest

from perfbench.probe import Timeline, percentile


class FakeHost:
    """A clock that advances only when simulated work runs, ``slowdown`` x slower."""

    def __init__(self, slowdown: float) -> None:
        self.slowdown = slowdown
        self.now = 0.0

    def clock(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds * self.slowdown


def _probed_ops(slowdown: float, drift=lambda index: 1.0):
    """Probes around operations of known reference cost on a (drifting) host."""
    host = FakeHost(slowdown)
    step = [0]
    timeline = Timeline(
        clock=host.clock,
        probe_fn=lambda: host.work(0.001 * drift(step[0])),
        reference_seconds=0.001,
    )
    for index, cost in enumerate((0.020, 0.005, 0.013, 0.040)):
        step[0] = index
        timeline.probe()
        timeline.time("op", lambda: host.work(cost * drift(index)))
    timeline.probe()
    return timeline


def test_uniform_slowdown_leaves_normalized_values_unchanged():
    fast = _probed_ops(1.0)
    slow = _probed_ops(2.0)
    assert slow.raw("op") == pytest.approx([2 * value for value in fast.raw("op")])
    assert slow.normalized("op") == pytest.approx(fast.normalized("op"))
    assert fast.normalized("op") == pytest.approx([0.020, 0.005, 0.013, 0.040])


def test_each_operation_uses_the_probes_around_it():
    # The host slows 3x for the third operation and the probe just before
    # it.  That operation is divided by the mean of the two probes on each
    # side of it (1, 3, 1 and 1 ms: 1.5x); the first operation's window
    # (1, 1 and 3 ms: 5/3x) sees the slowdown only through its far probe.
    drifting = _probed_ops(1.0, drift=lambda index: 3.0 if index == 2 else 1.0)
    normalized = drifting.normalized("op")
    assert drifting.raw("op")[2] == pytest.approx(0.039)
    assert normalized[2] == pytest.approx(0.039 / 1.5)
    assert normalized[0] == pytest.approx(0.020 * 3 / 5)


def test_probe_reading_is_the_fastest_repeat():
    readings = iter([0.004, 0.001, 0.002])
    host = FakeHost(1.0)
    timeline = Timeline(clock=host.clock, probe_fn=lambda: host.work(next(readings)))
    assert timeline.probe() == pytest.approx(0.001)  # PROBE_REPEATS == 2


def test_operations_need_a_probe_first():
    with pytest.raises(RuntimeError):
        Timeline().record("op", 0.1)


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 0.5) == 2.5
    assert percentile([5], 0.99) == 5

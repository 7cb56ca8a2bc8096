"""Self-time accounting of the per-layer ledger, on a fake clock."""

import threading
import types

import pytest

from perfbench.ledger import Ledger


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_calls_split_into_self_times():
    clock = Clock()
    ledger = Ledger(clock=clock)

    def inner():
        clock.now += 2.0

    wrapped_inner = ledger.timed(inner, "inner")

    def outer():
        clock.now += 1.0
        wrapped_inner()
        clock.now += 3.0

    ledger.timed(outer, "outer")()
    snapshot = ledger.snapshot()
    assert snapshot["self_seconds"] == {"outer": 4.0, "inner": 2.0}
    assert snapshot["inclusive_seconds"] == {"outer": 6.0, "inner": 2.0}


def test_an_absorbing_layer_keeps_absorbed_time():
    clock = Clock()
    ledger = Ledger(clock=clock)
    leaf = ledger.timed(lambda: setattr(clock, "now", clock.now + 5.0), "leaf")
    ledger.timed(leaf, "owner", absorbs=("leaf",))()
    leaf()
    assert ledger.snapshot()["self_seconds"] == {"owner": 5.0, "leaf": 5.0}


def test_deadline_wrapper_charges_only_its_own_overhead():
    clock = Clock()
    ledger = Ledger(clock=clock)

    def run_with_deadline(call, seconds, what="call"):
        clock.now += 0.5  # thread start and hand-off
        worker = threading.Thread(target=call)
        worker.start()
        worker.join(timeout=10)
        return "done"

    def call():
        clock.now += 7.0

    wrapped = ledger.deadline_timed(run_with_deadline, "deadline")
    assert wrapped(call, 1.0) == "done"
    assert ledger.snapshot()["self_seconds"]["deadline"] == pytest.approx(0.5)
    assert ledger.snapshot()["inclusive_seconds"]["deadline"] == pytest.approx(7.5)


def test_uninstall_restores_every_binding():
    def fn():
        return 1

    module = types.ModuleType("repro_fake_ledger_module")
    module.fn = fn
    module.alias = fn

    class Owner:
        def method(self):
            return 2

        @staticmethod
        def helper():
            return 3

    original_method = Owner.__dict__["method"]
    import sys

    sys.modules[module.__name__] = module
    try:
        ledger = Ledger()
        ledger.patch_function(fn, lambda f: ledger.counted(f, "fn"), modules=("repro_fake",))
        ledger.patch_method(Owner, "method", lambda f: ledger.timed(f, "method"))
        ledger.patch_method(Owner, "helper", lambda f: ledger.counted(f, "helper"))
        assert module.fn() + module.alias() == 2
        assert Owner().method() == 2 and Owner.helper() == 3
        assert ledger.counts == {"fn": 2, "helper": 1}
        ledger.uninstall()
        assert module.fn is fn and module.alias is fn
        assert Owner.__dict__["method"] is original_method
        assert isinstance(Owner.__dict__["helper"], staticmethod)
        assert Owner.helper() == 3 and ledger.counts["helper"] == 1
    finally:
        del sys.modules[module.__name__]

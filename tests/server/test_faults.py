"""FaultPlan / FaultRule semantics: deterministic, schedulable failure."""

from __future__ import annotations

import threading

import pytest

from repro.api import BCCEngine, Query, SearchConfig
from repro.api.engine import run_with_deadline
from repro.exceptions import DeadlineExceededError, QueryError
from repro.graph.generators import paper_example_graph
from repro.server.faults import FAULT_KINDS, FaultPlan, FaultRule, InjectedFault


def test_rule_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FaultRule("site", kind="melt")
    with pytest.raises(ValueError):
        FaultRule("site", after=-1)
    with pytest.raises(ValueError):
        FaultRule("site", count=-1)
    with pytest.raises(ValueError):
        FaultRule("site", delay_seconds=-0.1)
    with pytest.raises(ValueError):
        FaultRule("site", probability=1.5)


def test_empty_plan_is_inert():
    plan = FaultPlan()
    for _ in range(10):
        plan.on("engine.search", method="lp-bcc")
    assert plan.calls("engine.search") == 10
    assert plan.injected() == 0


def test_error_rule_fires_in_its_window_only():
    plan = FaultPlan([FaultRule("s", kind="error", after=2, count=2)])
    outcomes = []
    for _ in range(6):
        try:
            plan.on("s")
            outcomes.append("ok")
        except InjectedFault:
            outcomes.append("fault")
    # calls 3 and 4 (0-indexed positions 2 and 3) fault, nothing else
    assert outcomes == ["ok", "ok", "fault", "fault", "ok", "ok"]
    assert plan.injected(0) == 2


def test_where_match_targets_one_replica_only():
    plan = FaultPlan([FaultRule("replica.search", where={"replica": 1})])
    plan.on("replica.search", replica=0)  # no match, no fault
    with pytest.raises(InjectedFault) as excinfo:
        plan.on("replica.search", replica=1)
    assert excinfo.value.site == "replica.search"
    plan.on("replica.search", replica=2)
    assert plan.injected() == 1


def test_first_matching_rule_wins():
    plan = FaultPlan(
        [
            FaultRule("s", kind="delay", delay_seconds=0.5),
            FaultRule("s", kind="error"),
        ],
        sleep=lambda _s: None,
    )
    # The delay rule matches first, so no error is raised.
    plan.on("s")
    assert plan.injected(0) == 1
    assert plan.injected(1) == 0


def test_delay_and_stall_use_injected_sleep():
    slept = []
    plan = FaultPlan(
        [
            FaultRule("a", kind="delay", delay_seconds=0.25),
            FaultRule("b", kind="stall", delay_seconds=60.0),
        ],
        sleep=slept.append,
    )
    plan.on("a")
    plan.on("b")
    assert slept == [0.25, 60.0]
    assert "stall" in FAULT_KINDS


def test_error_rule_can_model_a_slow_failure():
    slept = []
    plan = FaultPlan(
        [FaultRule("s", kind="error", delay_seconds=0.1, message="boom")],
        sleep=slept.append,
    )
    with pytest.raises(InjectedFault, match="boom"):
        plan.on("s")
    assert slept == [0.1]


@pytest.mark.parametrize("kind", ["delay", "stall"])
def test_stall_under_a_deadline_sleeps_only_the_budget_left(kind):
    now = [0.0]
    slept = []
    plan = FaultPlan(
        [FaultRule("s", kind=kind, delay_seconds=20.0)], sleep=slept.append
    )

    def stalled_call():
        now[0] = 0.1  # 100 ms of the 300 ms budget spent before the hook
        plan.on("s")

    with pytest.raises(DeadlineExceededError) as excinfo:
        run_with_deadline(stalled_call, 0.3, clock=lambda: now[0])
    assert slept == [pytest.approx(0.2)]
    assert excinfo.value.deadline_ms == pytest.approx(300.0)


def test_delay_within_the_budget_left_sleeps_in_full():
    slept = []
    plan = FaultPlan(
        [FaultRule("s", kind="delay", delay_seconds=0.25)], sleep=slept.append
    )
    assert run_with_deadline(lambda: plan.on("s"), 1.0, clock=lambda: 0.0) is None
    assert slept == [0.25]


def test_seeded_probability_schedule_is_reproducible():
    def schedule(seed: int):
        plan = FaultPlan([FaultRule("s", probability=0.5)], seed=seed)
        outcome = []
        for _ in range(32):
            try:
                plan.on("s")
                outcome.append(0)
            except InjectedFault:
                outcome.append(1)
        return outcome

    assert schedule(7) == schedule(7)
    assert 0 < sum(schedule(7)) < 32  # actually probabilistic
    assert schedule(7) != schedule(8)  # actually seed-driven


def test_counting_is_exact_under_concurrency():
    plan = FaultPlan([FaultRule("s", after=100, count=50)])
    faults = []

    def worker():
        for _ in range(50):
            try:
                plan.on("s")
            except InjectedFault:
                faults.append(1)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # 400 calls: positions 100..149 fault regardless of thread interleaving.
    assert plan.calls("s") == 400
    assert sum(faults) == 50


def test_injected_fault_is_not_a_caller_error():
    assert not issubclass(InjectedFault, QueryError)


def test_engine_hook_raises_on_schedule_and_snapshot_audits():
    engine = BCCEngine(
        paper_example_graph(),
        SearchConfig(k1=4, k2=3),
        fault_plan=FaultPlan(
            [FaultRule("engine.search", kind="error", after=1, count=1)]
        ),
    )
    query = Query("lp-bcc", ("ql", "qr"))
    first = engine.search(query)
    with pytest.raises(InjectedFault):
        engine.search(query, use_cache=False)
    third = engine.search(query, use_cache=False)
    assert first.status == third.status
    assert first.vertices == third.vertices
    audit = engine.fault_plan.snapshot()
    assert audit["sites"]["engine.search"] == 3
    assert audit["rules"][0]["injected"] == 1

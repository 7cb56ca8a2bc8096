"""Deterministic fault injection for the serving path.

Chaos testing a threaded serving stack with ``time.sleep`` and luck produces
flaky tests; this module makes failure *schedulable*.  A :class:`FaultPlan`
is a seeded list of :class:`FaultRule` s, each naming an injection **site**
(a stable string like ``"replica.search"``), an optional attribute match
(``replica=2``, ``endpoint="search"``), a call-count window (``after`` /
``count``) and a fault ``kind``:

* ``"error"``  — raise :class:`InjectedFault` (optionally after a delay);
* ``"delay"``  — sleep ``delay_seconds`` then proceed (a *late* answer);
* ``"stall"``  — alias of ``"delay"``, for rules whose intent is a hang a
  deadline must cut short rather than mere slowness.

Under a deadline (:mod:`repro.deadline`) a delay longer than the budget
left sleeps out only that budget and then raises
:class:`~repro.exceptions.DeadlineExceededError`, as a kernel's checkpoint
would; with no deadline it sleeps in full.

The serving layers expose one hook each and call
:meth:`FaultPlan.on` with their site name and matchable attributes:

==================  ======================================  =================
Site                Hooked in                               Attributes
==================  ======================================  =================
``engine.search``   :meth:`repro.api.BCCEngine.search`      method, vertices
``replica.search``  :meth:`repro.server.ReplicaSet.search`  replica, method,
                                                            vertices
``gateway.request``  the gateway POST handler               endpoint, graph
==================  ======================================  =================

Matching is counted per rule, so ``after=3, count=2`` fires on exactly the
4th and 5th matching call whatever threads deliver them; probabilistic
rules draw from the plan's own seeded RNG under the plan lock, so a given
seed always yields the same injection schedule for the same call sequence.
The injected ``sleep`` is swappable for a fake clock in tests.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.deadline import current_deadline
from repro.exceptions import DeadlineExceededError, ReproError

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
]

#: Recognized fault kinds (``"stall"`` behaves as ``"delay"``; the two names
#: document different intents — slowness vs. a hang a deadline must bound).
FAULT_KINDS = ("error", "delay", "stall")


class InjectedFault(ReproError):
    """The failure a :class:`FaultPlan` injects at a serving hook.

    Deliberately *not* a :class:`~repro.exceptions.QueryError`: an injected
    fault simulates infrastructure failing, so the resilience layer must
    treat it as a replica failure (health penalty, failover), never as a
    caller error.
    """

    def __init__(self, message: str, site: str = "") -> None:
        super().__init__(message)
        self.site = site


@dataclass
class FaultRule:
    """One scheduled fault.

    Parameters
    ----------
    site:
        The injection site this rule watches (e.g. ``"replica.search"``).
    kind:
        ``"error"`` / ``"delay"`` / ``"stall"`` (see module docs).
    where:
        Attribute equality match against the keyword arguments of
        :meth:`FaultPlan.on`; an empty mapping matches every call at the
        site.  ``where={"replica": 2}`` targets one replica only.
    after:
        Number of matching calls to let through before injecting.
    count:
        How many matching calls to inject into once active (``None`` =
        every one, forever).
    delay_seconds:
        Sleep applied by ``delay``/``stall`` rules — and by ``error`` rules
        before raising, to model a slow failure.  Under a deadline, at
        most the budget left is slept (see the module docs).
    probability:
        Chance of injecting once the window is active, drawn from the
        plan's seeded RNG (1.0 = deterministic).
    message:
        Optional text for the raised :class:`InjectedFault`.
    """

    site: str
    kind: str = "error"
    where: Dict[str, object] = field(default_factory=dict)
    after: int = 0
    count: Optional[int] = None
    delay_seconds: float = 0.0
    probability: float = 1.0
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.after < 0:
            raise ValueError("after must be non-negative")
        if self.count is not None and self.count < 0:
            raise ValueError("count must be non-negative or None")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")

    def matches(self, site: str, attrs: Dict[str, object]) -> bool:
        """Whether a hook call at ``site`` with ``attrs`` concerns this rule."""
        if site != self.site:
            return False
        return all(attrs.get(key) == value for key, value in self.where.items())


class FaultPlan:
    """A seeded, thread-safe schedule of injectable faults.

    Parameters
    ----------
    rules:
        The :class:`FaultRule` s to apply, in priority order — the first
        rule that decides to inject on a call wins.
    seed:
        Seed of the plan's private RNG (used only by probabilistic rules).
    sleep:
        The sleep used by ``delay``/``stall`` rules; swap in a fake for
        tests that assert schedules without wall-clock waits.

    A plan with no rules is inert and free to leave attached.
    """

    def __init__(
        self,
        rules: Iterable[FaultRule] = (),
        seed: int = 0,
        # Declared BCC002 seam: delay/stall faults should really stall a
        # live process under manual chaos; the deterministic suites pass
        # a recording fake instead.
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._rules: Tuple[FaultRule, ...] = tuple(rules)
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._site_calls: Dict[str, int] = {}
        self._matched: List[int] = [0] * len(self._rules)
        self._injected: List[int] = [0] * len(self._rules)

    @property
    def rules(self) -> Tuple[FaultRule, ...]:
        return self._rules

    # ------------------------------------------------------------------
    # the hook
    # ------------------------------------------------------------------
    def on(self, site: str, **attrs: object) -> None:
        """Invoked by a serving layer at an injection site.

        Decides under the plan lock (so counting and the RNG are
        deterministic), then sleeps/raises *outside* it — a stalling rule
        must never stall unrelated sites.
        """
        fire: Optional[Tuple[int, FaultRule]] = None
        with self._lock:
            self._site_calls[site] = self._site_calls.get(site, 0) + 1
            for index, rule in enumerate(self._rules):
                if not rule.matches(site, attrs):
                    continue
                position = self._matched[index]
                self._matched[index] += 1
                if position < rule.after:
                    continue
                if rule.count is not None and position >= rule.after + rule.count:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                self._injected[index] += 1
                fire = (index, rule)
                break
        if fire is None:
            return
        _, rule = fire
        if rule.delay_seconds > 0.0:
            deadline = current_deadline()
            left = None if deadline is None else deadline.remaining()
            if left is not None and left < rule.delay_seconds:
                # The stall outlasts the caller's budget: sleep out only the
                # budget, then expire the way a kernel's checkpoint would.
                self._sleep(max(0.0, left))
                raise DeadlineExceededError(deadline_ms=deadline.budget_ms)
            self._sleep(rule.delay_seconds)
        if rule.kind == "error":
            raise InjectedFault(
                rule.message
                or f"injected fault at {site} ({attrs or 'unconditional'})",
                site=site,
            )

    # ------------------------------------------------------------------
    # introspection (what actually happened, for assertions)
    # ------------------------------------------------------------------
    def calls(self, site: str) -> int:
        """How many hook calls ``site`` has seen."""
        with self._lock:
            return self._site_calls.get(site, 0)

    def injected(self, rule_index: Optional[int] = None) -> int:
        """Faults injected by one rule (or by the whole plan)."""
        with self._lock:
            if rule_index is not None:
                return self._injected[rule_index]
            return sum(self._injected)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable audit of the plan's activity so far."""
        with self._lock:
            return {
                "sites": dict(self._site_calls),
                "rules": [
                    {
                        "site": rule.site,
                        "kind": rule.kind,
                        "where": dict(rule.where),
                        "matched": self._matched[index],
                        "injected": self._injected[index],
                    }
                    for index, rule in enumerate(self._rules)
                ],
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan(rules={len(self._rules)}, injected={self.injected()})"

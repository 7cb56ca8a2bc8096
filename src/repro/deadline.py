"""Cooperative deadlines: a request's budget is a contextvar token.

:func:`repro.api.engine.run_with_deadline` bounds a call by setting a
:class:`Deadline` in the current context and running the call inline, on
the caller's own thread.  The kernels call :func:`checkpoint` at the head
of their per-query loops; once the token's clock passes its expiry, the
next checkpoint raises :class:`~repro.exceptions.DeadlineExceededError`
and the work stops there.  No thread is started, so none is abandoned to
keep burning CPU after its caller gave up (the style of Trio's cancel
scopes: N. J. Smith, "Timeouts and cancellation for humans", 2018).

* A bounded call inside a bounded request runs under whichever budget
  runs out first: ``run_with_deadline`` sets no token of its own when the
  outer one has no more than its budget left, so nested hosts (a shard
  engine, a replica) share the one budget of the call.
* The token carries the caller's ``clock`` seam, so tests drive
  checkpoints with fake clocks and nothing here reads wall time.
* Fill-once builds never check: the G0 memo entry, a BCindex pair's χ,
  the label split, the group coreness and ``prepare``.  A cancelled
  request therefore completes the shared work later requests read, which
  is why the checks sit at the per-query call sites of
  ``butterfly_degrees_between`` and ``core_numbers`` rather than inside
  those kernels, which the fills run too.
* A thread does not inherit contextvars: ``serve_batch`` runs each row in
  a copy of the caller's context, so batch rows see the request's token.

With no deadline set, :func:`checkpoint` costs one ``ContextVar.get``.
"""

from __future__ import annotations

import contextvars
from typing import Callable, Optional

from repro.exceptions import DeadlineExceededError

__all__ = [
    "Deadline",
    "checkpoint",
    "current_deadline",
    "reset_deadline",
    "set_deadline",
]


class Deadline:
    """One budget in force: its expiry on ``clock`` and the budget it came from."""

    __slots__ = ("expires", "budget_ms", "clock")

    def __init__(
        self, expires: float, budget_ms: float, clock: Callable[[], float]
    ) -> None:
        self.expires = expires
        self.budget_ms = budget_ms
        self.clock = clock

    def remaining(self) -> float:
        """Seconds left on the token's clock (negative once it has passed)."""
        return self.expires - self.clock()


_DEADLINE: "contextvars.ContextVar[Optional[Deadline]]" = contextvars.ContextVar(
    "repro_deadline", default=None
)
_current = _DEADLINE.get


def set_deadline(
    seconds: float, start: float, clock: Callable[[], float]
) -> contextvars.Token:
    """Bound this context at ``start + seconds`` on ``clock``.

    Returns the token :func:`reset_deadline` takes back.  Nesting is
    :func:`~repro.api.engine.run_with_deadline`'s rule: under an outer
    deadline with no more than ``seconds`` left it sets no token at all.
    """
    return _DEADLINE.set(Deadline(start + seconds, seconds * 1000.0, clock))


def reset_deadline(token: contextvars.Token) -> None:
    """Restore the deadline that was in force before :func:`set_deadline`."""
    _DEADLINE.reset(token)


def current_deadline() -> Optional[Deadline]:
    """The deadline in force in this context (``None``: unbounded)."""
    return _current()


def checkpoint() -> None:
    """Raise :class:`DeadlineExceededError` once this context's deadline passed."""
    deadline = _current()
    if deadline is not None and deadline.clock() > deadline.expires:
        raise DeadlineExceededError(deadline_ms=deadline.budget_ms)

"""Typed, frozen search configuration shared by every registered method.

:class:`SearchConfig` replaces the per-function keyword sprawl of the legacy
entry points (``size_budget=...`` here, ``rho=...`` there) with one
validated, immutable object.  An engine holds a base config; callers derive
variants with :meth:`SearchConfig.replace` (e.g. a parameter sweep changing
only ``k``), and per-query overrides ride on :class:`repro.api.query.Query`.

Not every field applies to every method — each registered runner reads the
fields its algorithm defines (the butterfly parameter ``b`` means nothing to
the label-agnostic CTC baseline, ``size_budget`` only to PSA) and ignores the
rest, so one config can drive a whole workload.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.baselines.psa import DEFAULT_SHRINK_ROUNDS, DEFAULT_SIZE_BUDGET
from repro.core.local_search import DEFAULT_CANDIDATE_SIZE
from repro.core.lp_bcc import DEFAULT_RHO
from repro.core.path_weight import PathWeightConfig
from repro.exceptions import QueryError


@dataclass(frozen=True)
class SearchConfig:
    """Immutable parameters of a community search.

    Attributes
    ----------
    k1, k2:
        Core parameters of the two BCC label groups; ``None`` defaults to the
        query vertices' label-group coreness (Section 3.5).
    k:
        Single core-parameter override: BCC methods read it as
        ``k1 = k2 = k`` when ``k1``/``k2`` are unset, PSA as its core
        parameter, CTC as a pinned trussness (unset means the maximum
        trussness containing the query).  The harness's symmetric sweeps
        (Fig. 8 varies one ``k`` "due to the symmetry property") skip CTC —
        its ``MethodSpec.symmetric_k`` is ``False`` — matching the paper's
        experiments, where CTC always runs at maximum trussness.
    b:
        Butterfly-degree requirement of the leader pair (Def. 4).
    bulk_deletion:
        Remove every farthest vertex per peeling iteration (the paper's
        experimental setting) instead of a single one.
    rho:
        Leader search radius of Algorithm 6 (LP-BCC / L2P-BCC).
    max_iterations:
        Optional safety cap on peeling iterations.
    eta:
        Candidate-graph size threshold of L2P-BCC (Algorithm 8).
    path_config:
        γ1/γ2 weights of the butterfly-core path weight (Def. 6).
    core_parameters:
        Optional per-query ``k_i`` tuple for the multi-labeled mBCC search.
    size_budget, shrink_rounds:
        Expansion / shrinking budgets of the PSA baseline.
    deadline_ms:
        Optional serving deadline (wall-clock milliseconds).  Every
        ``search`` that resolves this config runs under it — a bare call,
        a ``search_many`` row, a worker task — and so does each HTTP
        gateway request.  It bounds the search cooperatively: the
        kernels' checkpoints stop the work once the budget is spent
        (:mod:`repro.deadline`), and a host nested in another searches
        under the outer one's budget.  An expired deadline raises
        :class:`~repro.exceptions.DeadlineExceededError`, which a batch
        turns into a position-aligned ``status="error"`` row with reason
        ``deadline-exceeded`` (HTTP 504 through the gateway).  It never
        changes *what* a query answers, only how long a caller will wait,
        so it is excluded from result cache keys.
    """

    k1: Optional[int] = None
    k2: Optional[int] = None
    k: Optional[int] = None
    b: int = 1
    bulk_deletion: bool = True
    rho: int = DEFAULT_RHO
    max_iterations: Optional[int] = None
    eta: int = DEFAULT_CANDIDATE_SIZE
    path_config: PathWeightConfig = PathWeightConfig()
    core_parameters: Optional[Tuple[int, ...]] = None
    size_budget: int = DEFAULT_SIZE_BUDGET
    shrink_rounds: int = DEFAULT_SHRINK_ROUNDS
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "k"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise QueryError(f"core parameter {name} must be non-negative")
        if self.b < 0:
            raise QueryError("butterfly parameter b must be non-negative")
        if self.rho < 0:
            raise QueryError("leader search radius rho must be non-negative")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise QueryError("max_iterations must be non-negative or None")
        # Zero budgets are legal degenerate settings the algorithms define
        # (eta=0: the candidate is the seed path; size_budget=0: skip the
        # PSA expansion), matching what the legacy entry points accepted.
        if self.eta < 0:
            raise QueryError("candidate size threshold eta must be non-negative")
        if self.size_budget < 0:
            raise QueryError("size_budget must be non-negative")
        if self.shrink_rounds < 0:
            raise QueryError("shrink_rounds must be non-negative")
        if self.deadline_ms is not None and not self.deadline_ms > 0:
            raise QueryError("deadline_ms must be positive or None")
        if self.core_parameters is not None:
            object.__setattr__(self, "core_parameters", tuple(self.core_parameters))
            if any(value < 0 for value in self.core_parameters):
                raise QueryError("core_parameters must be non-negative")

    def replace(self, **changes: object) -> "SearchConfig":
        """Return a copy with ``changes`` applied (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    def cache_key(self) -> Tuple[object, ...]:
        """Return a hashable tuple of the answer fields, for result-cache keys.

        Two equal configs produce the same key, so ``BCCEngine``'s
        per-engine result cache can key one entry on
        ``(method, vertices, resolved config, graph version)``.  Explicit
        field order (rather than relying on ``__hash__``) keeps the key
        stable and self-describing.  ``deadline_ms`` is excluded: a
        deadline bounds the wait, not the answer, so the same query under
        any deadline must share one cache entry.
        """
        return tuple(
            getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "deadline_ms"
        )

    def effective_k1(self) -> Optional[int]:
        """``k1``, falling back to the symmetric ``k`` override."""
        return self.k1 if self.k1 is not None else self.k

    def effective_k2(self) -> Optional[int]:
        """``k2``, falling back to the symmetric ``k`` override."""
        return self.k2 if self.k2 is not None else self.k

"""Baseline community-search models the paper compares against (CTC and PSA)."""

from repro.baselines.ctc import CTCResult
from repro.baselines.psa import PSAResult

__all__ = ["CTCResult", "PSAResult"]

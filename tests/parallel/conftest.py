"""Shared fixtures for the process-backend suite.

Worker processes are spawned (not forked), so every pool start pays a
Python interpreter + import of ``repro`` per worker.  Fixtures are
module-scoped where safe to amortize that; tests that kill or otherwise
ruin workers build their own throwaway pools.
"""

from __future__ import annotations

import random

import pytest

from repro.graph.generators import random_labeled_graph


@pytest.fixture(scope="module")
def pair_graph():
    """A two-label graph dense enough to always have cross edges."""
    rng = random.Random(4242)
    graph = random_labeled_graph(40, 0.2, ["A", "B"], seed=rng.randint(0, 999))
    assert any(True for _ in graph.cross_edges()), "needs a cross edge"
    return graph


@pytest.fixture(scope="module")
def slow_graph():
    """A graph whose searches cost real wall clock (tens of ms).

    Deadline tests need the kernel to *outlast* the deadline: on a tiny
    graph a search can finish before any of its checkpoints sees the
    budget spent, so the deadline never fires, however small
    ``deadline_ms`` is.
    """
    graph = random_labeled_graph(400, 0.04, ["A", "B"], seed=7)
    assert any(True for _ in graph.cross_edges()), "needs a cross edge"
    return graph

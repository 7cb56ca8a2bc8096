"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Set

import pytest

from repro.api import BCCEngine, Query, SearchConfig
from repro.core.bcc_model import BCCParameters, BCCResult
from repro.datasets import (
    generate_academic_network,
    generate_baidu_network,
    generate_fiction_network,
    generate_flight_network,
    generate_snap_like,
    generate_trade_network,
)
from repro.graph.csr import CSRBipartiteView, CSRGraph, csr_butterfly_degrees
from repro.graph.generators import paper_example_graph, paper_small_example_graph
from repro.graph.labeled_graph import LabeledGraph

SRC = Path(__file__).resolve().parents[1] / "src"

try:
    from hypothesis import settings
except ImportError:  # the gateway, store and observability jobs install pytest only
    pass
else:
    # CI selects this with ``--hypothesis-profile=ci``: a fixed seed per test
    # and a bounded budget, so a run is repeatable and its cost known.  A
    # test's own ``@settings`` still set its budget.
    settings.register_profile(
        "ci", derandomize=True, max_examples=100, deadline=None, database=None
    )


def race(task, threads: int = 8):
    """Run ``task`` on ``threads`` threads released at once, switching often,
    and return their results."""
    start = threading.Barrier(threads, timeout=30)

    def run():
        start.wait()
        return task()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(run) for _ in range(threads)]
            return [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)


def run_under_hash_seed(script: str, hash_seed: int, *args: str) -> str:
    """Run ``script`` in a fresh interpreter with ``PYTHONHASHSEED`` set to
    ``hash_seed`` and return its stdout.

    String hashes, and so the iteration order of sets of string vertices,
    change with the hash seed; two such runs show whether a result depends
    on that order.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout


def search_result(graph, method: str, *vertices, index=None, **config):
    """The native result of one ``method`` query for ``vertices`` on a fresh
    engine over ``graph``, configured by the :class:`SearchConfig` fields in
    ``config``: the response's ``result``, ``None`` when it is empty."""
    engine = BCCEngine(graph, SearchConfig(**config), index=index)
    return engine.search(Query(method, vertices)).result


def swap_left_right(result: BCCResult) -> BCCResult:
    """Return a copy of ``result`` with the left and right groups exchanged.

    The copy shares the snapshot, the ids and the graph, if already built,
    so the pipeline suite reads a swapped answer to check that its sides
    come off the same ids and that reading them builds no graph.
    """
    return BCCResult(
        result.csr,
        result.ids,
        left_label=result.right_label,
        right_label=result.left_label,
        parameters=BCCParameters(
            k1=result.parameters.k2, k2=result.parameters.k1, b=result.parameters.b
        ),
        leader_pair=(
            (result.leader_pair[1], result.leader_pair[0])
            if result.leader_pair
            else None
        ),
        query_distance=result.query_distance,
        iterations=result.iterations,
        statistics=dict(result.statistics),
        _community=result._community,
    )


@pytest.fixture
def paper_graph() -> LabeledGraph:
    """The Figure 1 running-example graph (SE / UI / PM labels)."""
    return paper_example_graph()


@pytest.fixture
def small_graph() -> LabeledGraph:
    """The Figure 3 example graph used by Algorithms 5-7 walkthroughs."""
    return paper_small_example_graph()


@pytest.fixture
def simple_two_label_graph() -> LabeledGraph:
    """A tiny hand-built 2-label graph with one obvious butterfly.

    Left label "L" = {a, b, c} forming a triangle; right label "R" = {x, y, z}
    forming a triangle; cross edges make (a, b) x (x, y) a butterfly, with an
    extra pendant cross edge (c, z).
    """
    g = LabeledGraph()
    for v in ("a", "b", "c"):
        g.add_vertex(v, label="L")
    for v in ("x", "y", "z"):
        g.add_vertex(v, label="R")
    for u, v in (("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")):
        g.add_edge(u, v)
    for u, v in (("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("c", "z")):
        g.add_edge(u, v)
    return g


@pytest.fixture(scope="session")
def tiny_baidu_bundle():
    """A small Baidu-like dataset with planted cross-team projects."""
    return generate_baidu_network("tiny", seed=7)


@pytest.fixture(scope="session")
def tiny_snap_bundle():
    """A small SNAP-like dataset generated with the paper's labeling protocol."""
    return generate_snap_like("tiny", seed=11)


@pytest.fixture(scope="session")
def flight_bundle():
    """The flight-network case-study dataset."""
    return generate_flight_network(seed=3)


@pytest.fixture(scope="session")
def trade_bundle():
    """The trade-network case-study dataset."""
    return generate_trade_network(seed=3)


@pytest.fixture(scope="session")
def fiction_bundle():
    """The fiction-network case-study dataset."""
    return generate_fiction_network(seed=3)


@pytest.fixture(scope="session")
def academic_bundle():
    """The academic collaboration case-study dataset."""
    return generate_academic_network(seed=3)


@pytest.fixture
def adjacency_reads(monkeypatch) -> Set[int]:
    """The ids whose neighbour lists are read, by id, from any snapshot's
    :meth:`CSRGraph.adjacency_slices` while the test runs.

    Fill the caches the code under test reads first, then ``clear()`` the
    set, so that only the call under test is recorded.
    """
    reads: Set[int] = set()
    slices_of = CSRGraph.adjacency_slices

    class RecordedSlices(list):
        def __getitem__(self, position):
            reads.add(position)
            return list.__getitem__(self, position)

    monkeypatch.setattr(
        CSRGraph, "adjacency_slices", lambda self: RecordedSlices(slices_of(self))
    )
    return reads


@pytest.fixture
def wedge_chi():
    """χ per vertex of a :class:`BipartiteView` from the vertex-priority
    kernel alone, which the entry point only runs on sparse inputs."""

    def chi_of(view):
        order = [*view.left(), *view.right()]
        position = dict(zip(order, range(len(order))))
        slices = [[position[w] for w in view.neighbors(v)] for v in order]
        frozen = CSRBipartiteView.from_slices(slices, len(view.left()))
        return dict(zip(order, csr_butterfly_degrees(frozen)))

    return chi_of

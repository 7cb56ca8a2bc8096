"""Algorithm 2's connected cores as lookups in the snapshot's memo.

``L`` and ``R`` are the connected k1- and k2-cores that hold the queries,
cut from the snapshot's group coreness, so they depend on the snapshot
alone: :meth:`repro.graph.csr.CSRGraph.core_component` keeps one table per
k from id to its component, filled by the first search whose BFS
(``pipeline._core_component``) finishes it.  A lookup must equal that BFS
run from scratch, a component is published once however many threads race
to build it, and its frozenset keys the ``G0`` memo.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.api import BCCEngine, Query, SearchConfig
from repro.core import pipeline
from repro.datasets import load_dataset
from repro.eval.queries import QuerySpec, generate_query_pairs
from repro.graph.generators import random_labeled_graph
from tests.conftest import race

CONFIG = SearchConfig(b=1, max_iterations=60)
METHODS = ("online-bcc", "lp-bcc", "l2p-bcc")


def _unbuilt():
    raise AssertionError("a published component was searched again")


def _answer(response):
    stats = response.instrumentation.as_dict()
    return (
        response.status,
        response.reason,
        frozenset(response.vertices),
        response.query_distance,
        response.iterations,
        getattr(response.result, "leader_pair", None),
        {key: value for key, value in stats.items() if not key.endswith("_seconds")},
    )


@pytest.fixture(scope="module")
def bundle():
    return load_dataset("dblp", seed=7, communities=4, community_size=16)


@pytest.fixture(scope="module")
def pairs(bundle):
    return generate_query_pairs(bundle, QuerySpec(count=8), seed=3)


@pytest.mark.parametrize("seed", range(6))
def test_every_lookup_equals_a_bfs_from_scratch(seed):
    graph = random_labeled_graph(60, 0.15, ["A", "B", "C"], seed=seed)
    csr = graph.freeze()
    same, group = csr.label_split()[0], csr.group_coreness()
    top = max(group)
    lookups = [(k, v) for k in range(top + 2) for v in range(csr.num_vertices())]
    random.Random(seed).shuffle(lookups)
    for k, v in lookups:
        got = pipeline._query_core(csr, v, k, None, same)
        expected = pipeline._core_component(v, k, group, same)
        if group[v] < k:
            assert got is None and expected is None
        else:
            assert got == expected and isinstance(got, frozenset)
    entries = csr.core_entries()
    # One table per k some id reaches; every component once, and every id
    # of a component maps to that one frozenset.
    assert sorted(entries) == list(range(top + 1))
    for k, components in entries.items():
        members = [v for component in components for v in component]
        assert len(members) == len(set(members)) == sum(c >= k for c in group)
        for component in components:
            for v in component:
                assert csr.core_component(k, v, _unbuilt) is component


@pytest.mark.parametrize("method", METHODS)
def test_warm_searches_run_no_core_bfs(bundle, pairs, monkeypatch, method):
    engine = BCCEngine(bundle.graph.copy(), CONFIG).prepare()
    engine.ensure_index()
    cold = [_answer(engine.search(Query(method, pair), use_cache=False)) for pair in pairs]
    csr = engine.frozen_graph()
    assert csr.core_entries()

    def no_bfs(*args):
        raise AssertionError("a warm search searched a core")

    monkeypatch.setattr(pipeline, "_core_component", no_bfs)
    warm = [_answer(engine.search(Query(method, pair), use_cache=False)) for pair in pairs]
    assert warm == cold
    # Each G0 memo key holds the memo's own frozensets.
    published = {id(c) for components in csr.core_entries().values() for c in components}
    for left, right, _ in csr.g0_entries():
        assert id(left) in published and id(right) in published


@pytest.mark.concurrency
@pytest.mark.parametrize("method", ["online-bcc", "lp-bcc"])
def test_eight_first_searches_publish_one_component(bundle, pairs, monkeypatch, method):
    sequential = BCCEngine(bundle.graph.copy(), CONFIG).prepare()
    expected = _answer(sequential.search(Query(method, pairs[0]), use_cache=False))
    builds = []
    bfs = pipeline._core_component

    def slow_bfs(*args):
        builds.append(args[:2])
        component = bfs(*args)
        time.sleep(0.02)  # finish while the other threads are still searching
        return component

    monkeypatch.setattr(pipeline, "_core_component", slow_bfs)
    engine = BCCEngine(bundle.graph.copy(), CONFIG).prepare()
    responses = race(lambda: engine.search(Query(method, pairs[0]), use_cache=False))
    assert all(_answer(response) == expected for response in responses)
    assert 2 <= len(builds) <= 16
    csr = engine.frozen_graph()
    assert csr.core_entries() == sequential.frozen_graph().core_entries()
    # Whoever published first, the G0 memo holds one entry, keyed by the
    # published frozensets.
    ((left, right, _),) = csr.g0_entries()
    q_left, q_right = map(csr.id_of, pairs[0])
    assert left is csr.core_component(_k(builds, q_left), q_left, _unbuilt)
    assert right is csr.core_component(_k(builds, q_right), q_right, _unbuilt)


def _k(builds, query):
    """The k a recorded ``_core_component(query, k, ...)`` call used."""
    (k,) = {k for vid, k in builds if vid == query}
    return k

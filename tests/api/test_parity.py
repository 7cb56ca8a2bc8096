"""Parity suite: a warm engine ≡ a fresh engine, and ≡ the paper.

The engine keeps shared, reusable state (one CSR snapshot, cached
label-group subgraphs, one BCindex) — this suite asserts over randomized
labeled graphs that none of it changes any answer: for every method, a warm
engine serving its Nth query returns exactly the status, community,
iteration count and query distance of a fresh engine over a copy of the
graph, and ``search_many`` equals sequential ``search``.  Every Online-,
LP- and L2P-BCC community found is also checked against the paper: a
connected (k1, k2, b)-BCC containing the query (Def. 4), whose query
distance is the one a plain BFS recomputes (Def. 5).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.api import BCCEngine, Query, SearchConfig
from repro.core.bcc_model import validate_bcc
from repro.graph.generators import random_labeled_graph

SEEDS = range(20)

# method name -> engine config for a pair query.
PAIR_METHODS = {
    "online-bcc": SearchConfig(b=1, max_iterations=60),
    "lp-bcc": SearchConfig(b=1, max_iterations=60),
    "l2p-bcc": SearchConfig(b=1, max_iterations=60),
    "ctc": SearchConfig(max_iterations=60),
    "psa": SearchConfig(),
}
BCC_METHODS = ("online-bcc", "lp-bcc", "l2p-bcc")


def _random_graph(seed, labels=("A", "B")):
    rng = random.Random(91_000 + seed)
    return random_labeled_graph(
        rng.randint(8, 26), 0.15 + rng.random() * 0.35, list(labels), seed=seed
    )


def _cross_pair(graph):
    for u, v in graph.cross_edges():
        return (u, v)
    return None


def _query_distance(community, query):
    """``dist(H, Q)`` of Def. 5: the largest BFS distance, within the
    community, from any query vertex to any community vertex."""
    worst = 0
    for source in query:
        distance = {source: 0}
        frontier = [source]
        while frontier:
            reached = []
            for u in frontier:
                for w in community.neighbors(u):
                    if w not in distance:
                        distance[w] = distance[u] + 1
                        reached.append(w)
            frontier = reached
        if len(distance) < community.num_vertices():
            return math.inf
        worst = max(worst, max(distance.values()))
    return worst


def _assert_same(got, want, method):
    assert got.status == want.status, method
    assert got.reason == want.reason, method
    assert got.vertices == want.vertices, method
    assert got.iterations == want.iterations, method
    assert got.query_distance == want.query_distance, method


class TestPairMethodParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_warm_engine_matches_a_fresh_engine(self, seed):
        graph = _random_graph(seed)
        pair = _cross_pair(graph)
        if pair is None:
            pytest.skip("random graph has no cross edge")
        # One warm engine serves every method in turn, so later methods run
        # with caches populated by earlier ones — parity must still be exact.
        # The fresh engine's copy has a snapshot of its own, so no cache
        # filled by the warm engine reaches it.
        engine = BCCEngine(graph).prepare()
        for method, config in PAIR_METHODS.items():
            query = Query(method, pair, config=config)
            fresh = BCCEngine(graph.copy()).search(query)
            _assert_same(engine.search(query), fresh, method)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bcc_answers_satisfy_defs_4_and_5(self, seed):
        graph = _random_graph(seed)
        pair = _cross_pair(graph)
        if pair is None:
            pytest.skip("random graph has no cross edge")
        engine = BCCEngine(graph).prepare()
        for method in BCC_METHODS:
            response = engine.search(Query(method, pair, config=PAIR_METHODS[method]))
            if not response.found:
                continue
            community = graph.induced_subgraph(response.vertices)
            parameters = response.result.parameters
            assert validate_bcc(community, parameters, pair) == [], method
            assert response.query_distance == _query_distance(community, pair), method

    @pytest.mark.parametrize("seed", range(8))
    def test_repeated_engine_queries_are_stable(self, seed):
        graph = _random_graph(seed)
        pair = _cross_pair(graph)
        if pair is None:
            pytest.skip("random graph has no cross edge")
        engine = BCCEngine(graph)
        query = Query("lp-bcc", pair, config=SearchConfig(b=1, max_iterations=60))
        first = engine.search(query)
        second = engine.search(query)
        assert first.status == second.status
        assert first.vertices == second.vertices
        assert first.iterations == second.iterations


class TestMultilabelParity:
    @pytest.mark.parametrize("seed", range(10))
    def test_mbcc_warm_engine_matches_a_fresh_engine(self, seed):
        graph = _random_graph(seed, labels=("A", "B", "C"))
        by_label = {}
        for vertex in graph.vertices():
            by_label.setdefault(graph.label(vertex), vertex)
        if len(by_label) < 3:
            pytest.skip("random graph does not span three labels")
        query = Query(
            "mbcc",
            tuple(by_label[label] for label in sorted(by_label)),
            config=SearchConfig(b=1, max_iterations=60),
        )
        warm = BCCEngine(graph).prepare().search(query)
        _assert_same(warm, BCCEngine(graph.copy()).search(query), "mbcc")


class TestBatchParity:
    def test_search_many_equals_sequential_search(self):
        graphs = [_random_graph(seed) for seed in range(6)]
        for graph in graphs:
            pair = _cross_pair(graph)
            if pair is None:
                continue
            queries = [
                Query(method, pair, config=config)
                for method, config in PAIR_METHODS.items()
            ]
            warm = BCCEngine(graph).search_many(queries)
            cold = [BCCEngine(graph).search(query) for query in queries]
            for got, want in zip(warm, cold):
                assert got.status == want.status, got.method
                assert got.vertices == want.vertices, got.method
                assert got.iterations == want.iterations, got.method

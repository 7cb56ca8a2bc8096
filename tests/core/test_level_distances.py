"""Algorithms 1 and 5 on the snapshot's adjacency bit table.

LP- and L2P-BCC keep each query's distances as BFS level bitsets
(:class:`repro.core.query_distance.LevelDistances`) over the snapshot's
fill-once bit table (:meth:`repro.graph.csr.CSRGraph.adjacency_bits`).  The
levels must equal a BFS recomputed from scratch after every deletion batch,
and the sweep must equal :func:`~repro.core.query_distance.farthest_ids`
over those distances.  Online-BCC's full recomputation runs the same
kernel through ``csr_bfs_distances(..., rows=...)``.  A snapshot over the
table's memory budget keeps the per-id distance lists of
``pipeline._Distances`` and set frontiers, with the same answers.
"""

from __future__ import annotations

import gc
import math
import time
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.graph.csr as csr_module
from repro.api import BCCEngine, Query, SearchConfig
from repro.core import online_bcc, pipeline
from repro.core.query_distance import farthest_ids
from repro.datasets import load_dataset
from repro.eval.queries import QuerySpec, generate_query_pairs
from repro.graph.csr import (
    UNREACHED,
    CSRGraph,
    adjacency_bit_rows,
    bit_ids,
    csr_bfs_distances,
    ids_bits,
)
from repro.graph.labeled_graph import LabeledGraph
from tests.conftest import race

CONFIG = SearchConfig(b=1, max_iterations=60)
METHODS = ("online-bcc", "lp-bcc", "l2p-bcc")


def _graph(n, edges):
    """A labeled graph on ids ``0 .. n - 1`` (labels alternate)."""
    graph = LabeledGraph()
    for v in range(n):
        graph.add_vertex(v, label="AB"[v % 2])
    for u, w in edges:
        graph.add_edge(u, w)
    return graph


def _level_lists(distances, n):
    """Each query's levels as a per-id distance list (UNREACHED = -1)."""
    lists = []
    for query in distances.dist:
        dist = [UNREACHED] * n
        for d, level in enumerate(query.levels):
            for v in bit_ids(level):
                dist[v] = d
        lists.append(dist)
    return lists


def _check(csr, distances, alive, queries):
    """Levels against a BFS from scratch, the sweep against ``farthest_ids``.

    The reference BFS runs on set frontiers (no table), so it shares no
    code with :func:`~repro.graph.csr.bit_bfs_levels`.
    """
    n = csr.num_vertices()
    expected = [csr_bfs_distances(csr, q, alive=alive) for q in queries]
    assert _level_lists(distances, n) == expected
    for query, dist in zip(distances.dist, expected):
        assert query.unreached == ids_bits(v for v in alive if dist[v] == UNREACHED)
    assert distances.alive == ids_bits(alive)
    current, far, worst = distances.sweep()
    ref_current, ref_far, ref_worst = farthest_ids(alive, *expected, *queries)
    # The same values of the same types (a query distance reaches the wire).
    assert (current, worst) == (ref_current, ref_worst)
    assert (type(current), type(worst)) == (type(ref_current), type(ref_worst))
    assert far == sorted(ref_far)


@st.composite
def deletion_runs(draw):
    """A graph of 2-40 ids, two query ids and batches deleting other ids."""
    n = draw(st.integers(min_value=2, max_value=40))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = sorted(
        {(min(e), max(e)) for e in draw(st.lists(pairs, max_size=3 * n)) if e[0] != e[1]}
    )
    q_left, q_right = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    others = draw(st.permutations([v for v in range(n) if v not in (q_left, q_right)]))
    cuts = sorted(draw(st.sets(st.integers(0, len(others)), max_size=len(others))))
    batches = [others[i:j] for i, j in zip([0] + cuts, cuts + [len(others)]) if i < j]
    return n, edges, (q_left, q_right), batches


@settings(deadline=None)
@given(deletion_runs())
# A batch that disconnects a query from the other.
@example((5, [(0, 1), (1, 2), (2, 3), (3, 4)], (0, 4), [[2], [1]]))
# A deleted id that was already unreachable from both queries.
@example((5, [(0, 1), (1, 2), (3, 4)], (0, 2), [[3], [4]]))
# Survivors that are only the two queries, adjacent and then not.
@example((4, [(0, 1), (1, 2), (2, 3)], (0, 1), [[2, 3]]))
@example((4, [(0, 1), (1, 2), (2, 3), (0, 3)], (0, 2), [[1, 3]]))
def test_levels_equal_a_bfs_from_scratch_after_every_batch(run):
    n, edges, queries, batches = run
    csr = _graph(n, edges).freeze()
    rows = adjacency_bit_rows(csr.adjacency_slices())
    alive = set(range(n))
    distances = pipeline._LevelDistances(rows, alive, *queries)
    reference = pipeline._Distances(csr, set(alive), *queries)
    _check(csr, distances, alive, queries)
    for batch in batches:
        alive.difference_update(batch)
        reference.alive.difference_update(batch)
        distances.remove(list(batch))
        reference.remove(list(batch))
        _check(csr, distances, alive, queries)
        # The list path leaves deleted ids' entries stale: compare the rest.
        for levels, dist in zip(_level_lists(distances, n), reference.dist):
            assert [levels[v] for v in sorted(alive)] == [dist[v] for v in sorted(alive)]
    assert distances.partial_updates == reference.partial_updates == 2 * len(batches)
    assert distances.full_recomputations == reference.full_recomputations == 2


def test_a_query_cut_off_reads_infinite():
    csr = _graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).freeze()
    alive = set(range(5))
    distances = pipeline._LevelDistances(csr.adjacency_bits(), alive, 0, 4)
    # dist(v, Q) reads 4, 3, 2, 3, 4 along the path.
    assert distances.sweep() == (4, [1, 3], 3)
    alive.discard(2)
    distances.remove([2])
    current, far, worst = distances.sweep()
    assert math.isinf(current) and math.isinf(worst)
    assert far == [1, 3]


@pytest.mark.parametrize("value", [0, 1, 5, 2**40 + 2**3, (1 << 700) - 1])
def test_bit_ids_reads_every_set_bit(value):
    ids = bit_ids(value)
    assert ids == [v for v in range(value.bit_length()) if value >> v & 1]
    assert ids_bits(ids) == value


# ----------------------------------------------------------------------
# the table on the served path
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bundle():
    return load_dataset("dblp", seed=7, communities=4, community_size=16)


@pytest.fixture(scope="module")
def pairs(bundle):
    return generate_query_pairs(bundle, QuerySpec(count=8), seed=3)


def _answer(response):
    result = response.result
    return (
        response.status,
        response.reason,
        response.vertices,
        response.query_distance,
        response.iterations,
        getattr(result, "leader_pair", None),
        {
            k: v
            for k, v in (response.instrumentation.as_dict() if response.instrumentation else {}).items()
            if not k.endswith("_seconds")
        },
    )


def _counting(monkeypatch, name, calls):
    original = getattr(pipeline, name)

    def make(*args):
        calls[name] = calls.get(name, 0) + 1
        return original(*args)

    monkeypatch.setattr(pipeline, name, make)


class TestFill:
    @pytest.mark.parametrize("method", METHODS)
    def test_the_first_search_fills_it(self, bundle, pairs, method):
        engine = BCCEngine(bundle.graph.copy(), CONFIG).prepare()
        csr = engine.frozen_graph()
        assert not csr.has_adjacency_bits()
        engine.search(Query(method, pairs[0]), use_cache=False)
        assert csr.has_adjacency_bits()
        assert csr.adjacency_bits() == adjacency_bit_rows(csr.adjacency_slices())

    def test_over_budget_snapshots_take_the_list_path(self, bundle, pairs, monkeypatch):
        expected = {}
        calls = {}
        _counting(monkeypatch, "_Distances", calls)
        _counting(monkeypatch, "_LevelDistances", calls)
        # Whether each of Online-BCC's sweep BFS ran on a bit table.
        on_table = []
        bfs = online_bcc.csr_bfs_distances

        def sweep_bfs(*args, rows=None, **kwargs):
            on_table.append(rows is not None)
            return bfs(*args, rows=rows, **kwargs)

        monkeypatch.setattr(online_bcc, "csr_bfs_distances", sweep_bfs)
        for method in METHODS:
            engine = BCCEngine(bundle.graph.copy(), CONFIG).prepare()
            for pair in pairs:
                expected[method, pair] = _answer(engine.search(Query(method, pair), use_cache=False))
        searched = calls.pop("_LevelDistances")
        assert searched >= 2 * len(pairs) and not calls
        assert len(on_table) >= 2 * len(pairs) and all(on_table)

        monkeypatch.setattr(csr_module, "BIT_TABLE_BYTES_PER_EDGE", 0)
        on_table.clear()
        for method in METHODS:
            engine = BCCEngine(bundle.graph.copy(), CONFIG).prepare()
            for pair in pairs:
                got = _answer(engine.search(Query(method, pair), use_cache=False))
                assert got == expected[method, pair], (method, pair)
            assert engine.frozen_graph().adjacency_bits() is None
            assert not engine.frozen_graph().has_adjacency_bits()
        assert calls == {"_Distances": searched}
        assert len(on_table) >= 2 * len(pairs) and not any(on_table)

    def test_a_sparse_snapshot_is_over_budget(self):
        # A 400-id cycle: 20,000 bytes of table for 400 edges, 50 per edge.
        cycle = _graph(400, [(v, (v + 1) % 400) for v in range(400)]).freeze()
        assert cycle.adjacency_bits() is None
        assert not cycle.has_adjacency_bits()


class TestLifetime:
    def test_the_table_dies_with_its_snapshot(self, bundle, pairs):
        graph = bundle.graph.copy()
        engine = BCCEngine(graph, CONFIG).prepare()
        query = Query("lp-bcc", pairs[0])
        response = engine.search(query)
        assert response.result.csr.has_adjacency_bits()
        snapshot = weakref.ref(response.result.csr)
        graph.remove_edge(*min(response.community.edges(), key=repr))
        engine.search(query)
        del response
        gc.collect()
        # Only the caller's answer held the old snapshot: its table pins
        # nothing.
        assert snapshot() is None

    def test_a_new_snapshot_fills_its_own_table(self, bundle):
        graph = bundle.graph.copy()
        first = CSRGraph.freeze(graph)
        first.adjacency_bits()
        u, w = 0, first.adjacency_slices()[0][0]
        graph.remove_edge(first.vertex_of(u), first.vertex_of(w))
        del first
        gc.collect()
        # The next snapshot may well take the freed one's address.
        second = CSRGraph.freeze(graph)
        rows = second.adjacency_bits()
        assert rows == adjacency_bit_rows(second.adjacency_slices())
        assert not rows[u] >> w & 1


@pytest.mark.concurrency
def test_eight_first_lp_searches_fill_the_table_once(bundle, pairs, monkeypatch):
    fills = []
    fill = csr_module.adjacency_bit_rows

    def slow_fill(slices):
        fills.append(1)
        time.sleep(0.05)  # hold the fill while the other threads arrive
        return fill(slices)

    monkeypatch.setattr(csr_module, "adjacency_bit_rows", slow_fill)
    engine = BCCEngine(bundle.graph.copy(), CONFIG).prepare()
    query = Query("lp-bcc", pairs[0])
    responses = race(lambda: engine.search(query, use_cache=False))
    assert len(fills) == 1
    assert all(_answer(r) == _answer(responses[0]) for r in responses)

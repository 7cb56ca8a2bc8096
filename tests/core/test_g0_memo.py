"""The per-snapshot G0 memo (:meth:`repro.graph.csr.CSRGraph.g0`).

Algorithm 2's ``G0`` past the cores reads only ``(L, R, b)``, so the
pipeline keeps it, its χ, its degree counters and its Def. 4 checks on the
frozen snapshot under that key, for every search that cuts a ``G0`` (L2P's
candidate included).  A memo hit must change nothing a caller can see: every
answer, leader pair and Table-4 count equals a cold search's.  Lookups are
counted per engine (``g0_memo_hits`` / ``g0_memo_misses``), never in a
search's statistics.
"""

from __future__ import annotations

import time

import pytest

import repro.graph.csr as csr_module
from repro.api import BCCEngine, Query, SearchConfig
from repro.datasets import load_dataset
from repro.eval.queries import QuerySpec, generate_query_pairs
from repro.graph.csr import G0
from repro.serving import ShardedBCCEngine
from repro.store.snapshot import Snapshot, attach_engine, persist_engine
from tests.conftest import race

CONFIG = SearchConfig(b=1, max_iterations=60)

#: (method, config): L2P with a tiny candidate also falls back to the
#: global search, a second lookup.
CASES = {
    "online": ("online-bcc", CONFIG),
    "lp": ("lp-bcc", CONFIG),
    "l2p": ("l2p-bcc", CONFIG),
    "l2p-fallback": ("l2p-bcc", SearchConfig(b=1, max_iterations=60, eta=4)),
}


@pytest.fixture(scope="module")
def bundle():
    return load_dataset("dblp", seed=7, communities=4, community_size=16)


@pytest.fixture(scope="module")
def pairs(bundle):
    return generate_query_pairs(bundle, QuerySpec(count=8), seed=3)


def _fields(response):
    result = response.result
    return {
        "status": response.status,
        "reason": response.reason,
        "vertices": response.vertices,
        "query_distance": response.query_distance,
        "iterations": response.iterations,
        "leader_pair": getattr(result, "leader_pair", None),
        "community": None if result is None else result.community,
        "statistics": {
            key: value
            for key, value in response.instrumentation.as_dict().items()
            if not key.endswith("_seconds")
        },
    }


def _cold(graph, method, pair, config=CONFIG):
    """The answer of an engine whose snapshot's memo is empty."""
    engine = BCCEngine(graph.copy(), config)
    return engine.search(Query(method, pair), use_cache=False)


def _entries(engine):
    """The engine snapshot's memo as plain values."""
    return {
        key: (g0.left, g0.right, dict(g0.chi), dict(g0.deg), g0.valid)
        for key, g0 in engine.frozen_graph().g0_entries().items()
    }


def _memo_ids(engine):
    entries = engine.frozen_graph().g0_entries().values()
    return sum(len(g0.left) + len(g0.right) for g0 in entries)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cold_and_warm_memo_answer_identically(bundle, pairs, case):
    method, config = CASES[case]
    cold = [_fields(_cold(bundle.graph, method, pair, config)) for pair in pairs]
    engine = BCCEngine(bundle.graph.copy(), config)
    for _ in range(2):
        warm = [
            _fields(engine.search(Query(method, pair), use_cache=False))
            for pair in pairs
        ]
        assert warm == cold
    counters = engine.counters_snapshot()
    misses = len(engine.frozen_graph().g0_entries())
    assert counters["g0_memo_misses"] == misses
    # One lookup per G0 a search cuts: L2P's candidate's, plus its global
    # fallback's when taken.  The second pass hits every key.
    fallbacks = sum(row["statistics"].get("fallback_to_global", 0) for row in cold)
    lookups = len(pairs) + fallbacks
    assert counters["g0_memo_hits"] + misses == 2 * lookups
    assert counters["g0_memo_hits"] >= lookups
    assert (fallbacks > 0) == (case == "l2p-fallback")


def test_a_search_leaves_its_entry_unchanged(bundle, pairs):
    engine = BCCEngine(bundle.graph.copy(), CONFIG)
    pair = pairs[0]
    engine.search(Query("online-bcc", pair), use_cache=False)
    before = _entries(engine)
    assert len(before) == 1
    for method in ("online-bcc", "lp-bcc", "online-bcc"):
        engine.search(Query(method, pair), use_cache=False)
    assert _entries(engine) == before
    assert engine.counters_snapshot()["g0_memo_hits"] == 3
    (g0,) = engine.frozen_graph().g0_entries().values()
    vertex = next(iter(g0.left))
    with pytest.raises(TypeError):
        g0.chi[vertex] = 0  # shared read-only
    with pytest.raises(TypeError):
        g0.deg[vertex] = 0


def _search_all(engine, method, pairs):
    for pair in pairs:
        engine.search(Query(method, pair), use_cache=False)


def _lookups(engine):
    counters = engine.counters_snapshot()
    return counters["g0_memo_hits"], counters["g0_memo_misses"]


def _core_sharing_k1s(graph, pairs):
    """A pair and two explicit k1 whose searches cut the same cores."""
    csr = BCCEngine(graph).prepare().frozen_graph()
    for pair in pairs:
        k1s_by_cores = {}
        for k1 in range(1, csr.group_coreness()[csr.id_of(pair[0])] + 1):
            engine = BCCEngine(graph.copy(), CONFIG.replace(k1=k1))
            engine.search(Query("lp-bcc", pair), use_cache=False)
            (key,) = engine.frozen_graph().g0_entries()
            k1s_by_cores.setdefault(key, []).append(k1)
            if len(k1s_by_cores[key]) == 2:
                return pair, k1s_by_cores[key]
    raise AssertionError("no pair cuts equal cores under two k1")


def test_equal_cores_under_different_k1_share_one_entry(bundle, pairs):
    graph = bundle.graph.copy()
    pair, k1s = _core_sharing_k1s(graph, pairs)
    engine = BCCEngine(graph.copy(), CONFIG)
    for k1 in k1s:
        config = CONFIG.replace(k1=k1)
        got = engine.search(Query("lp-bcc", pair), config=config, use_cache=False)
        assert _fields(got) == _fields(_cold(graph, "lp-bcc", pair, config))
        assert got.result.parameters.k1 == k1
    assert len(engine.frozen_graph().g0_entries()) == 1
    assert _lookups(engine) == (1, 1)


def test_an_l2p_pass_reuses_an_lp_passs_entries(bundle, pairs):
    alone = BCCEngine(bundle.graph.copy(), CONFIG)
    _search_all(alone, "l2p-bcc", pairs)
    l2p_keys = set(alone.frozen_graph().g0_entries())

    engine = BCCEngine(bundle.graph.copy(), CONFIG)
    _search_all(engine, "lp-bcc", pairs)
    lp_keys = set(engine.frozen_graph().g0_entries())
    hits, misses = _lookups(engine)
    _search_all(engine, "l2p-bcc", pairs)
    more_hits, more_misses = _lookups(engine)

    # Some candidate cores equal the global ones: those lookups hit.
    assert l2p_keys & lp_keys
    assert more_misses - misses == len(l2p_keys - lp_keys)
    assert (more_hits - hits) + (more_misses - misses) == sum(_lookups(alone))
    assert set(engine.frozen_graph().g0_entries()) == lp_keys | l2p_keys


def test_a_mutation_drops_the_memo(bundle, pairs):
    graph = bundle.graph.copy()
    engine = BCCEngine(graph, CONFIG)
    for pair in pairs:
        engine.search(Query("lp-bcc", pair), use_cache=False)
    stale = engine.frozen_graph()
    built = engine.counters_snapshot()["g0_memo_misses"]
    assert built == len(stale.g0_entries()) > 0

    q_left = pairs[0][0]
    same_label = sorted(
        (w for w in graph.neighbors(q_left) if graph.label(w) == graph.label(q_left)),
        key=repr,
    )
    graph.remove_edge(q_left, same_label[0])

    for method in ("online-bcc", "lp-bcc", "l2p-bcc"):
        for pair in pairs:
            got = engine.search(Query(method, pair), use_cache=False)
            assert _fields(got) == _fields(_cold(graph, method, pair)), (method, pair)
    fresh = engine.frozen_graph()
    assert fresh is not stale
    # Every entry of the new snapshot was built after the mutation.
    assert engine.counters_snapshot()["g0_memo_misses"] == built + len(fresh.g0_entries())


@pytest.mark.concurrency
def test_eight_threads_on_one_cold_key_miss_once(bundle, pairs):
    engine = BCCEngine(bundle.graph.copy(), CONFIG).prepare()
    query = Query("online-bcc", pairs[0])
    responses = race(lambda: engine.search(query, use_cache=False))
    counters = engine.counters_snapshot()
    assert counters["g0_memo_misses"] == 1
    assert counters["g0_memo_hits"] == 7
    assert len({frozenset(r.vertices) for r in responses}) == 1


@pytest.mark.concurrency
def test_eight_threads_on_one_cold_l2p_query_miss_once(bundle, pairs):
    # A pair whose candidate answers: one G0, no global fallback.
    pair = next(
        pair
        for pair in pairs
        if "fallback_to_global" not in _cold(bundle.graph, "l2p-bcc", pair).result.statistics
    )
    engine = BCCEngine(bundle.graph.copy(), CONFIG).prepare()
    query = Query("l2p-bcc", pair)
    responses = race(lambda: engine.search(query, use_cache=False))
    assert _lookups(engine) == (7, 1)
    assert len({frozenset(r.vertices) for r in responses}) == 1


@pytest.mark.concurrency
def test_concurrent_misses_build_once(bundle):
    csr = bundle.graph.copy().freeze()
    entry = G0(frozenset({0}), frozenset({1}), {}, {}, True)
    builds = []

    def build():
        builds.append(1)
        time.sleep(0.05)  # hold the fill while the other threads miss
        return entry

    results = race(lambda: csr.g0((entry.left, entry.right, 1), build))
    assert len(builds) == 1
    assert sorted(hit for _, hit in results) == [False] + [True] * 7
    assert all(g0 is entry for g0, _ in results)


def test_eviction_keeps_the_memo_under_its_bound(bundle, pairs, monkeypatch):
    monkeypatch.setattr(csr_module, "G0_MEMO_ID_FACTOR", 1)
    engine = BCCEngine(bundle.graph.copy(), CONFIG)
    bound = bundle.graph.num_vertices()
    for _ in range(2):
        for pair in pairs:
            got = engine.search(Query("online-bcc", pair), use_cache=False)
            assert _memo_ids(engine) <= bound
            assert _fields(got) == _fields(_cold(bundle.graph, "online-bcc", pair))
    counters = engine.counters_snapshot()
    # Evicted entries were built again on the second pass.
    assert counters["g0_memo_misses"] > len(engine.frozen_graph().g0_entries())
    assert counters["g0_memo_hits"] + counters["g0_memo_misses"] == 2 * len(pairs)


def test_each_engine_counts_its_own_lookups(bundle, pairs):
    graph = bundle.graph.copy()
    first, second = BCCEngine(graph, CONFIG), BCCEngine(graph, CONFIG)
    query = Query("lp-bcc", pairs[0])
    first.search(query, use_cache=False)
    second.search(query, use_cache=False)  # the shared snapshot's entry
    assert first.frozen_graph() is second.frozen_graph()
    assert (first.counters_snapshot()["g0_memo_misses"], first.counters_snapshot()["g0_memo_hits"]) == (1, 0)
    assert (second.counters_snapshot()["g0_memo_misses"], second.counters_snapshot()["g0_memo_hits"]) == (0, 1)


def test_an_attached_engine_reports_hits(bundle, pairs, tmp_path):
    path = tmp_path / "dblp.bccsnap"
    persist_engine(BCCEngine(bundle.graph.copy(), CONFIG), path)
    engine = attach_engine(bundle.graph.copy(), Snapshot(path), CONFIG)
    for _ in range(2):
        for pair in pairs:
            engine.search(Query("online-bcc", pair), use_cache=False)
    counters = engine.counters_snapshot()
    assert counters["csr_freezes"] == 0
    assert counters["g0_memo_misses"] == len(engine.frozen_graph().g0_entries())
    assert counters["g0_memo_hits"] + counters["g0_memo_misses"] == 2 * len(pairs)


def test_sharded_stats_sum_the_shards_lookups(bundle, pairs):
    sharded = ShardedBCCEngine(bundle.graph.copy(), CONFIG)
    for _ in range(2):
        for pair in pairs:
            sharded.search(Query("lp-bcc", pair), use_cache=False)
    counters = sharded.stats().counters
    assert counters["g0_memo_hits"] + counters["g0_memo_misses"] == 2 * len(pairs)
    assert counters["g0_memo_hits"] >= len(pairs)


@pytest.mark.parallel
def test_a_process_batch_reports_its_workers_lookups(bundle, pairs):
    engine = BCCEngine(bundle.graph.copy(), CONFIG)
    queries = [Query("lp-bcc", pair) for pair in pairs] * 2
    try:
        rows = engine.search_many(
            queries, backend="process", max_workers=1, use_cache=False
        )
        assert [row.status for row in rows] == ["ok"] * len(queries)
        pool = engine.process_pool_stats()["counters"]
    finally:
        engine.close_process_pool()
    assert pool["g0_memo_hits"] + pool["g0_memo_misses"] == len(queries)
    assert pool["g0_memo_hits"] >= len(pairs)
    # The parent engine looked nothing up: its workers did.
    assert engine.counters_snapshot()["g0_memo_hits"] == 0


@pytest.mark.parallel
def test_a_sharded_process_batch_reports_its_workers_lookups(bundle, pairs):
    sharded = ShardedBCCEngine(bundle.graph.copy(), CONFIG)
    queries = [Query("lp-bcc", pair) for pair in pairs] * 2
    try:
        rows = sharded.search_many(
            queries, backend="process", max_workers=1, use_cache=False
        )
        assert [row.status for row in rows] == ["ok"] * len(queries)
        pool = sharded.process_pool_stats()["counters"]
    finally:
        sharded.close_process_pool()
    # A sharded worker reports its shards' lookups, not its router's.
    assert pool["g0_memo_hits"] + pool["g0_memo_misses"] == len(queries)
    assert pool["g0_memo_hits"] >= len(pairs)
    # The parent's shards looked nothing up: the workers' did.
    assert sharded.stats().counters["g0_memo_hits"] == 0

"""The CSR pipeline answers exactly like the object reference runners.

The engine serves Online-BCC, LP-BCC and L2P-BCC on the pipeline
(:mod:`repro.core.pipeline`); :func:`run_online_bcc`, :func:`run_lp_bcc` and
:func:`run_l2p_bcc`, called directly, run the same algorithms on mutable
object graphs.  Every response field must agree — status, reason, vertex
set, community graph, query distance, iterations, leader pair and the
Table-4 counts — and every ``ok`` answer must also be a valid BCC by Def. 4
with the query distance of Def. 5, recomputed here independently.

The engine serves each query with graph building patched to raise: an
answer is its member ids on the snapshot, and its community graph is cut
out of the snapshot only when the parity check reads it afterwards.
"""

from __future__ import annotations

import contextlib
import math
import random
from collections import deque
from functools import partial
from unittest import mock

import pytest

import repro.core.pipeline as pipeline
from repro.api import BCCEngine, Query, SearchConfig
from repro.api.query import STATUS_EMPTY, STATUS_OK, SearchResponse
from repro.core.bcc_model import validate_bcc
from repro.core.local_search import run_l2p_bcc
from repro.core.lp_bcc import run_lp_bcc
from repro.core.online_bcc import run_online_bcc
from repro.datasets import load_dataset
from repro.eval.instrumentation import SearchInstrumentation
from repro.exceptions import EmptyCommunityError
from repro.eval.queries import QuerySpec, generate_query_pairs
from repro.graph.csr import CSRGraph
from repro.graph.generators import random_labeled_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.server.protocol import encode_response
from tests.conftest import swap_left_right

METHODS = ("online-bcc", "lp-bcc", "l2p-bcc")

#: Instrumentation counts that must match exactly (Table 4 plus L2P's own).
COUNTS = (
    "butterfly_counting_calls",
    "iterations",
    "vertices_deleted",
    "leader_full_recounts",
    "distance_partial_updates",
    "distance_full_recomputations",
    "candidate_vertices",
    "fallback_to_global",
)

CONFIGS = (
    SearchConfig(b=1, max_iterations=60),
    SearchConfig(b=1, bulk_deletion=False, max_iterations=60),
    SearchConfig(k=2, b=2),
    SearchConfig(b=1, max_iterations=1),
    SearchConfig(k=50),  # k above every coreness: no candidate
    SearchConfig(b=10_000),  # b above every butterfly degree
    SearchConfig(b=1, eta=8),  # η cuts L2P's candidate short: it is peeled
)


def _fields(response):
    result = response.result
    stats = response.instrumentation.as_dict()
    return {
        "status": response.status,
        "reason": response.reason,
        "vertices": response.vertices,
        "iterations": response.iterations,
        "query_distance": response.query_distance,
        "leader_pair": getattr(result, "leader_pair", None),
        "community": None if result is None else result.community,
        "parameters": None if result is None else result.parameters,
        "sides": None
        if result is None
        else (result.left_vertices, result.right_vertices),
        "counts": {key: stats.get(key, 0.0) for key in COUNTS},
    }


def _def5_distance(community: LabeledGraph, query) -> float:
    worst = 0
    for source in query:
        seen = {source: 0}
        frontier = deque([source])
        while frontier:
            vertex = frontier.popleft()
            for neighbor in community.neighbors(vertex):
                if neighbor not in seen:
                    seen[neighbor] = seen[vertex] + 1
                    frontier.append(neighbor)
        if len(seen) < community.num_vertices():
            return math.inf
        worst = max(worst, max(seen.values()))
    return float(worst)


@contextlib.contextmanager
def _no_graph_builds():
    """Building a graph out of a snapshot raises inside this block."""

    def refuse(*args, **kwargs):
        raise AssertionError("the served path built a LabeledGraph")

    with mock.patch.object(LabeledGraph, "adopt", refuse), mock.patch.object(
        CSRGraph, "induced", refuse
    ):
        yield


def _serve(engine, query, config):
    """An uncached search, and every served read of its answer, building no graph."""
    with _no_graph_builds():
        response = engine.search(query, config=config, use_cache=False)
        encode_response(response)
        if response.result is not None:
            swapped = swap_left_right(response.result)
            for result in (response.result, swapped):
                result.num_edges()
                repr(result)
                result.left_vertices, result.right_vertices
    return response


def _assert_valid(graph, response):
    if response.status != "ok":
        return
    q_left, q_right = response.query
    community = graph.induced_subgraph(response.vertices)
    assert response.result.community == community
    assert response.result.num_edges() == community.num_edges()
    swapped = swap_left_right(response.result)
    assert swapped.community == community
    assert swapped.left_vertices == response.result.right_vertices
    assert validate_bcc(
        community,
        response.result.parameters,
        query_vertices=[q_left, q_right],
        left_label=graph.label(q_left),
    ) == []
    assert response.query_distance == _def5_distance(community, (q_left, q_right))


def _reference(engine, method, pair, config):
    """The object runner's answer to ``pair``, as the engine would wrap it."""
    if method == "online-bcc":
        run = partial(run_online_bcc, bulk_deletion=config.bulk_deletion)
    elif method == "lp-bcc":
        run = partial(run_lp_bcc, bulk_deletion=config.bulk_deletion, rho=config.rho)
    else:
        run = partial(
            run_l2p_bcc,
            index=engine.ensure_index(),
            eta=config.eta,
            path_config=config.path_config,
            rho=config.rho,
        )
    inst = SearchInstrumentation()
    try:
        result = run(
            engine.graph,
            *pair,
            k1=config.effective_k1(),
            k2=config.effective_k2(),
            b=config.b,
            max_iterations=config.max_iterations,
            instrumentation=inst,
        )
    except EmptyCommunityError as exc:
        return SearchResponse(
            method, pair, STATUS_EMPTY, reason=exc.reason, instrumentation=inst
        )
    return SearchResponse(
        method,
        pair,
        STATUS_OK,
        result=result,
        vertices=set(result.vertices),
        instrumentation=inst,
    )


def _assert_parity(graph, pairs, configs=CONFIGS, methods=METHODS):
    """Check every served answer against the reference; return the answers."""
    engine = BCCEngine(graph).prepare()
    served = []
    for pair in pairs:
        for method in methods:
            for config in configs:
                got = _serve(engine, Query(method, pair), config)
                want = _reference(engine, method, pair, config)
                assert _fields(got) == _fields(want), (method, pair, config)
                _assert_valid(graph, got)
                served.append(got)
    return served


def _relabel(graph: LabeledGraph, name) -> LabeledGraph:
    renamed = LabeledGraph()
    for vertex in sorted(graph.vertices()):
        renamed.add_vertex(name(vertex), label=graph.label(vertex))
    for u, v in sorted(graph.edges()):
        renamed.add_edge(name(u), name(v))
    return renamed


def _random_case(seed: int, labels):
    rng = random.Random(7_700 + seed)
    graph = random_labeled_graph(
        rng.randint(10, 34), 0.2 + 0.4 * rng.random(), list(labels), seed=seed
    )
    if seed % 2:
        # String ids whose repr order differs from the numeric order.
        graph = _relabel(graph, lambda v: f"v{v}")
    vertices = sorted(graph.vertices(), key=repr)
    pairs = []
    for _ in range(12):
        u, v = rng.sample(vertices, 2)
        if graph.label(u) != graph.label(v):
            pairs.append((u, v))
        if len(pairs) == 2:
            break
    return graph, pairs


@pytest.mark.parametrize("seed", range(24))
@pytest.mark.parametrize("labels", [("A", "B"), ("A", "B", "C")])
def test_random_graphs_match_the_object_reference(seed, labels):
    graph, pairs = _random_case(seed, labels)
    _assert_parity(graph, pairs)


@pytest.mark.parametrize("seed, pair", [(6, (3, 13)), (5, ("v9", "v14"))])
def test_global_fallback_answer_matches_the_object_reference(seed, pair):
    """η = 8 cuts this L2P candidate short, its search finds nothing, and
    the global fallback's answer is served without building a graph."""
    graph, _ = _random_case(seed, ("A", "B"))
    (response,) = _assert_parity(
        graph, [pair], configs=(SearchConfig(b=1, eta=8),), methods=("l2p-bcc",)
    )
    assert response.status == STATUS_OK
    assert response.instrumentation.as_dict()["fallback_to_global"] == 1


def test_disconnected_query_matches_the_object_reference():
    graph = random_labeled_graph(14, 0.6, ["A", "B"], seed=3)
    other = _relabel(random_labeled_graph(14, 0.6, ["A", "B"], seed=4), lambda v: v + 100)
    graph.merge(other)
    left = next(v for v in sorted(graph.vertices()) if v < 100 and graph.label(v) == "A")
    right = next(v for v in sorted(graph.vertices()) if v >= 100 and graph.label(v) == "B")
    engine = BCCEngine(graph)
    for method in METHODS:
        response = engine.search(Query(method, (left, right)))
        assert response.status == "empty"
    _assert_parity(graph, [(left, right)], configs=CONFIGS[:2])


def test_baseline_graph_sample_matches_the_object_reference():
    bundle = load_dataset("dblp", seed=2021, communities=12, community_size=32)
    pairs = generate_query_pairs(bundle, QuerySpec(count=4), seed=11)
    _assert_parity(bundle.graph, pairs, configs=CONFIGS[:2])


def test_serving_path_builds_no_label_group():
    bundle = load_dataset("dblp", seed=2021, communities=4, community_size=24)
    pairs = generate_query_pairs(bundle, QuerySpec(count=3), seed=2)
    engine = BCCEngine(bundle.graph).prepare()
    engine.ensure_index()
    for method in METHODS:
        engine.explain(Query(method, pairs[0]))
    engine.search_many([Query(method, pair) for pair in pairs for method in METHODS])
    counters = engine.counters_snapshot()
    assert counters["group_builds"] == 0
    assert counters["csr_freezes"] == 1


def test_attached_engine_reads_group_coreness_from_the_snapshot(tmp_path, monkeypatch):
    import repro.graph.csr as csr_module
    from repro.store import Snapshot, attach_engine, persist_engine

    def load():
        return load_dataset("dblp", seed=2021, communities=4, community_size=24)

    bundle = load()
    pairs = generate_query_pairs(bundle, QuerySpec(count=2), seed=2)
    built = BCCEngine(bundle.graph).prepare()
    expected = [built.search(Query("lp-bcc", pair)) for pair in pairs]
    path = tmp_path / "graph.bccsnap"
    persist_engine(built, path)

    def no_peel(slices):
        raise AssertionError("an attached engine must not re-peel group coreness")

    monkeypatch.setattr(csr_module, "core_numbers", no_peel)
    attached = attach_engine(load().graph, Snapshot(path))
    got = [attached.search(Query("lp-bcc", pair)) for pair in pairs]
    assert [_fields(r) for r in got] == [_fields(r) for r in expected]
    assert attached.counters_snapshot()["group_builds"] == 0


def test_closed_candidates_are_not_peeled(monkeypatch):
    """|V| <= η on this graph, so every L2P candidate is closed and keeps
    the snapshot's group coreness: no search peels its label groups."""
    bundle = load_dataset("dblp", seed=2021, communities=12, community_size=32)
    pairs = generate_query_pairs(bundle, QuerySpec(count=8), seed=11)
    engine = BCCEngine(bundle.graph, SearchConfig(b=1, max_iterations=60)).prepare()
    engine.ensure_index()
    queries = [Query("l2p-bcc", pair) for pair in pairs]
    expected = [_fields(engine.search(query, use_cache=False)) for query in queries]

    def no_peel(slices):
        raise AssertionError("a closed candidate must not be peeled")

    monkeypatch.setattr(pipeline, "core_numbers", no_peel)
    got = [_fields(engine.search(query, use_cache=False)) for query in queries]
    assert got == expected
    assert sum(row["status"] == "ok" for row in got) >= 6


def test_closed_candidate_skips_the_repeated_global_fallback(monkeypatch):
    """A closed, unpeeled candidate's search is the global LP-BCC search:
    when it finds nothing, neither runner reruns it as the fallback."""
    import repro.core.local_search as local_search

    bundle = load_dataset("dblp", seed=2021, communities=12, community_size=32)
    pairs = generate_query_pairs(bundle, QuerySpec(count=8), seed=11)
    config = SearchConfig(b=10_000)
    engine = BCCEngine(bundle.graph, config).prepare()
    index = engine.ensure_index()
    searches, object_searches = [], []
    lp_search, run_lp = pipeline._lp_search, local_search.run_lp_bcc

    def spy(*args):
        searches.append(args)
        return lp_search(*args)

    def object_spy(*args, **kwargs):
        object_searches.append(args)
        return run_lp(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_lp_search", spy)
    monkeypatch.setattr(local_search, "run_lp_bcc", object_spy)
    for pair in pairs:
        response = engine.search(Query("l2p-bcc", pair), use_cache=False)
        assert response.status == STATUS_EMPTY
        assert "fallback_to_global" not in response.instrumentation.as_dict()
        with pytest.raises(EmptyCommunityError):
            run_l2p_bcc(bundle.graph, *pair, b=config.b, index=index)
    assert len(searches) == len(object_searches) == len(pairs)


@pytest.mark.parametrize("eta", [12, 400])
def test_candidate_within_eta_holds_every_qualifying_neighbour(monkeypatch, eta):
    """Both runners call ``G_t`` closed when ``|G_t| <= η``: it then holds
    every neighbour of its ids that carries a query label at or above that
    side's threshold coreness."""
    expand = pipeline._expand_candidate
    closed = []

    def spy(csr, path, labels, thresholds, eta):
        candidate = expand(csr, path, labels, thresholds, eta)
        if len(candidate) <= eta:
            threshold = dict(zip(labels, thresholds))
            coreness, slices = csr.group_coreness(), csr.adjacency_slices()
            assert not [
                w
                for v in candidate
                for w in slices[v]
                if w not in candidate
                and coreness[w] >= threshold.get(csr.labels[w], math.inf)
            ]
            closed.append(len(candidate))
        return candidate

    monkeypatch.setattr(pipeline, "_expand_candidate", spy)
    for seed in range(16):
        graph, pairs = _random_case(seed, ("A", "B", "C"))
        engine = BCCEngine(graph, SearchConfig(eta=eta)).prepare()
        for pair in pairs:
            engine.search(Query("l2p-bcc", pair), use_cache=False)
    assert len(closed) >= 16


@pytest.mark.parametrize("case", ["random", "baseline"])
def test_closed_candidate_coreness_is_the_group_coreness(monkeypatch, case):
    """Inside a closed candidate, each query's component of its label group
    peels to the group coreness the snapshot already holds."""
    if case == "random":
        cases = [_random_case(seed, ("A", "B", "C")) for seed in range(16)]
    else:
        bundle = load_dataset("dblp", seed=2021, communities=12, community_size=32)
        cases = [(bundle.graph, generate_query_pairs(bundle, QuerySpec(count=12), seed=5))]
    cut = []
    expand = pipeline._expand_candidate

    def spy(*args):
        candidate = expand(*args)
        cut.append((candidate, len(candidate) <= args[-1]))  # closed: |G_t| <= η
        return candidate

    monkeypatch.setattr(pipeline, "_expand_candidate", spy)
    checked = 0
    for graph, pairs in cases:
        engine = BCCEngine(graph).prepare()
        csr = engine.frozen_graph(split=True)
        for pair in pairs:
            cut.clear()
            engine.search(Query("l2p-bcc", pair), use_cache=False)
            if not cut or not cut[0][1]:
                continue
            queries = tuple(map(csr.id_of, pair))
            peeled = pipeline._candidate_coreness(
                queries, csr.label_split()[0], cut[0][0], len(csr.labels)
            )
            components = [v for v, c in enumerate(peeled) if c >= 0]
            assert set(queries) <= set(components) <= cut[0][0]
            group = csr.group_coreness()
            assert [peeled[v] for v in components] == [group[v] for v in components]
            checked += 1
    assert checked >= 12

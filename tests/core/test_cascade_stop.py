"""Algorithm 4 ends a step at the first peeled query vertex.

Def. 4 requires Q inside the community, so a step whose cascade deletes a
query vertex has failed: ``pipeline._Community._cascade`` stops there and
``maintain`` skips the other side's cascade.  No caller reads that step's
community, so only ``vertices_deleted`` could see the cut, and a failed step
adds no deletions on either backend: the count never depends on peel order.
The greedy sweeps never offer a query id for deletion, so a step fails on a
query vertex only through the cascade.
"""

from __future__ import annotations

import random

import pytest

from repro.api import BCCEngine, Query, SearchConfig
from repro.core import pipeline
from repro.core.bcc_model import BCCParameters
from repro.core.local_search import run_l2p_bcc
from repro.core.lp_bcc import run_lp_bcc
from repro.core.online_bcc import distance_sweep, run_online_bcc
from repro.core.query_distance import LevelDistances, farthest_ids, farthest_in_levels
from repro.eval.instrumentation import SearchInstrumentation
from repro.graph.csr import adjacency_bit_rows, csr_bfs_distances, ids_bits
from repro.graph.generators import random_labeled_graph
from repro.graph.labeled_graph import LabeledGraph

CONFIG = SearchConfig(b=1, max_iterations=60)


def _two_cycles() -> LabeledGraph:
    """Label A: the 4-cycle ql-a1-a2-a3 and a triangle a4-a5-a6 hung off a2
    by a4; label B: the 4-cycle qr-b1-b2-b3; across, the one butterfly
    (ql, a1 | qr, b1).  Every group coreness is 2."""
    graph = LabeledGraph()
    for vertex in ("ql", "a1", "a2", "a3", "a4", "a5", "a6"):
        graph.add_vertex(vertex, label="A")
    for vertex in ("qr", "b1", "b2", "b3"):
        graph.add_vertex(vertex, label="B")
    for edge in (
        ("ql", "a1"), ("a1", "a2"), ("a2", "a3"), ("a3", "ql"),
        ("a2", "a4"), ("a4", "a5"), ("a5", "a6"), ("a6", "a4"),
        ("qr", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "qr"),
        ("ql", "qr"), ("ql", "b1"), ("a1", "qr"), ("a1", "b1"),
    ):
        graph.add_edge(*edge)
    return graph


def test_a_left_cascade_that_peels_q_left_ends_the_step():
    csr = _two_cycles().freeze()
    ids = {vertex: csr.id_of(vertex) for vertex in csr.interner.vertices()}
    inst = SearchInstrumentation()
    community, _ = pipeline._find_g0(
        csr, ids["ql"], ids["qr"], BCCParameters(k1=2, k2=2, b=1), inst
    )
    left_before = set(community.left)
    right_before = set(community.right)
    right_deg = {v: community.deg[v] for v in right_before}
    butterfly_calls = inst.butterfly_counting_calls

    # Deleting a2 drops a1 and a3 to one A neighbour; whichever peels first
    # drops ql to one, and ql is the next id peeled.
    valid, removed = community.maintain([ids["a2"]], True, inst)

    assert not valid
    assert len(removed) == 3
    assert removed[0] == ids["a2"] and removed[-1] == ids["ql"]
    assert community.left == left_before - set(removed)
    # The peel stopped at ql: one of a1 / a3 is still there.
    assert len({ids["a1"], ids["a3"]} & community.left) == 1
    assert community.alive == community.left | community.right
    assert community.right == right_before
    assert {v: community.deg[v] for v in right_before} == right_deg
    assert inst.butterfly_counting_calls == butterfly_calls


def _counts(stats):
    return stats["iterations"], stats["vertices_deleted"], stats["butterfly_counting_calls"]


@pytest.mark.parametrize("method", ["online-bcc", "lp-bcc", "l2p-bcc"])
def test_a_failed_step_adds_no_deletions(method):
    """By hand: the first step deletes a5 and a6 (query distance 4), and the
    cascade takes a4; the second deletes a2, a3, b2 and b3 (distance 2) and
    peels ql on the way, so it fails.  The answer is the 8 ids of the two
    4-cycles, after 2 iterations that deleted 3 ids."""
    graph = _two_cycles()
    engine = BCCEngine(graph, CONFIG).prepare()
    response = engine.search(Query(method, ("ql", "qr")), use_cache=False)
    stats = response.instrumentation.as_dict()
    assert response.status == "ok"
    assert set(response.vertices) == {"ql", "a1", "a2", "a3", "qr", "b1", "b2", "b3"}
    assert response.query_distance == 2
    assert stats["iterations"] == 2
    assert stats["vertices_deleted"] == 3

    runner = {"online-bcc": run_online_bcc, "lp-bcc": run_lp_bcc, "l2p-bcc": run_l2p_bcc}[method]
    kwargs = {"index": engine.ensure_index()} if method == "l2p-bcc" else {}
    reference = runner(graph, "ql", "qr", b=1, max_iterations=60, **kwargs)
    assert _counts(reference.statistics) == _counts(stats)
    assert set(reference.vertices) == set(response.vertices)


@pytest.mark.parametrize("seed", range(8))
def test_no_sweep_offers_a_query_id(seed):
    rng = random.Random(seed)
    csr = random_labeled_graph(40, 0.1, ["A", "B"], seed=seed).freeze()
    rows = adjacency_bit_rows(csr.adjacency_slices())
    ids = range(csr.num_vertices())
    checked = 0
    for trial in range(24):
        q_left, q_right = rng.sample(ids, 2)
        keep = 0.0 if trial == 0 else rng.random()
        alive = {q_left, q_right} | {v for v in ids if rng.random() < keep}
        queries = {q_left, q_right}
        for table in (None, rows):
            _, candidates, _ = distance_sweep(csr, q_left, q_right, alive, table)
            assert not queries & set(candidates)
        dists = [csr_bfs_distances(csr, q, alive=alive) for q in (q_left, q_right)]
        _, candidates, _ = farthest_ids(alive, *dists, q_left, q_right)
        assert not queries & set(candidates)
        levels = [LevelDistances(rows, q, ids_bits(alive)) for q in (q_left, q_right)]
        _, candidates, _ = farthest_in_levels(*levels, q_left, q_right)
        assert not queries & set(candidates)
        checked += len(alive) > 2
    assert checked >= 20

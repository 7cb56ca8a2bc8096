"""Unit tests for Algorithms 6 and 7 (leader pair identification and update)."""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.core.butterfly import butterfly_degree_of, butterfly_degrees
from repro.core.leader_pair import (
    Leader,
    LeaderPairTracker,
    identify_leader,
    identify_leader_pair,
    side_max_leader,
    updated_leader_degree,
)
from repro.core.pipeline import _find_g0, resolve_parameters
from repro.datasets import load_dataset
from repro.eval.instrumentation import SearchInstrumentation
from repro.eval.queries import QuerySpec, generate_query_pairs
from repro.graph.bipartite import BipartiteView, extract_label_bipartite
from repro.graph.generators import paper_small_example_graph, random_bipartite_graph


def figure3_setup():
    graph = paper_small_example_graph()
    left = graph.label_induced_subgraph("L")
    right = graph.label_induced_subgraph("R")
    bipartite = extract_label_bipartite(graph, "L", "R")
    degrees = butterfly_degrees(bipartite)
    return graph, left, right, bipartite, degrees


class TestIdentifyLeader:
    def test_example5_left_leader_is_v1_or_v3(self):
        _, left, _, _, degrees = figure3_setup()
        leader = identify_leader(left, "ql", degrees, b=1, rho=3)
        # Example 5 picks v1; v3 is symmetric (same degree, same distance).
        assert leader.vertex in {"v1", "v3"}
        assert leader.butterfly_degree == 6

    def test_example5_right_leader(self):
        _, _, right, _, degrees = figure3_setup()
        leader = identify_leader(right, "qr", degrees, b=1, rho=3)
        assert leader.vertex in {"u2", "u3", "u5", "u6"}
        assert leader.butterfly_degree == 3

    def test_query_returned_when_it_has_large_degree(self):
        _, left, _, _, degrees = figure3_setup()
        boosted = dict(degrees)
        boosted["ql"] = 100
        leader = identify_leader(left, "ql", boosted, b=1, rho=2)
        assert leader.vertex == "ql"

    def test_query_returned_when_no_candidate_qualifies(self):
        _, left, _, _, _ = figure3_setup()
        zero = {v: 0 for v in left.vertices()}
        leader = identify_leader(left, "ql", zero, b=1, rho=2)
        assert leader.vertex == "ql"
        assert leader.butterfly_degree == 0

    def test_identify_leader_pair(self):
        _, left, right, _, degrees = figure3_setup()
        left_leader, right_leader = identify_leader_pair(
            left, right, "ql", "qr", degrees, b=1, rho=3
        )
        assert left_leader.vertex in {"v1", "v3"}
        assert right_leader.vertex in {"u2", "u3", "u5", "u6"}


class TestUpdatedLeaderDegree:
    def test_example6_same_label_update(self):
        """Deleting u6 lowers chi(u2) from 3 to 2 (Example 6, part 1)."""
        _, _, _, bipartite, degrees = figure3_setup()
        loss = updated_leader_degree(bipartite, "u2", True, "u6")
        assert loss == 1
        assert degrees["u2"] - loss == 2

    def test_example6_cross_label_update(self):
        """Deleting u6 lowers chi(v1) from 6 to 3 (Example 6, part 2)."""
        _, _, _, bipartite, degrees = figure3_setup()
        loss = updated_leader_degree(bipartite, "v1", False, "u6")
        assert loss == 3
        assert degrees["v1"] - loss == 3

    def test_no_loss_when_not_adjacent_cross_side(self):
        _, _, _, bipartite, _ = figure3_setup()
        # u9 has no cross edges, so deleting it cannot change any chi.
        assert updated_leader_degree(bipartite, "v1", False, "u9") == 0

    def test_no_loss_for_missing_vertices(self):
        _, _, _, bipartite, _ = figure3_setup()
        assert updated_leader_degree(bipartite, "v1", True, "nope") == 0
        assert updated_leader_degree(bipartite, "v1", False, "v1") == 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_update_matches_recount_on_random_graphs(self, seed):
        rng = random.Random(seed)
        graph = random_bipartite_graph(
            [f"l{i}" for i in range(6)],
            [f"r{i}" for i in range(6)],
            0.5,
            seed=seed,
        )
        bipartite = extract_label_bipartite(graph, "L", "R")
        degrees = butterfly_degrees(bipartite)
        vertices = [v for v in bipartite.vertices()]
        leader = max(vertices, key=lambda v: degrees.get(v, 0))
        deletable = [v for v in vertices if v != leader]
        victim = rng.choice(deletable)
        same_side = (victim in bipartite.left()) == (leader in bipartite.left())
        loss = updated_leader_degree(bipartite, leader, same_side, victim)
        bipartite.remove_vertex(victim)
        recounted = butterfly_degrees(bipartite).get(leader, 0)
        assert degrees[leader] - loss == recounted


def tracker_over(view, degrees, q_left, q_right, **kwargs):
    """A tracker that counts on ``view``, the community its caller shrinks,
    holding the side-max leaders of ``degrees``."""
    tracker = LeaderPairTracker(
        lambda: (view.left(), view.right()),
        partial(butterfly_degree_of, view),
        partial(butterfly_degrees, view),
        q_left,
        q_right,
        **kwargs,
    )
    tracker.set_leaders(
        side_max_leader(view.left(), degrees, q_left),
        side_max_leader(view.right(), degrees, q_right),
    )
    return tracker


def delete(view, tracker, vertices):
    """The caller-applies-deletions contract: shrink the view, then tell."""
    view.remove_vertices(vertices)
    tracker.remove_vertices(vertices)


class TestLeaderPairTracker:
    def test_tracker_keeps_leaders_consistent_with_recount(self):
        graph, left, right, bipartite, degrees = figure3_setup()
        view = bipartite.copy()
        tracker = tracker_over(view, degrees, "ql", "qr", b=1)
        left_leader, right_leader = identify_leader_pair(
            left, right, "ql", "qr", degrees, b=1
        )
        tracker.set_leaders(left_leader, right_leader)
        delete(view, tracker, ["u6"])
        tracked_left, tracked_right = tracker.leaders()
        fresh = butterfly_degrees(view)
        assert tracked_left.butterfly_degree == fresh.get(tracked_left.vertex, 0)
        assert tracked_right.butterfly_degree == fresh.get(tracked_right.vertex, 0)

    def test_revalidate_without_recount_when_leaders_hold(self):
        graph, left, right, bipartite, degrees = figure3_setup()
        inst = SearchInstrumentation()
        tracker = tracker_over(
            bipartite.copy(), degrees, "ql", "qr", b=1, instrumentation=inst
        )
        assert tracker.revalidate()
        assert tracker.full_recounts == 0
        assert inst.butterfly_counting_calls == 0

    def test_revalidate_recounts_when_leader_deleted(self):
        graph, left, right, bipartite, degrees = figure3_setup()
        view = bipartite.copy()
        tracker = tracker_over(view, degrees, "ql", "qr", b=1)
        left_leader, _ = tracker.leaders()
        delete(view, tracker, [left_leader.vertex])
        # Every butterfly of Figure 3 needs both v1 and v3 on the left, so
        # deleting the left leader destroys them all: revalidation must run a
        # full recount (Algorithm 3) and then report failure.
        assert not tracker.revalidate()
        assert tracker.full_recounts == 1

    def test_revalidate_recovers_with_alternative_leader(self):
        """When the tracked leader dies but another qualifying vertex exists,
        the recount installs it and revalidation succeeds."""
        view = BipartiteView(
            ["l0", "l1", "l2"],
            ["r0", "r1"],
            [(u, v) for u in ("l0", "l1", "l2") for v in ("r0", "r1")],
        )
        degrees = butterfly_degrees(view)
        tracked = view.copy()
        tracker = tracker_over(tracked, degrees, "l0", "r0", b=1)
        left_leader, _ = tracker.leaders()
        delete(tracked, tracker, [left_leader.vertex])
        assert tracker.revalidate()
        assert tracker.full_recounts == 1
        new_left, new_right = tracker.leaders()
        assert new_left.butterfly_degree >= 1
        assert new_right.butterfly_degree >= 1

    def test_revalidate_fails_when_no_leader_possible(self):
        graph, left, right, bipartite, degrees = figure3_setup()
        view = bipartite.copy()
        tracker = tracker_over(view, degrees, "ql", "qr", b=1)
        # Remove every right-side vertex that participates in butterflies.
        delete(view, tracker, ["u2", "u3", "u5", "u6"])
        assert not tracker.revalidate()

    def test_leader_pair_accessor(self):
        graph, left, right, bipartite, degrees = figure3_setup()
        tracker = tracker_over(bipartite.copy(), degrees, "ql", "qr", b=1)
        pair = tracker.leader_pair()
        assert pair is not None
        assert len(pair) == 2

    def test_fresh_tracker_holds_no_leaders(self):
        """The caller installs Algorithm 6's pair; the tracker picks none."""
        graph, left, right, bipartite, degrees = figure3_setup()
        view = bipartite.copy()
        tracker = LeaderPairTracker(
            lambda: (view.left(), view.right()),
            partial(butterfly_degree_of, view),
            partial(butterfly_degrees, view),
            "ql",
            "qr",
            b=1,
        )
        assert tracker.leaders() == (None, None)
        assert tracker.leader_pair() is None


def _batches(view, leaders, rng):
    """Multi-vertex deletion batches drawn from both sides of ``view``.

    Each batch mixes vertices adjacent to a leader with vertices that are
    not, and the third batch also takes the second leader.
    """
    batches = []
    alive = set(view.vertices()) - set(leaders)
    for round_ in range(3):
        adjacent = sorted(
            (v for v in alive if any(v in view.neighbors(p) for p in leaders)), key=repr
        )
        distant = sorted(alive.difference(adjacent), key=repr)
        batch = rng.sample(adjacent, min(2, len(adjacent)))
        batch += rng.sample(distant, min(2, len(distant)))
        if round_ == 2:
            batch.append(leaders[1])
        alive.difference_update(batch)
        batches.append(batch)
    return batches


class TestTelescopingLeaderUpdate:
    """A batch's per-vertex Algorithm 7 losses sum to the tracker's recount."""

    @pytest.mark.parametrize("seed", range(8))
    def test_batch_update_equals_per_vertex_losses(self, seed):
        rng = random.Random(seed)
        graph = random_bipartite_graph(
            [f"l{i}" for i in range(9)],
            [f"r{i}" for i in range(8)],
            0.55,
            seed=seed,
        )
        bipartite = extract_label_bipartite(graph, "L", "R")
        degrees = butterfly_degrees(bipartite)
        leaders = []
        for side in (bipartite.left(), bipartite.right()):
            vertex = max(sorted(side, key=repr), key=degrees.__getitem__)
            leaders.append(Leader(vertex, degrees[vertex]))
        tracked, replayed = bipartite.copy(), bipartite.copy()
        tracker = tracker_over(tracked, degrees, "l0", "r0", b=1)
        tracker.set_leaders(*leaders)
        expected = {leader.vertex: leader.butterfly_degree for leader in leaders}
        for batch in _batches(bipartite, [l.vertex for l in leaders], rng):
            for vertex in batch:
                for p in expected:
                    if p in replayed and p != vertex:
                        same_side = replayed.side(p) == replayed.side(vertex)
                        expected[p] -= updated_leader_degree(replayed, p, same_side, vertex)
                replayed.remove_vertex(vertex)
            delete(tracked, tracker, batch)
            for leader in tracker.leaders():
                if leader is None:
                    continue
                assert leader.butterfly_degree == expected[leader.vertex]
                assert leader.butterfly_degree == butterfly_degree_of(
                    replayed, leader.vertex
                )
        # The last batch took the second leader: the tracker dropped it.
        assert tracker.leaders()[1] is None
        assert tracker.leaders()[0] is not None


class TestCommunityButterflyDegreeOf:
    """The pipeline's one-vertex χ equals Algorithm 3 on dblp G0s."""

    def test_equals_full_count_on_shrinking_g0s(self):
        bundle = load_dataset("dblp", seed=2021, communities=12, community_size=32)
        graph = bundle.graph
        csr = graph.freeze()
        rng = random.Random(2021)
        checked = 0
        for q_left, q_right in generate_query_pairs(bundle, QuerySpec(count=30), seed=2021):
            parameters = resolve_parameters(csr, q_left, q_right)
            found = _find_g0(
                csr, csr.id_of(q_left), csr.id_of(q_right), parameters,
                SearchInstrumentation(),
            )
            if found is None:
                continue
            community, chi = found
            assert {v: community.butterfly_degree_of(v) for v in community.alive} == chi
            for _ in range(3):
                queries = {community.q_left, community.q_right}
                batch = rng.sample(sorted(community.alive - queries), 3)
                valid, _ = community.maintain(batch, False, SearchInstrumentation())
                if not valid:
                    break
                fresh = community.butterfly_degrees()
                assert {v: community.butterfly_degree_of(v) for v in community.alive} == fresh
                checked += 1
        assert checked >= 10

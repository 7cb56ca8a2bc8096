"""Unit tests for Algorithm 5 (fast query-distance computation)."""

from __future__ import annotations

import math
import random

import pytest

from repro.core.query_distance import QueryDistanceTracker
from repro.graph.generators import paper_small_example_graph, planted_partition_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.traversal import bfs_distances


def reference_distances(graph, queries):
    """Recompute distances from scratch for comparison."""
    out = {}
    for q in queries:
        if q not in graph:
            out[q] = {}
            continue
        reached = bfs_distances(graph, q)
        out[q] = {
            v: float(reached.get(v, math.inf)) for v in graph.vertices()
        }
    return out


class TestExample4:
    """The worked example of Section 6.1 (Table 2)."""

    def test_initial_distances_match_table2(self):
        g = paper_small_example_graph()
        tracker = QueryDistanceTracker(g, ["ql", "qr"])
        assert tracker.distance("u9", "ql") == 4
        assert tracker.distance("u9", "qr") == 1
        assert tracker.distance("u4", "qr") == 2
        assert tracker.distance("u7", "qr") == 2
        assert tracker.query_distance("u9") == 4

    def test_deleting_u9_updates_only_affected_vertices(self):
        g = paper_small_example_graph()
        tracker = QueryDistanceTracker(g, ["ql", "qr"])
        g.remove_vertex("u9")
        tracker.remove_vertices(["u9"])
        # Example 4: u4 and u7 move from distance 2 to 3 w.r.t. q_r.
        assert tracker.distance("u4", "qr") == 3
        assert tracker.distance("u7", "qr") == 3
        # Distances to q_l are unchanged.
        assert tracker.distance("u4", "ql") == 3
        assert tracker.distance("u1", "ql") == 3
        # And all distances agree with a fresh BFS.
        reference = reference_distances(g, ["ql", "qr"])
        for q in ("ql", "qr"):
            for v in g.vertices():
                assert tracker.distance(v, q) == reference[q][v]

    def test_farthest_vertices_after_deletion(self):
        g = paper_small_example_graph()
        tracker = QueryDistanceTracker(g, ["ql", "qr"])
        vertices, distance = tracker.farthest_vertices()
        assert vertices == ["u9"] and distance == 4
        g.remove_vertex("u9")
        tracker.remove_vertices(["u9"])
        vertices, distance = tracker.farthest_vertices()
        assert set(vertices) == {"v2", "u1", "u4", "u6", "u7"}
        assert distance == 3


def reference_farthest(graph, queries, reference):
    """The non-query vertices at maximum query distance, in graph order."""
    by_vertex = {
        v: max(reference[q][v] for q in queries)
        for v in graph.vertices()
        if v not in queries
    }
    worst = max(by_vertex.values(), default=-1.0)
    return [v for v, d in by_vertex.items() if d == worst], worst


class TestCorrectnessAgainstRecomputation:
    @pytest.mark.parametrize(
        "size, p_out, deletions, seed",
        [(12, 0.05, 12, seed) for seed in range(3)]
        + [(14, 0.06, 15, seed) for seed in range(8)],
    )
    def test_random_deletion_sequences(self, size, p_out, deletions, seed):
        rng = random.Random(seed)
        graph, communities = planted_partition_graph(
            [size, size], 0.4, p_out, seed=seed
        )
        queries = [communities[0][0], communities[1][0]]
        tracker = QueryDistanceTracker(graph, queries)
        deletable = [v for v in graph.vertices() if v not in queries]
        rng.shuffle(deletable)
        for batches, start in enumerate(range(0, deletions, 3), start=1):
            batch = deletable[start : start + 3]
            graph.remove_vertices(batch)
            tracker.remove_vertices(batch)
            reference = reference_distances(graph, queries)
            for q in queries:
                for v in graph.vertices():
                    assert tracker.distance(v, q) == reference[q][v], (
                        f"seed={seed} vertex={v} query={q}"
                    )
            farthest, worst = reference_farthest(graph, queries, reference)
            assert tracker.farthest_vertices() == (farthest, worst)
            assert tracker.graph_query_distance() == max(
                max(reference[q].values()) for q in queries
            )
            assert tracker.full_recomputations == len(queries)
            assert tracker.partial_updates == batches * len(queries)

    def test_deleting_query_vertex(self):
        graph, communities = planted_partition_graph([10, 10], 0.5, 0.1, seed=3)
        queries = [communities[0][0], communities[1][0]]
        tracker = QueryDistanceTracker(graph, queries)
        graph.remove_vertex(queries[0])
        tracker.remove_vertices([queries[0]])
        assert math.isinf(tracker.distance(communities[1][1], queries[0]))
        survivor = reference_distances(graph, queries[1:])[queries[1]]
        for v in graph.vertices():
            assert math.isinf(tracker.distance(v, queries[0]))
            assert tracker.distance(v, queries[1]) == survivor[v]

    def test_unreachable_vertices_get_infinity(self):
        g = LabeledGraph(edges=[(0, 1), (1, 2), (3, 4)])
        tracker = QueryDistanceTracker(g, [0])
        assert math.isinf(tracker.distance(3, 0))
        assert math.isinf(tracker.query_distance(3))
        assert math.isinf(tracker.graph_query_distance())

    def test_disconnecting_deletion(self):
        g = LabeledGraph(edges=[(0, 1), (1, 2), (2, 3)])
        tracker = QueryDistanceTracker(g, [0])
        g.remove_vertex(1)
        tracker.remove_vertices([1])
        assert math.isinf(tracker.distance(2, 0))
        assert math.isinf(tracker.distance(3, 0))

    def test_deleting_unreachable_vertex_changes_nothing(self):
        g = LabeledGraph(edges=[(0, 1), (2, 3)])
        tracker = QueryDistanceTracker(g, [0])
        g.remove_vertex(3)
        tracker.remove_vertices([3])
        assert tracker.distance(1, 0) == 1
        assert tracker.partial_updates >= 1


class TestBookkeeping:
    def test_partial_updates_counted(self):
        g = paper_small_example_graph()
        tracker = QueryDistanceTracker(g, ["ql", "qr"])
        assert tracker.full_recomputations == 2
        g.remove_vertex("u9")
        tracker.remove_vertices(["u9"])
        assert tracker.partial_updates >= 1

    def test_empty_deletion_is_noop(self):
        g = paper_small_example_graph()
        tracker = QueryDistanceTracker(g, ["ql", "qr"])
        tracker.remove_vertices([])
        assert tracker.partial_updates == 0

    def test_deleting_query_vertex_clears_its_map(self):
        g = paper_small_example_graph()
        tracker = QueryDistanceTracker(g, ["ql", "qr"])
        g.remove_vertex("qr")
        tracker.remove_vertices(["qr"])
        assert math.isinf(tracker.distance("u1", "qr"))

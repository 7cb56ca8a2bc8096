"""Unit tests for the query-workload generators (Section 8 parameters)."""

from __future__ import annotations

import pytest

from repro.datasets import load_dataset
from repro.eval.queries import (
    QuerySpec,
    degree_rank_threshold,
    eligible_vertices,
    generate_multilabel_queries,
    generate_query_pairs,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.traversal import distance_between


class TestQuerySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuerySpec(degree_rank=0.0)
        with pytest.raises(ValueError):
            QuerySpec(degree_rank=1.5)
        with pytest.raises(ValueError):
            QuerySpec(inter_distance=0)
        with pytest.raises(ValueError):
            QuerySpec(count=0)

    def test_defaults_match_paper(self):
        spec = QuerySpec()
        assert spec.degree_rank == 0.8
        assert spec.inter_distance == 1


class TestDegreeRank:
    def star_graph(self) -> LabeledGraph:
        g = LabeledGraph()
        g.add_vertex("hub", label="A")
        for i in range(9):
            g.add_vertex(i, label="B")
            g.add_edge("hub", i)
        return g

    def test_threshold(self):
        g = self.star_graph()
        # 90% of vertices have degree 1; the hub has degree 9.
        assert degree_rank_threshold(g, 0.8) == 1
        assert degree_rank_threshold(g, 0.95) == 9

    def test_eligible_vertices(self):
        g = self.star_graph()
        assert set(eligible_vertices(g, 0.95)) == {"hub"}
        assert len(eligible_vertices(g, 0.5)) == 10

    def test_empty_graph(self):
        assert degree_rank_threshold(LabeledGraph(), 0.8) == 0


class TestGenerateQueryPairs:
    def test_pairs_have_distinct_labels(self, tiny_baidu_bundle):
        pairs = generate_query_pairs(tiny_baidu_bundle, QuerySpec(count=5), seed=1)
        assert pairs
        graph = tiny_baidu_bundle.graph
        for q_left, q_right in pairs:
            assert graph.label(q_left) != graph.label(q_right)

    def test_inter_distance_respected(self, tiny_baidu_bundle):
        graph = tiny_baidu_bundle.graph
        for distance in (1, 2):
            pairs = generate_query_pairs(
                tiny_baidu_bundle,
                QuerySpec(count=3, inter_distance=distance),
                seed=2,
            )
            for q_left, q_right in pairs:
                assert distance_between(graph, q_left, q_right) == distance

    def test_pairs_within_ground_truth(self, tiny_baidu_bundle):
        pairs = generate_query_pairs(tiny_baidu_bundle, QuerySpec(count=5), seed=3)
        for q_left, q_right in pairs:
            assert tiny_baidu_bundle.community_for_query(q_left, q_right) is not None

    def test_whole_graph_mode(self, tiny_baidu_bundle):
        pairs = generate_query_pairs(
            tiny_baidu_bundle, QuerySpec(count=5), seed=4, within_ground_truth=False
        )
        assert pairs

    def test_deterministic_for_seed(self, tiny_baidu_bundle):
        a = generate_query_pairs(tiny_baidu_bundle, QuerySpec(count=4), seed=5)
        b = generate_query_pairs(tiny_baidu_bundle, QuerySpec(count=4), seed=5)
        assert a == b

    def test_a_cached_snapshot_does_not_change_the_draw(self):
        bundle = load_dataset("dblp", seed=7)
        cold = generate_query_pairs(bundle, QuerySpec(count=6), seed=3)
        bundle.graph.freeze()  # as a prepared engine leaves it
        assert generate_query_pairs(bundle, QuerySpec(count=6), seed=3) == cold

    def test_impossible_spec_returns_fewer_pairs(self, tiny_baidu_bundle):
        pairs = generate_query_pairs(
            tiny_baidu_bundle, QuerySpec(count=3, inter_distance=50), seed=6
        )
        assert pairs == []


class TestMultilabelQueries:
    def test_label_count_and_distinctness(self):
        from repro.datasets import generate_baidu_network

        bundle = generate_baidu_network("tiny", seed=4, project_labels=3)
        queries = generate_multilabel_queries(bundle, 3, count=4, seed=7)
        assert queries
        graph = bundle.graph
        for query in queries:
            assert len(query) == 3
            labels = {graph.label(v) for v in query}
            assert len(labels) == 3

    def test_falls_back_to_whole_graph(self, tiny_snap_bundle):
        queries = generate_multilabel_queries(tiny_snap_bundle, 2, count=3, seed=8)
        assert queries
        for query in queries:
            labels = {tiny_snap_bundle.graph.label(v) for v in query}
            assert len(labels) == 2

    def test_unsatisfiable_label_count(self, tiny_snap_bundle):
        queries = generate_multilabel_queries(tiny_snap_bundle, 10, count=3, seed=9)
        assert queries == []

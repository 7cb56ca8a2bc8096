"""Unit tests for the multi-labeled BCC extension (Section 7, Algorithm 9)."""

from __future__ import annotations

import pytest

from repro.core.multilabel import cross_group_connected, find_mbcc_candidate
from repro.datasets import generate_baidu_network
from repro.exceptions import QueryError
from repro.graph.generators import paper_example_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.traversal import are_connected
from tests.conftest import search_result


def three_group_graph() -> LabeledGraph:
    """Three label groups A-B-C where A-B and B-C interact but A-C do not."""
    g = LabeledGraph()
    groups = {
        "A": ["a0", "a1", "a2"],
        "B": ["b0", "b1", "b2"],
        "C": ["c0", "c1", "c2"],
    }
    for label, members in groups.items():
        for v in members:
            g.add_vertex(v, label=label)
        g.add_edge(members[0], members[1])
        g.add_edge(members[1], members[2])
        g.add_edge(members[0], members[2])
    # Butterfly between A and B, and between B and C; nothing between A and C.
    for u in ("a0", "a1"):
        for v in ("b0", "b1"):
            g.add_edge(u, v)
    for u in ("b0", "b2"):
        for v in ("c0", "c1"):
            g.add_edge(u, v)
    return g


class TestCrossGroupConnectivity:
    def test_connected_via_path(self):
        assert cross_group_connected(["A", "B", "C"], [("A", "B"), ("B", "C")])

    def test_disconnected(self):
        assert not cross_group_connected(["A", "B", "C"], [("A", "B")])

    def test_single_label_trivially_connected(self):
        assert cross_group_connected(["A"], [])

    def test_edges_with_unknown_labels_ignored(self):
        assert cross_group_connected(["A", "B"], [("A", "B"), ("X", "Y")])


class TestCandidate:
    def test_candidate_on_three_groups(self):
        g = three_group_graph()
        candidate = find_mbcc_candidate(
            g, ["a0", "b0", "c0"], {"A": 2, "B": 2, "C": 2}, b=1
        )
        assert candidate is not None
        assert candidate.num_vertices() == 9
        assert are_connected(candidate, ["a0", "b0", "c0"])

    def test_candidate_fails_when_a_pair_is_not_connected(self):
        g = three_group_graph()
        # Remove the B-C butterflies so the label interaction graph splits.
        for u in ("b0", "b2"):
            for v in ("c0", "c1"):
                g.remove_edge(u, v)
        candidate = find_mbcc_candidate(
            g, ["a0", "b0", "c0"], {"A": 2, "B": 2, "C": 2}, b=1
        )
        assert candidate is None

    def test_candidate_fails_when_core_impossible(self):
        g = three_group_graph()
        candidate = find_mbcc_candidate(
            g, ["a0", "b0", "c0"], {"A": 5, "B": 2, "C": 2}, b=1
        )
        assert candidate is None


class TestMBCCSearch:
    def test_two_label_query_matches_bcc_model(self):
        """With m = 2 the mBCC definition coincides with the BCC (Def. 8)."""
        g = paper_example_graph()
        result = search_result(g, "mbcc", "ql", "qr", b=1)
        expected = {"ql", "v1", "v2", "v3", "v4", "v5", "qr", "u1", "u2", "u3"}
        assert result is not None
        assert result.vertices == expected

    def test_three_label_query(self):
        g = three_group_graph()
        result = search_result(
            g, "mbcc", "a0", "b0", "c0", core_parameters=(2, 2, 2), b=1
        )
        assert result is not None
        assert set(result.groups) == {"A", "B", "C"}
        assert all(len(members) >= 3 for members in result.groups.values())
        assert len(result.interaction_edges) >= 2

    def test_duplicate_labels_rejected(self):
        g = paper_example_graph()
        with pytest.raises(QueryError):
            search_result(g, "mbcc", "ql", "v1")

    def test_single_query_rejected(self):
        g = paper_example_graph()
        with pytest.raises(QueryError):
            search_result(g, "mbcc", "ql")

    def test_unsatisfiable_butterfly_returns_none(self):
        g = three_group_graph()
        result = search_result(
            g, "mbcc", "a0", "b0", "c0", core_parameters=(2, 2, 2), b=99
        )
        assert result is None

    def test_result_statistics_and_distance(self):
        g = three_group_graph()
        result = search_result(
            g, "mbcc", "a0", "b0", "c0", core_parameters=(2, 2, 2), b=1
        )
        assert result.query_distance >= 1
        assert result.num_edges() > 0
        assert "iterations" in result.statistics

    def test_on_multilabel_baidu_projects(self):
        bundle = generate_baidu_network("tiny", seed=5, project_labels=3)
        community = bundle.cross_group_communities()[0]
        # Build a query with one vertex per label of the project.
        by_label = {}
        for v in community.members:
            by_label.setdefault(bundle.graph.label(v), v)
        query = list(by_label.values())[:3]
        result = search_result(bundle.graph, "mbcc", *query, b=1, max_iterations=100)
        assert result is not None
        assert set(query) <= result.vertices

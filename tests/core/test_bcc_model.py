"""Unit tests for the BCC model definitions (Def. 4) and result containers."""

from __future__ import annotations

import pytest

from repro.core.bcc_model import (
    BCCParameters,
    BCCResult,
    decompose_community,
    is_bcc,
    resolve_query_labels,
    validate_bcc,
)
from repro.exceptions import QueryError
from repro.graph.generators import paper_example_graph
from repro.graph.labeled_graph import LabeledGraph
from tests.conftest import swap_left_right


def figure2_community() -> LabeledGraph:
    """The expected (4, 3, 1)-BCC of the running example (Figure 2)."""
    g = paper_example_graph()
    members = {"ql", "v1", "v2", "v3", "v4", "v5", "qr", "u1", "u2", "u3"}
    return g.induced_subgraph(members)


class TestParameters:
    def test_validation(self):
        with pytest.raises(QueryError):
            BCCParameters(k1=-1, k2=0)
        with pytest.raises(QueryError):
            BCCParameters(k1=1, k2=1, b=-2)
        params = BCCParameters(k1=2, k2=3, b=1)
        assert (params.k1, params.k2, params.b) == (2, 3, 1)

    def test_from_query_defaults_to_label_group_coreness(self):
        g = paper_example_graph()
        params = BCCParameters.from_query(g, "ql", "qr")
        assert params.k1 == 4
        assert params.k2 == 3
        assert params.b == 1

    def test_from_query_explicit_overrides(self):
        g = paper_example_graph()
        params = BCCParameters.from_query(g, "ql", "qr", k1=2, k2=2, b=3)
        assert (params.k1, params.k2, params.b) == (2, 2, 3)


class TestQueryLabels:
    def test_resolve_labels(self):
        g = paper_example_graph()
        assert resolve_query_labels(g, "ql", "qr") == ("SE", "UI")

    def test_same_label_rejected(self):
        g = paper_example_graph()
        with pytest.raises(QueryError):
            resolve_query_labels(g, "ql", "v1")

    def test_missing_vertex_rejected(self):
        g = paper_example_graph()
        with pytest.raises(KeyError):
            resolve_query_labels(g, "ql", "nobody")


class TestValidation:
    def test_figure2_community_is_valid_bcc(self):
        community = figure2_community()
        params = BCCParameters(k1=4, k2=3, b=1)
        assert validate_bcc(community, params, ["ql", "qr"]) == []
        assert is_bcc(community, params, ["ql", "qr"])

    def test_core_violation_detected(self):
        community = figure2_community()
        params = BCCParameters(k1=5, k2=3, b=1)
        violations = validate_bcc(community, params)
        assert any("k1=5" in v for v in violations)

    def test_butterfly_violation_detected(self):
        community = figure2_community()
        params = BCCParameters(k1=4, k2=3, b=10)
        violations = validate_bcc(community, params)
        assert any("leader pair" in v for v in violations)

    def test_wrong_label_count_detected(self):
        g = paper_example_graph()
        params = BCCParameters(k1=1, k2=1, b=0)
        violations = validate_bcc(g, params)  # three labels present
        assert violations and "exactly 2 labels" in violations[0]

    def test_missing_query_detected(self):
        community = figure2_community()
        params = BCCParameters(k1=4, k2=3, b=1)
        violations = validate_bcc(community, params, ["ql", "u9"])
        assert any("does not contain" in v for v in violations)

    def test_disconnected_query_detected(self):
        g = LabeledGraph()
        for v, lab in (("a", "L"), ("b", "L"), ("c", "L"), ("x", "R"), ("y", "R"), ("z", "R")):
            g.add_vertex(v, label=lab)
        for u, v in (("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")):
            g.add_edge(u, v)
        params = BCCParameters(k1=2, k2=2, b=0)
        violations = validate_bcc(g, params, ["a", "x"])
        assert any("not connected" in v for v in violations)


class TestDecompositionAndResult:
    def test_decompose_community(self):
        community = figure2_community()
        left, bipartite, right = decompose_community(community, "SE", "UI")
        assert set(left.vertices()) == {"ql", "v1", "v2", "v3", "v4", "v5"}
        assert set(right.vertices()) == {"qr", "u1", "u2", "u3"}
        assert bipartite.num_edges() == 4

    def test_result_accessors(self):
        community = figure2_community()
        result = BCCResult.from_community(
            community,
            "SE",
            "UI",
            BCCParameters(4, 3, 1),
            leader_pair=("ql", "qr"),
            query_distance=2.0,
        )
        assert result.community is community
        assert result.num_vertices() == 10
        assert result.num_edges() == community.num_edges()
        assert result.left_vertices == community.vertices_with_label("SE")
        assert result.right_vertices == community.vertices_with_label("UI")
        assert result.diameter() <= 4
        assert result.bipartite().num_edges() == 4
        assert "ql" in result.vertices

    def test_swap_left_right(self):
        community = figure2_community()
        result = BCCResult.from_community(
            community, "SE", "UI", BCCParameters(4, 3, 2), leader_pair=("ql", "qr")
        )
        swapped = swap_left_right(result)
        assert swapped.community is community
        assert swapped.left_vertices == result.right_vertices
        assert swapped.left_label == "UI"
        assert swapped.parameters.k1 == 3
        assert swapped.parameters.k2 == 4
        assert swapped.leader_pair == ("qr", "ql")

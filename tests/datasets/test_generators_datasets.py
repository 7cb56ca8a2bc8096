"""Unit tests for the per-dataset synthetic generators and the registry."""

from __future__ import annotations

import pytest

from repro.core.butterfly import butterfly_degrees
from repro.core.kcore import core_decomposition
from repro.datasets import (
    CASE_STUDY_NETWORKS,
    EVALUATION_NETWORKS,
    MULTILABEL_NETWORKS,
    dataset_names,
    generate_baidu_network,
    generate_snap_like,
    load_dataset,
)
from repro.exceptions import DatasetError
from repro.graph.bipartite import extract_bipartite, extract_label_bipartite
from repro.graph.traversal import are_connected


class TestBaiduGenerator:
    def test_tiny_structure(self, tiny_baidu_bundle):
        bundle = tiny_baidu_bundle
        assert bundle.graph.num_vertices() > 20
        assert len(bundle.communities) == 3
        assert len(bundle.graph.labels()) == 3

    def test_deterministic(self):
        a = generate_baidu_network("tiny", seed=9)
        b = generate_baidu_network("tiny", seed=9)
        assert a.graph == b.graph

    def test_projects_span_two_labels_with_butterfly(self, tiny_baidu_bundle):
        bundle = tiny_baidu_bundle
        graph = bundle.graph
        for project in bundle.communities:
            labels = list(project.labels)
            assert len(labels) == 2
            members_by_label = {
                lab: {v for v in project.members if graph.label(v) == lab}
                for lab in labels
            }
            bipartite = extract_bipartite(
                graph, members_by_label[labels[0]], members_by_label[labels[1]]
            )
            degrees = butterfly_degrees(bipartite)
            assert max(degrees.values(), default=0) >= 1

    def test_default_query_is_cross_label(self, tiny_baidu_bundle):
        q_left, q_right = tiny_baidu_bundle.default_query()
        graph = tiny_baidu_bundle.graph
        assert graph.label(q_left) != graph.label(q_right)

    def test_baidu2_larger_than_baidu1(self):
        b1 = generate_baidu_network("baidu-1", seed=0)
        b2 = generate_baidu_network("baidu-2", seed=0)
        assert b2.graph.num_vertices() > b1.graph.num_vertices()
        assert b2.graph.num_edges() > b1.graph.num_edges()

    def test_multilabel_projects(self):
        bundle = generate_baidu_network("tiny", seed=2, project_labels=3)
        assert any(len(c.labels) == 3 for c in bundle.communities)

    def test_invalid_scale_rejected(self):
        with pytest.raises(DatasetError):
            generate_baidu_network("huge")

    def test_invalid_project_labels(self):
        with pytest.raises(DatasetError):
            generate_baidu_network("tiny", project_labels=1)
        with pytest.raises(DatasetError):
            generate_baidu_network("tiny", project_labels=99)


class TestSnapLikeGenerator:
    def test_two_label_protocol_applied(self, tiny_snap_bundle):
        bundle = tiny_snap_bundle
        assert bundle.graph.labels() == {"A", "B"}
        assert len(bundle.communities) == 4
        assert sum(1 for _ in bundle.graph.cross_edges()) > 0

    def test_multilabel_variant(self):
        bundle = generate_snap_like("tiny", seed=1, num_labels=3)
        assert len(bundle.graph.labels()) == 3
        assert bundle.name.endswith("-m")

    def test_m_suffix_name(self):
        bundle = generate_snap_like("tiny-m", seed=1)
        assert bundle.metadata["num_labels"] == 6 or len(bundle.graph.labels()) >= 2

    def test_presets_differ_in_size(self):
        amazon = generate_snap_like("amazon", seed=0, communities=6, community_size=10)
        orkut = generate_snap_like("orkut", seed=0, communities=6, community_size=24)
        avg_amazon = 2 * amazon.graph.num_edges() / amazon.graph.num_vertices()
        avg_orkut = 2 * orkut.graph.num_edges() / orkut.graph.num_vertices()
        assert avg_orkut > avg_amazon

    def test_unknown_preset_rejected(self):
        with pytest.raises(DatasetError):
            generate_snap_like("facebook")

    def test_deterministic(self):
        a = generate_snap_like("tiny", seed=42)
        b = generate_snap_like("tiny", seed=42)
        assert a.graph == b.graph


class TestCaseStudyGenerators:
    def test_flight_network_butterfly(self, flight_bundle):
        graph = flight_bundle.graph
        assert graph.label("Toronto") == "Canada"
        assert graph.label("Frankfurt") == "Germany"
        bipartite = extract_label_bipartite(graph, "Canada", "Germany")
        degrees = butterfly_degrees(bipartite)
        assert degrees["Toronto"] >= 3
        assert degrees["Frankfurt"] >= 3

    def test_flight_domestic_cores_are_dense(self, flight_bundle):
        graph = flight_bundle.graph
        canada = graph.label_induced_subgraph("Canada")
        germany = graph.label_induced_subgraph("Germany")
        assert max(core_decomposition(canada).values()) >= 5
        assert max(core_decomposition(germany).values()) >= 4

    def test_trade_network_leaders(self, trade_bundle):
        graph = trade_bundle.graph
        assert graph.label("China") == "Asia"
        assert graph.label("United States") == "North America"
        bipartite = extract_label_bipartite(graph, "Asia", "North America")
        degrees = butterfly_degrees(bipartite)
        assert degrees["China"] >= 3
        assert degrees["United States"] >= 3

    def test_fiction_network_camps(self, fiction_bundle):
        graph = fiction_bundle.graph
        assert graph.label("Ron Weasley") == "justice"
        assert graph.label("Draco Malfoy") == "evil"
        assert graph.label("Lord Voldemort") == "evil"
        assert are_connected(graph, ["Ron Weasley", "Draco Malfoy"])

    def test_fiction_hero_villain_butterflies(self, fiction_bundle):
        bipartite = extract_label_bipartite(fiction_bundle.graph, "justice", "evil")
        degrees = butterfly_degrees(bipartite)
        assert degrees["Harry Potter"] >= 3
        assert degrees["Draco Malfoy"] >= 1

    def test_academic_network_fields(self, academic_bundle):
        graph = academic_bundle.graph
        assert graph.label("Tim Kraska") == "Database"
        assert graph.label("Michael I. Jordan") == "Machine Learning"
        assert graph.label("Ion Stoica") == "Systems and Networking"
        assert len(graph.labels()) == 7

    def test_academic_interdisciplinary_butterflies(self, academic_bundle):
        bipartite = extract_label_bipartite(
            academic_bundle.graph, "Database", "Machine Learning"
        )
        degrees = butterfly_degrees(bipartite)
        assert degrees["Tim Kraska"] >= 1
        assert degrees["Michael I. Jordan"] >= 1

    def test_case_study_default_queries(self, flight_bundle, trade_bundle, fiction_bundle):
        assert flight_bundle.default_query() == ("Toronto", "Frankfurt")
        assert trade_bundle.default_query() == ("United States", "China")
        assert fiction_bundle.default_query() == ("Ron Weasley", "Draco Malfoy")


class TestRegistry:
    def test_all_paper_networks_registered(self):
        names = dataset_names()
        for name in EVALUATION_NETWORKS + MULTILABEL_NETWORKS + CASE_STUDY_NETWORKS:
            assert name in names, name

    def test_load_dataset(self):
        bundle = load_dataset("baidu-tiny", seed=3)
        assert bundle.graph.num_vertices() > 0

    def test_load_dataset_case_insensitive(self):
        bundle = load_dataset("FICTION", seed=1)
        assert bundle.name == "fiction"

    def test_load_unknown_dataset(self):
        with pytest.raises(DatasetError):
            load_dataset("imaginary")

    def test_snap_multilabel_registry_entry(self):
        bundle = load_dataset("tiny-m", seed=1)
        assert len(bundle.graph.labels()) >= 3

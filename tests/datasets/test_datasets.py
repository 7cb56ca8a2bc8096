"""Unit tests for the dataset bundle container and the labeling protocol."""

from __future__ import annotations

import random

import pytest

from repro.datasets.base import DatasetBundle, GroundTruthCommunity
from repro.datasets.labeling import (
    add_global_noise_cross_edges,
    add_intra_community_cross_edges,
    apply_multi_label_protocol,
    apply_two_label_protocol,
    split_community_by_labels,
)
from repro.exceptions import DatasetError
from repro.graph.generators import planted_partition_graph
from repro.graph.labeled_graph import LabeledGraph


class TestGroundTruthCommunity:
    def test_membership(self):
        community = GroundTruthCommunity(members={1, 2, 3}, labels=("A", "B"))
        assert 2 in community
        assert 9 not in community
        assert len(community) == 3


class TestDatasetBundle:
    def make_bundle(self) -> DatasetBundle:
        g = LabeledGraph()
        for v, lab in ((1, "A"), (2, "A"), (3, "B"), (4, "B"), (5, "C")):
            g.add_vertex(v, label=lab)
        for e in ((1, 2), (3, 4), (1, 3), (2, 4), (4, 5)):
            g.add_edge(*e)
        communities = [GroundTruthCommunity(members={1, 2, 3, 4}, labels=("A", "B"))]
        return DatasetBundle(name="toy", graph=g, communities=communities)

    def test_default_query_prefers_metadata(self):
        bundle = self.make_bundle()
        bundle.metadata["default_query"] = (2, 3)
        assert bundle.default_query() == (2, 3)

    def test_default_query_from_ground_truth(self):
        bundle = self.make_bundle()
        q_left, q_right = bundle.default_query()
        assert bundle.graph.label(q_left) != bundle.graph.label(q_right)
        assert q_left in bundle.communities[0]
        assert q_right in bundle.communities[0]

    def test_default_query_without_ground_truth(self):
        bundle = self.make_bundle()
        bundle.communities = []
        q_left, q_right = bundle.default_query()
        assert bundle.graph.label(q_left) != bundle.graph.label(q_right)

    def test_default_query_without_cross_edges_raises(self):
        g = LabeledGraph(edges=[(1, 2)], labels={1: "A", 2: "A"})
        bundle = DatasetBundle(name="mono", graph=g)
        with pytest.raises(DatasetError):
            bundle.default_query()

    def test_community_lookups(self):
        bundle = self.make_bundle()
        assert bundle.community_for_query(1, 3) is bundle.communities[0]
        assert bundle.community_for_query(1, 5) is None

    def test_cross_group_communities(self):
        bundle = self.make_bundle()
        assert len(bundle.cross_group_communities()) == 1
        bundle.communities.append(GroundTruthCommunity(members={1, 2}))
        assert len(bundle.cross_group_communities()) == 1


class TestLabelingProtocol:
    def test_split_community_by_labels(self):
        rng = random.Random(1)
        assignment = split_community_by_labels(list(range(10)), ["A", "B"], rng)
        counts = {}
        for label in assignment.values():
            counts[label] = counts.get(label, 0) + 1
        assert set(counts) == {"A", "B"}
        assert abs(counts["A"] - counts["B"]) <= 1

    def test_split_requires_labels(self):
        with pytest.raises(DatasetError):
            split_community_by_labels([1, 2], [], random.Random(0))

    def test_two_label_protocol_end_to_end(self):
        graph, communities = planted_partition_graph([12, 12, 12], 0.5, 0.01, seed=3)
        before_edges = graph.num_edges()
        ground_truth = apply_two_label_protocol(graph, communities, seed=3)
        assert len(ground_truth) == 3
        assert graph.labels() == {"A", "B"}
        # The protocol adds cross edges (10% intra-community + 10% noise).
        assert graph.num_edges() > before_edges
        # Every community now spans both labels.
        for community in ground_truth:
            labels = {graph.label(v) for v in community.members}
            assert labels == {"A", "B"}

    def test_two_label_protocol_labels_all_vertices(self):
        graph, communities = planted_partition_graph([10, 10], 0.5, 0.02, seed=4)
        graph.add_vertex(999)  # uncovered vertex
        apply_two_label_protocol(graph, communities, seed=4)
        assert graph.label(999) in {"A", "B"}

    def test_multi_label_protocol(self):
        graph, communities = planted_partition_graph([18, 18], 0.5, 0.02, seed=5)
        labels = ["L0", "L1", "L2"]
        ground_truth = apply_multi_label_protocol(graph, communities, labels, seed=5)
        assert graph.labels() <= set(labels)
        for community in ground_truth:
            spanned = {graph.label(v) for v in community.members}
            assert len(spanned) >= 2

    def test_multi_label_protocol_needs_two_labels(self):
        graph, communities = planted_partition_graph([10], 0.5, 0.0, seed=6)
        with pytest.raises(DatasetError):
            apply_multi_label_protocol(graph, communities, ["only"], seed=6)

    def test_cross_edge_injection_counts(self):
        graph, communities = planted_partition_graph([10, 10], 0.6, 0.0, seed=7)
        ground_truth = apply_two_label_protocol(
            graph, communities, cross_fraction=0.0, noise_fraction=0.0, seed=7
        )
        rng = random.Random(8)
        added = add_intra_community_cross_edges(graph, ground_truth, 0.1, rng)
        assert added > 0
        noise = add_global_noise_cross_edges(graph, 0.05, rng)
        assert noise >= 0

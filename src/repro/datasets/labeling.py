"""The paper's label-assignment protocol for graphs with ground-truth communities.

Section 8, "Datasets": for the five SNAP graphs the authors *synthesise*
vertex labels —

    "we split the vertices based on communities into two parts, assigned all
    vertices in each part with one label. [...] To add cross edges within
    communities, we randomly assigned vertices with 10% cross edges to
    simulate the collaboration behaviors between two communities. Moreover,
    we added 10% noise data of cross edges globally on the whole graph."

:func:`apply_two_label_protocol` reproduces that protocol on any graph with
ground-truth communities, and :func:`apply_multi_label_protocol` extends it
to ``m`` labels for the DBLP-M / LiveJournal-M / Orkut-M style datasets used
by the multi-label experiments (Exp-10).
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.datasets.base import GroundTruthCommunity
from repro.exceptions import DatasetError
from repro.graph.generators import RandomLike, _rng
from repro.graph.labeled_graph import LabeledGraph, Vertex


def split_community_by_labels(
    members: Sequence[Vertex],
    labels: Sequence,
    rng: random.Random,
) -> Dict[Vertex, object]:
    """Split one community's members into ``len(labels)`` contiguous parts.

    The members are shuffled and divided into near-equal parts; every vertex
    of part ``i`` receives ``labels[i]``.  Returns the assignment.
    """
    if not labels:
        raise DatasetError("at least one label is required")
    members = list(members)
    rng.shuffle(members)
    assignment: Dict[Vertex, object] = {}
    m = len(labels)
    size = max(1, len(members) // m)
    for index, vertex in enumerate(members):
        part = min(index // size, m - 1)
        assignment[vertex] = labels[part]
    return assignment


def add_intra_community_cross_edges(
    graph: LabeledGraph,
    communities: Sequence[GroundTruthCommunity],
    fraction: float,
    rng: random.Random,
) -> int:
    """Add cross-label edges inside each community ("10% cross edges").

    For every community, the number of added edges is ``fraction`` times the
    community's current edge count; endpoints are sampled uniformly from
    different label groups of the community.  Returns the number of edges
    added.
    """
    added = 0
    for community in communities:
        members = [v for v in community.members if v in graph]
        if len(members) < 2:
            continue
        by_label: Dict[object, List[Vertex]] = {}
        for v in members:
            by_label.setdefault(graph.label(v), []).append(v)
        label_groups = [group for group in by_label.values() if group]
        if len(label_groups) < 2:
            continue
        internal_edges = sum(
            1
            for u in members
            for w in graph.neighbors(u)
            if w in community.members
        ) // 2
        target = max(1, int(round(fraction * internal_edges)))
        attempts = 0
        while target > 0 and attempts < 50 * target:
            attempts += 1
            group_a, group_b = rng.sample(label_groups, 2)
            u = rng.choice(group_a)
            w = rng.choice(group_b)
            if u != w and not graph.has_edge(u, w):
                graph.add_edge(u, w)
                added += 1
                target -= 1
    return added


def plant_leader_butterflies(
    graph: LabeledGraph,
    communities: Sequence[GroundTruthCommunity],
    rng: random.Random,
) -> int:
    """Plant one leader-pair butterfly between consecutive label parts of each community.

    The SNAP ground-truth communities have no inherent cross-group structure
    (the labels are synthetic), so without this step many communities would
    contain no butterfly at all and the (k1, k2, b>=1)-BCC query would have no
    answer.  The paper's own datasets clearly do contain such answers (their
    BCC methods attain high F1), so the stand-in plants, per community, a 2x2
    biclique between the two highest-degree vertices of each pair of adjacent
    label parts — the "leaders or liaisons in charge of communications across
    the groups" of Section 3.3.  Returns the number of butterflies planted.
    """
    planted = 0
    for community in communities:
        members = [v for v in community.members if v in graph]
        by_label: Dict[object, List[Vertex]] = {}
        for v in members:
            by_label.setdefault(graph.label(v), []).append(v)
        parts = [group for group in by_label.values() if len(group) >= 2]
        for part_a, part_b in zip(parts, parts[1:]):
            leaders_a = sorted(part_a, key=lambda v: (-graph.degree(v), str(v)))[:2]
            leaders_b = sorted(part_b, key=lambda v: (-graph.degree(v), str(v)))[:2]
            for u in leaders_a:
                for w in leaders_b:
                    graph.add_edge(u, w)
            planted += 1
    return planted


def add_global_noise_cross_edges(
    graph: LabeledGraph, fraction: float, rng: random.Random
) -> int:
    """Add global noise cross edges ("10% noise data of cross edges globally").

    The number of added edges is ``fraction`` times the current edge count;
    endpoints are sampled uniformly from the whole graph and kept only when
    their labels differ.  Returns the number of edges added.
    """
    vertices = list(graph.vertices())
    if len(vertices) < 2:
        return 0
    target = int(round(fraction * graph.num_edges()))
    added = 0
    attempts = 0
    while added < target and attempts < 50 * max(target, 1):
        attempts += 1
        u = rng.choice(vertices)
        w = rng.choice(vertices)
        if u == w or graph.has_edge(u, w):
            continue
        if graph.label(u) == graph.label(w):
            continue
        graph.add_edge(u, w)
        added += 1
    return added


def apply_two_label_protocol(
    graph: LabeledGraph,
    communities: Sequence[Sequence[Vertex]],
    left_label: str = "A",
    right_label: str = "B",
    cross_fraction: float = 0.10,
    noise_fraction: float = 0.10,
    seed: RandomLike = None,
) -> List[GroundTruthCommunity]:
    """Apply the paper's two-label protocol in place and return the communities.

    Every community is split into a ``left_label`` part and a ``right_label``
    part, 10% cross edges are added inside each community and 10% noise cross
    edges are added globally (both fractions configurable).
    """
    rng = _rng(seed)
    ground_truth: List[GroundTruthCommunity] = []
    for index, members in enumerate(communities):
        assignment = split_community_by_labels(members, [left_label, right_label], rng)
        for vertex, label in assignment.items():
            if vertex in graph:
                graph.set_label(vertex, label)
        ground_truth.append(
            GroundTruthCommunity(
                members=set(members),
                labels=(left_label, right_label),
                name=f"community-{index}",
            )
        )
    # Vertices not covered by any community get a label uniformly at random.
    for vertex in graph.vertices():
        if graph.label(vertex) is None:
            graph.set_label(vertex, rng.choice([left_label, right_label]))
    plant_leader_butterflies(graph, ground_truth, rng)
    add_intra_community_cross_edges(graph, ground_truth, cross_fraction, rng)
    add_global_noise_cross_edges(graph, noise_fraction, rng)
    return ground_truth


def apply_multi_label_protocol(
    graph: LabeledGraph,
    communities: Sequence[Sequence[Vertex]],
    labels: Sequence[str],
    cross_fraction: float = 0.10,
    noise_fraction: float = 0.10,
    seed: RandomLike = None,
) -> List[GroundTruthCommunity]:
    """Apply the m-label variant of the protocol (Exp-10's DBLP-M style graphs).

    Each community is split into ``len(labels)`` parts; the rest of the
    protocol matches :func:`apply_two_label_protocol`.
    """
    if len(labels) < 2:
        raise DatasetError("the multi-label protocol needs at least two labels")
    rng = _rng(seed)
    ground_truth: List[GroundTruthCommunity] = []
    for index, members in enumerate(communities):
        assignment = split_community_by_labels(members, list(labels), rng)
        for vertex, label in assignment.items():
            if vertex in graph:
                graph.set_label(vertex, label)
        used = tuple(sorted({str(lab) for lab in assignment.values()}))
        ground_truth.append(
            GroundTruthCommunity(
                members=set(members), labels=used, name=f"community-{index}"
            )
        )
    for vertex in graph.vertices():
        if graph.label(vertex) is None:
            graph.set_label(vertex, rng.choice(list(labels)))
    plant_leader_butterflies(graph, ground_truth, rng)
    add_intra_community_cross_edges(graph, ground_truth, cross_fraction, rng)
    add_global_noise_cross_edges(graph, noise_fraction, rng)
    return ground_truth

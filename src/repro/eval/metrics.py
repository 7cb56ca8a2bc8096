"""Community-quality metrics used by the evaluation (Section 8).

The paper measures alignment between a discovered community ``C`` and a
ground-truth community ``Ĉ`` with the F1-score

    F1(C, Ĉ) = 2 * prec * recall / (prec + recall),
    prec(C, Ĉ) = |C ∩ Ĉ| / |C|,   recall(C, Ĉ) = |C ∩ Ĉ| / |Ĉ|,

averaged over all evaluated queries (Figures 4 and 14).  The module also
provides the structural summary metrics reported in the case studies
(community size, diameter, per-side core levels, butterfly statistics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Set

from repro.core.butterfly import butterfly_degrees, total_butterflies
from repro.core.kcore import core_decomposition
from repro.graph.bipartite import extract_bipartite
from repro.graph.labeled_graph import LabeledGraph, Vertex
from repro.graph.traversal import diameter


def precision(found: Set[Vertex], truth: Set[Vertex]) -> float:
    """Return |found ∩ truth| / |found| (0 when ``found`` is empty)."""
    if not found:
        return 0.0
    return len(found & truth) / len(found)


def recall(found: Set[Vertex], truth: Set[Vertex]) -> float:
    """Return |found ∩ truth| / |truth| (0 when ``truth`` is empty)."""
    if not truth:
        return 0.0
    return len(found & truth) / len(truth)


def f1_score(found: Iterable[Vertex], truth: Iterable[Vertex]) -> float:
    """Return the F1-score between a found community and the ground truth."""
    found_set = set(found)
    truth_set = set(truth)
    p = precision(found_set, truth_set)
    r = recall(found_set, truth_set)
    if p + r == 0:
        return 0.0
    return 2 * p * r / (p + r)


def average_f1(scores: Sequence[float]) -> float:
    """Return the mean of a sequence of F1 scores (0 for an empty sequence)."""
    if not scores:
        return 0.0
    return sum(scores) / len(scores)


@dataclass
class CommunityReport:
    """Structural summary of a discovered community (case-study reporting)."""

    num_vertices: int
    num_edges: int
    diameter: float
    label_sizes: Dict[str, int]
    min_intra_degree: Dict[str, int]
    total_butterflies: int
    max_butterfly_degree: int

    def as_dict(self) -> Dict[str, object]:
        """Return the report as a flat dictionary."""
        return {
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "diameter": self.diameter,
            "label_sizes": dict(self.label_sizes),
            "min_intra_degree": dict(self.min_intra_degree),
            "total_butterflies": self.total_butterflies,
            "max_butterfly_degree": self.max_butterfly_degree,
        }


def describe_community(community: LabeledGraph) -> CommunityReport:
    """Summarise a community's structure (sizes, cores, butterflies, diameter)."""
    labels = sorted(community.labels(), key=str)
    label_sizes: Dict[str, int] = {}
    min_intra_degree: Dict[str, int] = {}
    for label in labels:
        group = community.label_induced_subgraph(label)
        label_sizes[str(label)] = group.num_vertices()
        if group.num_vertices():
            min_intra_degree[str(label)] = min(
                group.degree(v) for v in group.vertices()
            )
        else:
            min_intra_degree[str(label)] = 0
    butterflies = 0
    max_chi = 0
    if len(labels) == 2:
        bipartite = extract_bipartite(
            community,
            community.vertices_with_label(labels[0]),
            community.vertices_with_label(labels[1]),
        )
        degrees = butterfly_degrees(bipartite)
        butterflies = total_butterflies(bipartite)
        max_chi = max(degrees.values()) if degrees else 0
    return CommunityReport(
        num_vertices=community.num_vertices(),
        num_edges=community.num_edges(),
        diameter=diameter(community),
        label_sizes=label_sizes,
        min_intra_degree=min_intra_degree,
        total_butterflies=butterflies,
        max_butterfly_degree=max_chi,
    )


def community_core_levels(community: LabeledGraph) -> Dict[str, int]:
    """Return, per label, the largest k such that the label group is a k-core."""
    levels: Dict[str, int] = {}
    for label in community.labels():
        group = community.label_induced_subgraph(label)
        if group.num_vertices() == 0:
            levels[str(label)] = 0
            continue
        coreness = core_decomposition(group)
        levels[str(label)] = min(coreness.values()) if coreness else 0
    return levels

"""Common containers for the synthetic evaluation datasets.

Every generator in :mod:`repro.datasets` returns a :class:`DatasetBundle`,
which packages the labeled graph together with its ground-truth communities
(when the dataset has them), a sensible default query pair, and free-form
metadata used by the experiment harness (e.g. which communities are
cross-group project teams).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.exceptions import DatasetError
from repro.graph.labeled_graph import LabeledGraph, Vertex


@dataclass
class GroundTruthCommunity:
    """A ground-truth community: member vertices plus the labels it spans."""

    members: Set[Vertex]
    labels: Tuple = ()
    name: str = ""

    def __post_init__(self) -> None:
        self.members = set(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self.members


@dataclass
class DatasetBundle:
    """A generated dataset: graph, ground truth, default query and metadata."""

    name: str
    graph: LabeledGraph
    communities: List[GroundTruthCommunity] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)
    seed: Optional[int] = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def default_query(self) -> Tuple[Vertex, Vertex]:
        """Return a representative cross-label query pair.

        Preference order: the pair stored by the generator in
        ``metadata['default_query']``; otherwise the endpoints of the first
        cross edge inside the first multi-label ground-truth community;
        otherwise any cross edge of the graph.
        """
        stored = self.metadata.get("default_query")
        if stored is not None:
            return tuple(stored)  # type: ignore[return-value]
        for community in self.communities:
            if len(community.labels) >= 2:
                pair = self._cross_pair_within(community.members)
                if pair is not None:
                    return pair
        for u, v in self.graph.cross_edges():
            return (u, v)
        raise DatasetError(f"dataset {self.name!r} has no cross edge to query")

    def _cross_pair_within(self, members: Set[Vertex]) -> Optional[Tuple[Vertex, Vertex]]:
        for u in members:
            if u not in self.graph:
                continue
            for w in self.graph.neighbors(u):
                if w in members and self.graph.label(w) != self.graph.label(u):
                    return (u, w)
        return None

    # ------------------------------------------------------------------
    # ground-truth helpers
    # ------------------------------------------------------------------
    def community_for_query(
        self, q_left: Vertex, q_right: Vertex
    ) -> Optional[GroundTruthCommunity]:
        """Return a ground-truth community containing both query vertices."""
        for community in self.communities:
            if q_left in community and q_right in community:
                return community
        return None

    def cross_group_communities(self) -> List[GroundTruthCommunity]:
        """Return communities spanning at least two labels."""
        result = []
        for community in self.communities:
            labels = {self.graph.label(v) for v in community.members if v in self.graph}
            if len(labels) >= 2:
                result.append(community)
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DatasetBundle({self.name!r}, |V|={self.graph.num_vertices()}, "
            f"|E|={self.graph.num_edges()}, communities={len(self.communities)})"
        )

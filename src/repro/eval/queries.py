"""Query-workload generation for the experiments (Section 8, "Queries and parameters").

The paper evaluates methods on randomly generated query pairs and controls
two workload knobs:

* **degree rank Qd** — "a vertex is regarded to be with degree rank of X% if
  it has top highest X% degree in the network"; the default is 80%, i.e. the
  query vertex's degree exceeds that of 80% of vertices.
* **inter-distance l** — the hop distance between the two query vertices;
  the default is 1 (directly connected).

:func:`generate_query_pairs` produces cross-label query pairs satisfying both
constraints; for multi-label experiments :func:`generate_multilabel_queries`
draws one query vertex per label close to a common community.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.datasets.base import DatasetBundle
from repro.graph.generators import RandomLike, _rng
from repro.graph.labeled_graph import LabeledGraph, Vertex
from repro.graph.traversal import bfs_distances


@dataclass(frozen=True)
class QuerySpec:
    """Workload parameters for query generation."""

    degree_rank: float = 0.8
    inter_distance: int = 1
    count: int = 20

    def __post_init__(self) -> None:
        if not (0.0 < self.degree_rank <= 1.0):
            raise ValueError("degree_rank must be in (0, 1]")
        if self.inter_distance < 1:
            raise ValueError("inter_distance must be >= 1")
        if self.count < 1:
            raise ValueError("count must be >= 1")


def degree_rank_threshold(graph: LabeledGraph, degree_rank: float) -> int:
    """Return the minimum degree a vertex needs to be in the top (1 - rank) slice.

    A vertex "has degree rank X%" when its degree is higher than X% of the
    vertices'; the threshold is therefore the X-th percentile of the degree
    distribution.
    """
    degrees = sorted(graph.degree(v) for v in graph.vertices())
    if not degrees:
        return 0
    index = min(len(degrees) - 1, int(degree_rank * len(degrees)))
    return degrees[index]


def eligible_vertices(graph: LabeledGraph, degree_rank: float) -> List[Vertex]:
    """Return the vertices whose degree meets the degree-rank threshold."""
    threshold = degree_rank_threshold(graph, degree_rank)
    return [v for v in graph.vertices() if graph.degree(v) >= threshold]


def generate_query_pairs(
    bundle: DatasetBundle,
    spec: QuerySpec = QuerySpec(),
    seed: RandomLike = 0,
    within_ground_truth: bool = True,
) -> List[Tuple[Vertex, Vertex]]:
    """Generate cross-label query pairs matching the workload spec.

    Parameters
    ----------
    bundle:
        The dataset to query.
    spec:
        Degree-rank / inter-distance / count parameters.
    seed:
        Random seed.
    within_ground_truth:
        When True (the evaluation protocol for F1 experiments), both query
        vertices are drawn from the same ground-truth cross-group community,
        so each query has a well-defined expected answer.  When the dataset
        has no ground truth, or False is passed, pairs are drawn from the
        whole graph.

    Returns
    -------
    list of (q_left, q_right)
        Up to ``spec.count`` pairs; fewer when the graph cannot supply enough
        pairs satisfying the constraints (never an exception — experiments
        simply average over the pairs produced).
    """
    rng = _rng(seed)
    graph = bundle.graph
    eligible: Set[Vertex] = set(eligible_vertices(graph, spec.degree_rank))
    pools: List[Set[Vertex]] = []
    if within_ground_truth and bundle.cross_group_communities():
        for community in bundle.cross_group_communities():
            pools.append({v for v in community.members if v in graph})
    else:
        pools.append(set(graph.vertices()))

    pairs: List[Tuple[Vertex, Vertex]] = []
    attempts = 0
    max_attempts = 200 * spec.count
    while len(pairs) < spec.count and attempts < max_attempts:
        attempts += 1
        pool = pools[rng.randrange(len(pools))]
        candidates = [v for v in pool if v in eligible]
        if len(candidates) < 2:
            candidates = list(pool)
        if len(candidates) < 2:
            continue
        q_left = rng.choice(candidates)
        distances = bfs_distances(graph, q_left, max_depth=spec.inter_distance)
        at_distance = [
            v
            for v, d in distances.items()
            if d == spec.inter_distance
            and v in pool
            and graph.label(v) != graph.label(q_left)
        ]
        if not at_distance:
            continue
        preferred = [v for v in at_distance if v in eligible]
        q_right = rng.choice(preferred if preferred else at_distance)
        pairs.append((q_left, q_right))
    return pairs


def generate_multilabel_queries(
    bundle: DatasetBundle,
    num_labels: int,
    count: int = 10,
    seed: RandomLike = 0,
) -> List[Tuple[Vertex, ...]]:
    """Generate m-label query tuples (one vertex per label) for Exp-9/Exp-10.

    Query vertices are drawn preferentially from a single ground-truth
    community spanning at least ``num_labels`` labels; when none exists the
    vertices are drawn from distinct labels of the whole graph, preferring
    high-degree vertices.
    """
    rng = _rng(seed)
    graph = bundle.graph
    queries: List[Tuple[Vertex, ...]] = []

    def pick_from_members(members: Sequence[Vertex]) -> Optional[Tuple[Vertex, ...]]:
        by_label: Dict[object, List[Vertex]] = {}
        for v in members:
            if v in graph:
                by_label.setdefault(graph.label(v), []).append(v)
        labels = [lab for lab, vs in by_label.items() if vs]
        if len(labels) < num_labels:
            return None
        chosen_labels = rng.sample(labels, num_labels)
        return tuple(
            max(by_label[lab], key=lambda v: (graph.degree(v), repr(v)))
            if rng.random() < 0.5
            else rng.choice(by_label[lab])
            for lab in chosen_labels
        )

    communities = [
        c for c in bundle.communities if len({graph.label(v) for v in c.members if v in graph}) >= num_labels
    ]
    attempts = 0
    while len(queries) < count and attempts < 50 * count:
        attempts += 1
        if communities:
            community = communities[rng.randrange(len(communities))]
            query = pick_from_members(list(community.members))
        else:
            query = pick_from_members(list(graph.vertices()))
        if query is not None and len(set(query)) == num_labels:
            queries.append(query)
    return queries

"""Section 7: multi-labeled butterfly-core community (mBCC) search.

The mBCC model (Def. 8) generalises the BCC to ``m >= 2`` labels:

1. the community spans exactly the ``m`` labels of the query vertices;
2. the subgraph induced by each label group is a ``k_i``-core;
3. every pair of labels is *cross-group connected* (Def. 7): connected in the
   "label interaction graph" whose edges are the label pairs that have a
   direct cross-group interaction — i.e. whose bipartite graph contains, on
   each side, a vertex with butterfly degree at least ``b``.

:func:`mbcc_search` implements Algorithm 9: find the maximal candidate
(Algorithm 2 generalised to m groups), then iteratively delete the farthest
vertices (fast query distances, Algorithm 5), maintain every group as a
``k_i``-core, and re-check cross-group connectivity after every deletion
batch by recounting every label pair's butterfly degrees (Algorithm 3) to
rebuild the label interaction graph.  No leader pairs are kept: Algorithms
6/7 are not applied here.  The intermediate graph with the smallest query
distance is returned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.butterfly import butterfly_degrees, max_butterfly_degree_per_side
from repro.core.kcore import core_decomposition, k_core_containing
from repro.core.maintenance import maintain_label_core
from repro.core.query_distance import QueryDistanceTracker
from repro.deadline import checkpoint
from repro.eval.instrumentation import SearchInstrumentation
from repro.exceptions import (
    REASON_NO_CANDIDATE,
    REASON_NO_COMMUNITY,
    EmptyCommunityError,
    QueryError,
)
from repro.graph.bipartite import extract_bipartite
from repro.graph.labeled_graph import (
    LabeledGraph,
    Label,
    Vertex,
    resolve_group_provider,
    union_graphs,
)
from repro.graph.traversal import are_connected


@dataclass
class MBCCResult:
    """A multi-labeled butterfly-core community."""

    community: LabeledGraph
    groups: Dict[Label, Set[Vertex]]
    parameters: Dict[Label, int]
    b: int
    query_distance: float = 0.0
    iterations: int = 0
    interaction_edges: List[Tuple[Label, Label]] = field(default_factory=list)
    statistics: Dict[str, float] = field(default_factory=dict)

    def num_vertices(self) -> int:
        """Number of vertices in the community."""
        return self.community.num_vertices()

    def num_edges(self) -> int:
        """Number of edges in the community."""
        return self.community.num_edges()

    @property
    def vertices(self) -> Set[Vertex]:
        """All community vertices."""
        return set(self.community.vertices())


def _interaction_graph_edges(
    community: LabeledGraph,
    labels: Sequence[Label],
    b: int,
    instrumentation: Optional[SearchInstrumentation] = None,
) -> List[Tuple[Label, Label]]:
    """Return the label pairs that currently have a cross-group interaction.

    A pair interacts when the bipartite graph between the two groups has, on
    each side, at least one vertex with butterfly degree >= b (Def. 4,
    condition 4, evaluated per pair).
    """
    edges: List[Tuple[Label, Label]] = []
    group_vertices = {lab: community.vertices_with_label(lab) for lab in labels}
    for left_label, right_label in itertools.combinations(labels, 2):
        checkpoint()
        left = group_vertices[left_label]
        right = group_vertices[right_label]
        if not left or not right:
            continue
        bipartite = extract_bipartite(community, left, right)
        if bipartite.num_edges() == 0:
            continue
        degrees = butterfly_degrees(bipartite)
        if instrumentation is not None:
            instrumentation.record_butterfly_counting()
        max_left, max_right = max_butterfly_degree_per_side(bipartite, degrees)
        if max_left >= b and max_right >= b:
            edges.append((left_label, right_label))
    return edges


def cross_group_connected(
    labels: Sequence[Label], interaction_edges: Sequence[Tuple[Label, Label]]
) -> bool:
    """Def. 7: every pair of labels is connected in the label interaction graph.

    Implemented with a union-find over the labels, as suggested by the
    complexity analysis of Section 7.
    """
    parent: Dict[Label, Label] = {lab: lab for lab in labels}

    def find(x: Label) -> Label:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b_label in interaction_edges:
        if a in parent and b_label in parent:
            ra, rb = find(a), find(b_label)
            if ra != rb:
                parent[ra] = rb
    roots = {find(lab) for lab in labels}
    return len(roots) <= 1


def validate_mbcc_query(
    graph: LabeledGraph, query_vertices: Sequence[Vertex]
) -> List[Label]:
    """Validate an mBCC query and return its labels (one per vertex).

    Shared by :func:`run_mbcc` and ``BCCEngine.explain`` so both raise
    identical errors: at least two existing vertices, all with distinct
    labels.
    """
    query = list(query_vertices)
    if len(query) < 2:
        raise QueryError("mBCC search needs at least two query vertices")
    graph.require_vertices(query)
    labels = [graph.label(q) for q in query]
    if len(set(labels)) != len(labels):
        raise QueryError("every query vertex must have a distinct label")
    return labels


def resolve_mbcc_parameters(
    graph: LabeledGraph,
    query_vertices: Sequence[Vertex],
    core_parameters: Optional[Sequence[int]],
    groups=None,
) -> Dict[Label, int]:
    """Resolve per-label core parameters, defaulting to each query's coreness."""
    group_of = resolve_group_provider(graph, groups)
    resolved: Dict[Label, int] = {}
    for position, q in enumerate(query_vertices):
        label = graph.label(q)
        if core_parameters is not None:
            resolved[label] = core_parameters[position]
        else:
            group = group_of(label)
            resolved[label] = core_decomposition(group).get(q, 0)
    return resolved


def find_mbcc_candidate(
    graph: LabeledGraph,
    query_vertices: Sequence[Vertex],
    core_parameters: Dict[Label, int],
    b: int,
    instrumentation: Optional[SearchInstrumentation] = None,
    groups=None,
) -> Optional[LabeledGraph]:
    """Generalised Algorithm 2: the maximal connected mBCC candidate ``G0``.

    Builds, per query label, the connected k_i-core around the query vertex;
    unions them together with all cross edges between admitted groups; and
    checks cross-group connectivity and query connectivity.  ``groups``
    optionally supplies cached label-induced subgraphs.  Each step is
    per-query work, so each checks the deadline; the cached groups' fills
    never do.
    """
    found = _mbcc_candidate(graph, query_vertices, core_parameters, b, instrumentation, groups)
    return None if found is None else found[0]


def _mbcc_candidate(
    graph: LabeledGraph,
    query_vertices: Sequence[Vertex],
    core_parameters: Dict[Label, int],
    b: int,
    instrumentation: Optional[SearchInstrumentation],
    groups,
) -> Optional[Tuple[LabeledGraph, List[Tuple[Label, Label]]]]:
    """:func:`find_mbcc_candidate` with the candidate's interaction edges."""
    group_of = resolve_group_provider(graph, groups)
    cores: List[LabeledGraph] = []
    labels: List[Label] = []
    for q in query_vertices:
        checkpoint()
        label = graph.label(q)
        labels.append(label)
        group = group_of(label)
        core = k_core_containing(group, core_parameters[label], q)
        if core is None:
            return None
        cores.append(core)
    checkpoint()
    community = union_graphs(*cores)
    admitted = set(community.vertices())
    # Add every cross edge of the input graph between admitted vertices of
    # different (query) labels.
    for u in admitted:
        checkpoint()
        for w in graph.neighbors(u):
            if w in admitted and graph.label(u) != graph.label(w):
                community.add_edge(u, w)
    interaction = _interaction_graph_edges(community, labels, b, instrumentation)
    if not cross_group_connected(labels, interaction):
        return None
    if not are_connected(community, query_vertices):
        return None
    return community, interaction


def mbcc_search(
    graph: LabeledGraph,
    query_vertices: Sequence[Vertex],
    core_parameters: Optional[Sequence[int]] = None,
    b: int = 1,
    bulk_deletion: bool = True,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
) -> Optional[MBCCResult]:
    """Run the multi-labeled BCC search of Algorithm 9.

    This legacy one-shot entry point delegates to a throwaway
    :class:`repro.api.BCCEngine` (method ``"mbcc"``).

    Parameters
    ----------
    graph:
        The labeled input graph.
    query_vertices:
        ``m`` query vertices, each with a distinct label.
    core_parameters:
        Optional per-query ``k_i`` values (same order as the query vertices);
        defaults to each query vertex's coreness within its label group.
    b:
        Butterfly-degree requirement for every cross-group interaction.
    bulk_deletion:
        Remove all farthest vertices per iteration (True, the paper's
        experimental setting) or a single vertex (False).
    max_iterations:
        Optional cap on peeling iterations.
    instrumentation:
        Optional counters.
    """
    from repro.api import SearchConfig, one_shot_search

    config = SearchConfig(
        b=b,
        bulk_deletion=bulk_deletion,
        max_iterations=max_iterations,
        core_parameters=None if core_parameters is None else tuple(core_parameters),
    )
    return one_shot_search(
        "mbcc", graph, tuple(query_vertices), config, instrumentation
    )


def run_mbcc(
    graph: LabeledGraph,
    query_vertices: Sequence[Vertex],
    core_parameters: Optional[Sequence[int]] = None,
    b: int = 1,
    bulk_deletion: bool = True,
    max_iterations: Optional[int] = None,
    instrumentation: Optional[SearchInstrumentation] = None,
    groups=None,
) -> MBCCResult:
    """Algorithm 9 implementation registered as method ``"mbcc"``.

    Parameters match :func:`mbcc_search`; ``groups`` optionally supplies
    cached label-induced subgraphs.  Raises :class:`EmptyCommunityError`
    instead of returning ``None``.
    """
    inst = instrumentation if instrumentation is not None else SearchInstrumentation()
    query = list(query_vertices)
    labels = validate_mbcc_query(graph, query)

    resolved = resolve_mbcc_parameters(graph, query, core_parameters, groups=groups)
    found = _mbcc_candidate(graph, query, resolved, b, inst, groups)
    if found is None:
        raise EmptyCommunityError(
            f"no maximal m-labeled candidate with b={b} contains the query",
            reason=REASON_NO_CANDIDATE,
        )

    candidate, interaction = found
    community = candidate.copy()
    original = candidate
    checkpoint()
    tracker = QueryDistanceTracker(community, query)

    best_vertices: Optional[Set[Vertex]] = None
    best_interaction = interaction
    best_distance = math.inf
    iterations = 0

    while True:
        checkpoint()
        current_distance = tracker.graph_query_distance()
        if current_distance < best_distance:
            best_distance = current_distance
            best_vertices = set(community.vertices())
            # This community's interaction edges: the candidate's, or those
            # the previous iteration checked before it went on.
            best_interaction = interaction
        candidates, max_distance = tracker.farthest_vertices()
        if not candidates or max_distance <= 0:
            break
        if max_iterations is not None and iterations >= max_iterations:
            break
        to_delete = candidates if bulk_deletion else [min(candidates, key=repr)]

        removed: Set[Vertex] = set()
        by_label: Dict[Label, List[Vertex]] = {}
        for v in to_delete:
            if v in community:
                by_label.setdefault(community.label(v), []).append(v)
        for label, vertices in by_label.items():
            removed |= maintain_label_core(
                community, label, resolved.get(label, 0), vertices
            )
        iterations += 1
        inst.record_iteration(deleted=len(removed))

        if any(q not in community for q in query):
            break
        interaction = _interaction_graph_edges(community, labels, b, inst)
        if not cross_group_connected(labels, interaction):
            break
        if not are_connected(community, query):
            break
        tracker.remove_vertices(removed)

    if best_vertices is None:
        raise EmptyCommunityError(reason=REASON_NO_COMMUNITY)
    final_community = original.induced_subgraph(best_vertices)
    return MBCCResult(
        community=final_community,
        groups={lab: final_community.vertices_with_label(lab) for lab in labels},
        parameters=resolved,
        b=b,
        query_distance=best_distance,
        iterations=iterations,
        interaction_edges=best_interaction,
        statistics=inst.as_dict(),
    )

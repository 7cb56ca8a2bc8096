"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.core.butterfly import (
    brute_force_butterfly_degrees,
    butterfly_degree_of,
    butterfly_degrees,
    total_butterflies,
)
from repro.core.kcore import core_decomposition, is_k_core, k_core_vertices, maintain_k_core
from repro.core.ktruss import is_k_truss, k_truss, truss_decomposition
from repro.core.query_distance import QueryDistanceTracker
from repro.graph.bipartite import BipartiteView
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.traversal import bfs_distances, connected_components


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def labeled_graphs(draw, max_vertices: int = 12, labels=("L", "R")):
    """Random labeled graphs with up to ``max_vertices`` vertices."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    graph = LabeledGraph()
    for i in range(n):
        graph.add_vertex(i, label=draw(st.sampled_from(list(labels))))
    possible_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in possible_edges:
        if draw(st.booleans()):
            graph.add_edge(u, v)
    return graph


@st.composite
def bipartite_views(draw, max_side: int = 6):
    """Random bipartite views."""
    left_size = draw(st.integers(min_value=1, max_value=max_side))
    right_size = draw(st.integers(min_value=1, max_value=max_side))
    left = [f"l{i}" for i in range(left_size)]
    right = [f"r{i}" for i in range(right_size)]
    edges = []
    for u in left:
        for v in right:
            if draw(st.booleans()):
                edges.append((u, v))
    return BipartiteView(left, right, edges)


# ----------------------------------------------------------------------
# k-core properties
# ----------------------------------------------------------------------
@given(labeled_graphs())
@settings(max_examples=60, deadline=None)
def test_coreness_bounded_by_degree(graph):
    coreness = core_decomposition(graph)
    for v, k in coreness.items():
        assert 0 <= k <= graph.degree(v)


@given(labeled_graphs(), st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_k_core_vertices_have_min_degree_and_are_maximal(graph, k):
    survivors = k_core_vertices(graph, k)
    core = graph.induced_subgraph(survivors)
    assert is_k_core(core, k)
    # Maximality: the coreness of every vertex outside the k-core is < k.
    coreness = core_decomposition(graph)
    for v in graph.vertices():
        if v not in survivors:
            assert coreness.get(v, 0) < k


@given(labeled_graphs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_k_core_nesting(graph, k):
    """The (k+1)-core is always contained in the k-core."""
    assert k_core_vertices(graph, k + 1) <= k_core_vertices(graph, k)


@given(labeled_graphs(), st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=40, deadline=None)
def test_k_core_maintenance_matches_recomputation(graph, k, data):
    survivors = k_core_vertices(graph, k)
    if not survivors:
        return
    victim = data.draw(st.sampled_from(sorted(survivors)))
    work = graph.induced_subgraph(survivors)
    maintain_k_core(work, k, [victim])
    expected = k_core_vertices(graph.induced_subgraph(survivors - {victim}), k)
    assert set(work.vertices()) == expected


# ----------------------------------------------------------------------
# butterfly properties
# ----------------------------------------------------------------------
@given(bipartite_views())
@settings(max_examples=60, deadline=None)
def test_butterfly_implementations_agree(view):
    reference = brute_force_butterfly_degrees(view)
    assert butterfly_degrees(view) == reference
    assert {v: butterfly_degree_of(view, v) for v in view.vertices()} == reference


@given(bipartite_views())
@settings(max_examples=60, deadline=None)
def test_butterfly_degree_sum_is_four_times_total(view):
    degrees = butterfly_degrees(view)
    assert sum(degrees.values()) == 4 * total_butterflies(view)


@given(bipartite_views(), st.data())
@settings(max_examples=40, deadline=None)
def test_vertex_deletion_never_increases_butterfly_degrees(view, data):
    before = butterfly_degrees(view)
    victim = data.draw(st.sampled_from(sorted(view.vertices(), key=repr)))
    view.remove_vertex(victim)
    after = butterfly_degrees(view)
    for v, chi in after.items():
        assert chi <= before[v]


# ----------------------------------------------------------------------
# k-truss properties
# ----------------------------------------------------------------------
@given(labeled_graphs(max_vertices=9))
@settings(max_examples=30, deadline=None)
def test_truss_is_k_truss_and_nested(graph):
    for k in (3, 4):
        truss = k_truss(graph, k)
        assert is_k_truss(truss, k)
    edges_k3 = {frozenset(e) for e in k_truss(graph, 3).edges()}
    edges_k4 = {frozenset(e) for e in k_truss(graph, 4).edges()}
    assert edges_k4 <= edges_k3


@given(labeled_graphs(max_vertices=9))
@settings(max_examples=30, deadline=None)
def test_trussness_at_least_two(graph):
    for value in truss_decomposition(graph).values():
        assert value >= 2


# ----------------------------------------------------------------------
# traversal / query distance properties
# ----------------------------------------------------------------------
@given(labeled_graphs())
@settings(max_examples=40, deadline=None)
def test_bfs_distances_satisfy_triangle_inequality_on_edges(graph):
    vertices = sorted(graph.vertices())
    source = vertices[0]
    dist = bfs_distances(graph, source)
    for u, v in graph.edges():
        if u in dist and v in dist:
            assert abs(dist[u] - dist[v]) <= 1


@given(labeled_graphs())
@settings(max_examples=40, deadline=None)
def test_connected_components_partition_vertices(graph):
    components = connected_components(graph)
    union = set()
    total = 0
    for component in components:
        total += len(component)
        union |= component
    assert union == set(graph.vertices())
    assert total == graph.num_vertices()


@given(labeled_graphs(max_vertices=10), st.data())
@settings(max_examples=40, deadline=None)
def test_query_distance_tracker_matches_bfs_after_deletions(graph, data):
    vertices = sorted(graph.vertices())
    query = vertices[0]
    tracker = QueryDistanceTracker(graph, [query])
    deletable = [v for v in vertices[1:]]
    if not deletable:
        return
    batch = data.draw(
        st.lists(st.sampled_from(deletable), min_size=1, max_size=3, unique=True)
    )
    graph.remove_vertices(batch)
    tracker.remove_vertices(batch)
    reached = bfs_distances(graph, query)
    for v in graph.vertices():
        expected = float(reached.get(v, math.inf))
        assert tracker.distance(v, query) == expected

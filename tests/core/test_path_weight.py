"""Unit tests for the butterfly-core path weight (Def. 6) and its search.

The served search runs on CSR ids with a completion bound; the object-graph
search it replaced lives on here as :func:`reference_shortest_path`, and the
parity tests below require the two to return the same path.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bc_index import BCIndex
from repro.core.path_weight import (
    PathWeightConfig,
    butterfly_core_shortest_path,
    path_weight,
)
from repro.datasets import load_dataset
from repro.eval.queries import QuerySpec, generate_query_pairs
from repro.graph.generators import paper_example_graph, random_labeled_graph
from repro.graph.labeled_graph import Label, LabeledGraph, Vertex
from repro.graph.traversal import bfs_distances, shortest_path

GAMMAS = ((0.5, 0.5), (0.3, 0.7), (0.0, 0.0), (2.0, 0.01))


def reference_shortest_path(
    graph: LabeledGraph,
    source: Vertex,
    target: Vertex,
    index: BCIndex,
    left_label: Label,
    right_label: Label,
    config: PathWeightConfig = PathWeightConfig(),
    max_labels_per_vertex: int = 16,
    max_expansions: int = 50000,
) -> Optional[List[Vertex]]:
    """The object-graph Def. 6 search, without the completion bound.

    A label-correcting search over ``(vertex, min_coreness_so_far,
    min_butterfly_so_far)`` states with dominance pruning, reading δ and χ
    through the index's vertex-keyed lookups; it falls back to the plain
    hop-count shortest path when a cap empties or stops it.
    """
    if source not in graph or target not in graph:
        return None
    delta_max = index.max_coreness()
    chi_max = index.max_butterfly_degree(left_label, right_label)

    def chi(v: Vertex) -> int:
        return index.butterfly_degree(v, left_label, right_label)

    def weight(hops: int, min_core: int, min_chi: int) -> float:
        return (
            hops
            + config.gamma1 * (delta_max - min_core)
            + config.gamma2 * (chi_max - min_chi)
        )

    counter = itertools.count()
    initial_core = index.coreness(source)
    initial_chi = chi(source)
    heap: List[Tuple[float, int, Vertex, int, int, Tuple[Vertex, ...]]] = [
        (
            weight(0, initial_core, initial_chi),
            next(counter),
            source,
            initial_core,
            initial_chi,
            (source,),
        )
    ]
    # Non-dominated (hops, min_core, min_chi) label sets per vertex.
    labels: Dict[Vertex, List[Tuple[int, int, int]]] = {}

    def dominated(vertex: Vertex, hops: int, min_core: int, min_chi: int) -> bool:
        for other_hops, other_core, other_chi in labels.get(vertex, []):
            if (
                other_hops <= hops
                and other_core >= min_core
                and other_chi >= min_chi
            ):
                return True
        return False

    expansions = 0
    while heap:
        expansions += 1
        if expansions > max_expansions:
            return shortest_path(graph, source, target)
        _, _, vertex, min_core, min_chi, path = heapq.heappop(heap)
        if vertex == target:
            return list(path)
        hops = len(path) - 1
        if dominated(vertex, hops, min_core, min_chi):
            continue
        entry = labels.setdefault(vertex, [])
        if len(entry) >= max_labels_per_vertex:
            continue
        entry.append((hops, min_core, min_chi))
        for neighbor in graph.neighbors(vertex):
            if neighbor in path:
                continue
            new_core = min(min_core, index.coreness(neighbor))
            new_chi = min(min_chi, chi(neighbor))
            new_hops = hops + 1
            if dominated(neighbor, new_hops, new_core, new_chi):
                continue
            heapq.heappush(
                heap,
                (
                    weight(new_hops, new_core, new_chi),
                    next(counter),
                    neighbor,
                    new_core,
                    new_chi,
                    path + (neighbor,),
                ),
            )
    return shortest_path(graph, source, target)


def _relabel(graph: LabeledGraph) -> LabeledGraph:
    """The same graph over string ids, whose repr order differs from numeric order."""
    renamed = LabeledGraph()
    for vertex in sorted(graph.vertices()):
        renamed.add_vertex(f"v{vertex}", label=graph.label(vertex))
    for u, v in sorted(graph.edges()):
        renamed.add_edge(f"v{u}", f"v{v}")
    return renamed


def _queries(graph: LabeledGraph, rng: random.Random, count: int):
    """``count`` random ``(source, target, left_label, right_label)`` rows."""
    vertices = sorted(graph.vertices(), key=repr)
    labels = sorted(graph.labels(), key=repr)
    rows = []
    for _ in range(count):
        source, target = rng.sample(vertices, 2)
        left, right = graph.label(source), graph.label(target)
        if left == right:
            right = next(label for label in labels if label != left)
        rows.append((source, target, left, right))
    return rows


def diamond_graph() -> LabeledGraph:
    """Two parallel s-t routes of equal hop length: one through high-coreness,
    high-butterfly hub vertices, one through a low-coreness pendant vertex."""
    g = LabeledGraph()
    for v in ("s", "hub", "h2", "weak"):
        g.add_vertex(v, label="L")
    for v in ("t", "t2", "t3"):
        g.add_vertex(v, label="R")
    # Left triangle {s, hub, h2} gives those three coreness 2; "weak" hangs
    # off s with coreness 1.
    for u, v in (("s", "hub"), ("s", "h2"), ("hub", "h2"), ("s", "weak")):
        g.add_edge(u, v)
    # Right triangle {t, t2, t3} gives coreness 2 on the right.
    for u, v in (("t", "t2"), ("t", "t3"), ("t2", "t3")):
        g.add_edge(u, v)
    # Cross edges: {hub, h2} x {t, t2} is a butterfly; weak reaches t with a
    # single cross edge (same hop count, no butterfly, low coreness).
    g.add_edge("hub", "t")
    g.add_edge("hub", "t2")
    g.add_edge("h2", "t")
    g.add_edge("h2", "t2")
    g.add_edge("weak", "t")
    return g


class TestPathWeight:
    def test_weight_of_explicit_path(self):
        g = diamond_graph()
        index = BCIndex(g)
        config = PathWeightConfig(gamma1=0.5, gamma2=0.5)
        strong = path_weight(["s", "hub", "t"], index, "L", "R", config)
        weak = path_weight(["s", "weak", "t"], index, "L", "R", config)
        assert strong < weak

    def test_empty_path_is_infinite(self):
        g = diamond_graph()
        index = BCIndex(g)
        assert path_weight([], index, "L", "R") == float("inf")

    def test_gamma_zero_reduces_to_hops(self):
        g = diamond_graph()
        index = BCIndex(g)
        config = PathWeightConfig(gamma1=0.0, gamma2=0.0)
        assert path_weight(["s", "hub", "t"], index, "L", "R", config) == 2
        assert path_weight(["s", "weak", "t"], index, "L", "R", config) == 2

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            PathWeightConfig(gamma1=-0.1)


class TestWeightedShortestPath:
    def test_prefers_high_coreness_high_butterfly_route(self):
        g = diamond_graph()
        index = BCIndex(g)
        path = butterfly_core_shortest_path(g, "s", "t", index, "L", "R")
        assert path is not None
        assert path[0] == "s" and path[-1] == "t"
        assert path[1] in {"hub", "h2"}
        assert "weak" not in path

    def test_plain_bfs_may_differ(self):
        """The unweighted shortest path can legitimately take the weak route;
        the weighted search must not (this is the whole point of Def. 6)."""
        g = diamond_graph()
        index = BCIndex(g)
        weighted = butterfly_core_shortest_path(g, "s", "t", index, "L", "R")
        unweighted = shortest_path(g, "s", "t")
        assert len(unweighted) == len(weighted)  # same hop count here
        assert weighted[1] in {"hub", "h2"}

    def test_disconnected_returns_none(self):
        g = diamond_graph()
        g.add_vertex("island", label="L")
        index = BCIndex(g)
        assert butterfly_core_shortest_path(g, "s", "island", index, "L", "R") is None

    def test_source_equals_target(self):
        g = diamond_graph()
        index = BCIndex(g)
        path = butterfly_core_shortest_path(g, "s", "s", index, "L", "R")
        assert path == ["s"]

    def test_missing_endpoint_returns_none(self):
        g = diamond_graph()
        index = BCIndex(g)
        assert butterfly_core_shortest_path(g, "s", "ghost", index, "L", "R") is None

    def test_expansion_cap_falls_back_to_bfs(self):
        g = paper_example_graph()
        index = BCIndex(g)
        path = butterfly_core_shortest_path(
            g, "ql", "qr", index, "SE", "UI", max_expansions=1
        )
        assert path is not None
        assert path[0] == "ql" and path[-1] == "qr"

    @pytest.mark.parametrize("string_ids", [False, True])
    def test_expansion_cap_returns_a_hop_shortest_path(self, string_ids):
        g = random_labeled_graph(40, 0.12, ["A", "B"], seed=5)
        if string_ids:
            g = _relabel(g)
        index = BCIndex(g)
        for source, target, left, right in _queries(g, random.Random(5), 30):
            path = butterfly_core_shortest_path(
                g, source, target, index, left, right, max_expansions=1
            )
            hop_path = shortest_path(g, source, target)
            if hop_path is None:
                assert path is None
                continue
            assert len(path) == len(hop_path)
            assert path[0] == source and path[-1] == target
            assert all(g.has_edge(u, v) for u, v in zip(path, path[1:]))

    def test_on_paper_example(self):
        g = paper_example_graph()
        index = BCIndex(g)
        path = butterfly_core_shortest_path(g, "ql", "qr", index, "SE", "UI")
        assert path is not None
        assert path[0] == "ql" and path[-1] == "qr"
        # q_l and q_r are adjacent, and both are butterfly members, so the
        # direct edge is optimal.
        assert len(path) == 2


def _assert_simple_path_or_disconnected(graph, source, target, path):
    """What any cap guarantees: a simple source-target path of ``graph``, or
    ``None`` exactly when the two are disconnected."""
    if path is None:
        assert shortest_path(graph, source, target) is None, (source, target)
        return
    assert path[0] == source and path[-1] == target
    assert len(set(path)) == len(path), path
    assert all(graph.has_edge(u, v) for u, v in zip(path, path[1:])), path


class TestReferenceParity:
    """The id search returns the object reference's path, tie for tie."""

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("max_labels", [1, 2, 16])
    def test_random_graphs(self, gamma, max_labels):
        """Parity at 16 labels per vertex.  Under a cap of 1 or 2 the states
        a vertex keeps depend on the order they arrive in, and the reference
        (no completion bound) admits states the search prices out, so its
        capped path is no oracle (``test_a_cap_can_keep_a_worse_path``):
        there the search must return what a cap guarantees."""
        config = PathWeightConfig(*gamma)
        rng = random.Random(17)
        for seed in range(10):
            labels = ["A", "B", "C"][: 2 + seed % 2]
            g = random_labeled_graph(
                rng.randint(10, 40), rng.uniform(0.08, 0.4), labels, seed=seed
            )
            if seed % 2:
                g = _relabel(g)
            index = BCIndex(g)
            for source, target, left, right in _queries(g, rng, 8):
                path = butterfly_core_shortest_path(
                    g, source, target, index, left, right, config, max_labels
                )
                if max_labels < 16:
                    _assert_simple_path_or_disconnected(g, source, target, path)
                    continue
                assert path == reference_shortest_path(
                    g, source, target, index, left, right, config, max_labels
                ), (seed, source, target)

    def test_a_cap_can_keep_a_worse_path(self):
        """With one label per vertex the reference's first state at ``w``
        takes its slot and blocks the best path, so it returns a weight-22
        path; the search prices that state out and returns the weight-21
        optimum, which the uncapped reference finds too."""
        g, tables = _best_path_trap()
        config = PathWeightConfig(1.0, 0.0)
        search = butterfly_core_shortest_path(
            g, "s", "t", tables, "A", "B", config, max_labels_per_vertex=1
        )
        capped = reference_shortest_path(
            g, "s", "t", tables, "A", "B", config, max_labels_per_vertex=1
        )
        uncapped = reference_shortest_path(g, "s", "t", tables, "A", "B", config)
        assert path_weight(search, tables, "A", "B", config) == 21
        assert path_weight(capped, tables, "A", "B", config) == 22
        assert path_weight(uncapped, tables, "A", "B", config) == 21

    def test_baseline_graph_pairs(self):
        bundle = load_dataset("dblp", seed=2021, communities=12, community_size=32)
        pairs = generate_query_pairs(bundle, QuerySpec(count=120), seed=2021)
        assert len(pairs) == 120
        g = bundle.graph
        index = BCIndex(g)
        for source, target in pairs:
            labels = (g.label(source), g.label(target))
            assert butterfly_core_shortest_path(
                g, source, target, index, *labels
            ) == reference_shortest_path(g, source, target, index, *labels)

    @pytest.mark.parametrize("chi_before_mutation", [False, True])
    def test_stale_index(self, chi_before_mutation):
        """A graph mutated after its index was built: ids shift under the
        index's lists, which must be rebuilt from its vertex-keyed values."""
        g = _relabel(random_labeled_graph(36, 0.15, ["A", "B"], seed=9))
        index = BCIndex(g)
        if chi_before_mutation:
            index.butterfly_degrees_for("A", "B")
        rng = random.Random(9)
        vertices = sorted(g.vertices(), key=repr)
        for vertex in vertices[:3]:
            g.remove_vertex(vertex)
        for _ in range(12):
            u, v = rng.sample(vertices[3:], 2)
            g.add_edge(u, v)
        assert index.id_tables(g.freeze(), "A", "B")[0] is not g.freeze().group_coreness()
        for gamma in GAMMAS:
            config = PathWeightConfig(*gamma)
            for source, target, left, right in _queries(g, rng, 20):
                assert butterfly_core_shortest_path(
                    g, source, target, index, left, right, config
                ) == reference_shortest_path(g, source, target, index, left, right, config)


def _simple_paths(graph: LabeledGraph, source: Vertex, target: Vertex):
    """Every simple path from ``source`` to ``target``, by depth-first enumeration."""
    stack = [[source]]
    while stack:
        path = stack.pop()
        if path[-1] == target:
            yield path
            continue
        for neighbor in graph.neighbors(path[-1]):
            if neighbor not in path:
                stack.append(path + [neighbor])


@st.composite
def small_def6_queries(draw):
    """A labeled graph of at most 9 vertices, two of its vertices and a γ pair."""
    n = draw(st.integers(min_value=1, max_value=9))
    graph = LabeledGraph()
    for vertex in range(n):
        graph.add_vertex(vertex, label=draw(st.sampled_from(("A", "B", "C"))))
    for u, v in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            graph.add_edge(u, v)
    source = draw(st.integers(min_value=0, max_value=n - 1))
    target = draw(st.integers(min_value=0, max_value=n - 1))
    return graph, source, target, draw(st.sampled_from(GAMMAS + ((1.0, 3.0),)))


class TestExactnessOracle:
    """The search against Def. 6 itself, not against another implementation."""

    @given(small_def6_queries())
    @settings(deadline=None)
    def test_weight_is_the_minimum_over_all_simple_paths(self, query):
        graph, source, target, gamma = query
        left = graph.label(source)
        right = next(
            label for label in (graph.label(target), "A", "B") if label != left
        )
        index = BCIndex(graph)
        config = PathWeightConfig(*gamma)
        weights = [
            path_weight(path, index, left, right, config)
            for path in _simple_paths(graph, source, target)
        ]
        path = butterfly_core_shortest_path(
            graph, source, target, index, left, right, config
        )
        if not weights:  # disconnected, and only then
            assert path is None
            return
        assert path is not None
        assert path[0] == source and path[-1] == target
        assert len(set(path)) == len(path)
        assert all(graph.has_edge(u, v) for u, v in zip(path, path[1:]))
        assert path_weight(path, index, left, right, config) == pytest.approx(
            min(weights)
        )


class _FixedTables:
    """An index stand-in that serves given δ values, with every χ zero."""

    def __init__(self, delta: Dict[Vertex, int]) -> None:
        self.delta = delta

    def id_tables(self, csr, left_label, right_label):
        values = [self.delta[v] for v in csr.interner.vertices()]
        return values, max(values), [0] * len(values), 0

    def coreness(self, vertex: Vertex) -> int:
        return self.delta[vertex]

    def max_coreness(self) -> int:
        return max(self.delta.values())

    def butterfly_degree(self, vertex: Vertex, left_label: Label, right_label: Label) -> int:
        return 0

    def max_butterfly_degree(self, left_label: Label, right_label: Label) -> int:
        return 0


def _best_path_trap() -> Tuple[LabeledGraph, _FixedTables]:
    """A 17-vertex graph whose best path a one-label cap can lose.

    Under γ = (1, 0) a path weighs its hops plus 20 - its lowest δ.  The y
    route reaches t first, at weight 22 (so does s-b-t); the best path,
    through a and w, weighs 21.  The x route reaches w at 4 hops, as a
    state that cannot beat 22 and whose exact distance prices it out.
    """
    delta = {"s": 20, "t": 5, "b": 0, "a": 5, "w": 10}
    delta.update({f"c{i}": 5 for i in range(1, 4)})
    delta.update({f"x{i}": 10 for i in range(1, 4)})
    delta.update({f"y{i}": 20 for i in range(1, 7)})
    g = LabeledGraph()
    for vertex in delta:
        g.add_vertex(vertex, label="A")
    for route in (
        ["s", "b", "t"],
        ["s", "y1", "y2", "y3", "y4", "y5", "y6", "t"],
        ["s", "a", "w", "c1", "c2", "c3", "t"],
        ["s", "x1", "x2", "x3", "w"],
    ):
        for u, v in zip(route, route[1:]):
            g.add_edge(u, v)
    return g, _FixedTables(delta)


class TestLocality:
    """The target's BFS grows only as far as the search needs."""

    def test_grows_past_the_source_when_only_exact_hops_prune(self):
        # Each vertex keeps one label.  Once y's target state is in, x3 (5
        # hops from t, past the ball of depth 2) can be priced out only by
        # its exact distance.  On the depth + 1 bound it would be pushed,
        # reach w at 4 hops and take w's one slot ahead of the best path's
        # state, and a weight-22 route would be returned.
        g, tables = _best_path_trap()

        path = butterfly_core_shortest_path(
            g, "s", "t", tables, "A", "B", PathWeightConfig(1.0, 0.0),
            max_labels_per_vertex=1,
        )

        assert path == ["s", "a", "w", "c1", "c2", "c3", "t"]

    @pytest.mark.parametrize("source", ["hub", "s"])
    def test_reads_nothing_past_one_hop_beyond_the_source(
        self, source, adjacency_reads
    ):
        # The diamond's component gets a 1,000-vertex tail off t3, one hop
        # from the target: a BFS of the whole component reads every list.
        g = diamond_graph()
        previous = "t3"
        for position in range(1000):
            g.add_vertex(f"tail{position}", label="R")
            g.add_edge(previous, f"tail{position}")
            previous = f"tail{position}"
        index = BCIndex(g)
        csr = g.freeze()
        index.id_tables(csr, "L", "R")  # fill χ before recording
        adjacency_reads.clear()

        path = butterfly_core_shortest_path(g, source, "t", index, "L", "R")
        read = set(adjacency_reads)

        assert path == reference_shortest_path(g, source, "t", index, "L", "R")
        hops = bfs_distances(g, "t")
        assert read
        assert max(hops[csr.vertex_of(i)] for i in read) <= hops[source] + 1

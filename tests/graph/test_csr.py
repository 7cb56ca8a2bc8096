"""Unit tests for the CSR fast-path backend (repro.graph.csr)."""

from __future__ import annotations

import pytest

from repro.exceptions import VertexNotFoundError
from repro.graph.csr import (
    CSRBipartiteView,
    CSRGraph,
    VertexInterner,
    csr_bfs_distances,
    csr_k_core_alive,
)
from repro.graph.generators import paper_example_graph
from repro.graph.labeled_graph import LabeledGraph


class TestVertexInterner:
    def test_assigns_dense_ids_in_order(self):
        interner = VertexInterner(["a", "b"])
        assert interner.id_of("a") == 0
        assert interner.id_of("b") == 1
        assert len(interner) == 2
        assert interner.vertex_of(1) == "b"
        assert "b" in interner and "z" not in interner

    def test_identity_fast_path_for_dense_ints(self):
        interner = VertexInterner([0, 1, 2, 3])
        assert interner._identity
        assert interner.id_of(2) == 2
        assert interner.try_id_of(7) is None
        assert interner.try_id_of(True) is None  # bools are not vertex ids

    def test_unknown_vertex_raises(self):
        interner = VertexInterner(["a"])
        with pytest.raises(VertexNotFoundError):
            interner.id_of("missing")

    def test_label_interning(self):
        interner = VertexInterner()
        assert interner.intern_label("SE") == 0
        assert interner.intern_label("UI") == 1
        assert interner.intern_label("SE") == 0
        assert interner.label_of(1) == "UI"
        assert interner.num_labels() == 2


class TestCSRGraphFreezeThaw:
    def test_roundtrip_preserves_graph(self):
        g = paper_example_graph()
        frozen = CSRGraph.freeze(g)
        assert frozen.num_vertices() == g.num_vertices()
        assert frozen.num_edges() == g.num_edges()
        assert frozen.thaw() == g

    def test_ids_follow_iteration_order(self):
        g = paper_example_graph()
        frozen = CSRGraph.freeze(g)
        for i, v in enumerate(g.vertices()):
            assert frozen.id_of(v) == i
            assert frozen.vertex_of(i) == v
            assert frozen.degree(i) == g.degree(v)
            assert frozen.label_of_id(i) == g.label(v)

    def test_flat_arrays_are_consistent(self):
        g = paper_example_graph()
        frozen = CSRGraph.freeze(g)
        offsets, neighbors = frozen.adjacency_lists()
        assert list(frozen.offsets) == offsets  # lazy array matches list view
        assert list(frozen.neighbors) == neighbors
        assert offsets[0] == 0 and offsets[-1] == len(neighbors) == 2 * g.num_edges()
        for v in g.vertices():
            vid = frozen.id_of(v)
            ids = set(neighbors[offsets[vid] : offsets[vid + 1]])
            assert ids == {frozen.id_of(w) for w in g.neighbors(v)}

    def test_induced_freeze(self):
        g = paper_example_graph()
        keep = ["ql", "v1", "v2", "qr", "nonexistent"]
        frozen = CSRGraph.freeze(g, vertices=keep)
        assert frozen.thaw() == g.induced_subgraph(keep)

    def test_thaw_with_dead_mask(self):
        g = paper_example_graph()
        frozen = CSRGraph.freeze(g)
        dead = {frozen.id_of("ql"), frozen.id_of("z1")}
        survivors = [v for v in g.vertices() if v not in ("ql", "z1")]
        assert frozen.thaw(dead=dead) == g.induced_subgraph(survivors)

    def test_empty_graph(self):
        frozen = CSRGraph.freeze(LabeledGraph())
        assert frozen.num_vertices() == 0
        assert frozen.num_edges() == 0
        assert frozen.thaw() == LabeledGraph()
        assert csr_k_core_alive(frozen, 3) == bytearray()


class TestLabeledGraphFreezeCache:
    def test_freeze_is_cached_until_mutation(self):
        g = paper_example_graph()
        first = g.freeze()
        assert g.has_frozen()
        assert g.freeze() is first
        g.add_edge("v1", "u7")
        assert not g.has_frozen()
        second = g.freeze()
        assert second is not first
        assert second.num_edges() == first.num_edges() + 1

    def test_label_change_invalidates(self):
        g = paper_example_graph()
        first = g.freeze()
        g.set_label("z1", "SE")
        assert g.freeze() is not first

    def test_noop_mutations_keep_cache(self):
        g = paper_example_graph()
        first = g.freeze()
        g.add_vertex("ql")  # already present, no label change
        g.add_edge("ql", "qr")  # already present
        g.set_label("z1", g.label("z1"))  # same label
        assert g.freeze() is first


class TestCSRBipartiteView:
    # Left ids 0-2 (2 is isolated), right ids 3-6.
    SLICES = [[3, 4, 5], [4, 6], [], [0], [0, 1], [0], [1]]

    def _adopt(self):
        return CSRBipartiteView.from_slices([list(s) for s in self.SLICES], 3)

    def test_sides_and_edges(self):
        frozen = self._adopt()
        assert frozen.num_vertices() == 7
        assert frozen.num_edges() == 5
        assert [frozen.is_left(v) for v in range(7)] == [True] * 3 + [False] * 4
        assert frozen.degree_list() == [3, 2, 0, 1, 2, 1, 1]
        assert frozen.adjacency_slices() == self.SLICES

    def test_rank_sorted_is_idempotent(self):
        frozen = self._adopt()
        rank, rank_slices = frozen.rank_sorted()
        assert frozen.rank_sorted() == (rank, rank_slices)
        assert sorted(rank) == list(range(frozen.num_vertices()))
        for ranks in rank_slices:
            assert ranks == sorted(ranks)


class TestMaskedBFS:
    def test_dead_mask_restricts_traversal(self):
        g = LabeledGraph(edges=[(0, 1), (1, 2), (2, 3), (0, 4)])
        frozen = CSRGraph.freeze(g)
        dist = csr_bfs_distances(frozen, 0, dead={1})
        assert dist[0] == 0 and dist[4] == 1
        assert dist[1] == -1 and dist[2] == -1 and dist[3] == -1

    def test_max_depth(self):
        g = LabeledGraph(edges=[(0, 1), (1, 2), (2, 3)])
        frozen = CSRGraph.freeze(g)
        dist = csr_bfs_distances(frozen, 0, max_depth=2)
        assert dist == [0, 1, 2, -1]

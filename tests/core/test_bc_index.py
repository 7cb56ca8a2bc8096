"""Unit tests for the BCindex (Section 6.3)."""

from __future__ import annotations

import itertools
import sys
import threading
from collections import Counter

import pytest

import repro.core.bc_index as bc_index_module
from repro.core.bc_index import BCIndex, build_bc_index
from repro.core.butterfly import butterfly_degrees
from repro.core.kcore import core_decomposition
from repro.core.path_weight import butterfly_core_shortest_path
from repro.datasets import load_dataset
from repro.exceptions import IndexNotBuiltError
from repro.graph.bipartite import extract_label_bipartite
from repro.graph.generators import paper_example_graph, random_labeled_graph


class TestCorenessComponent:
    def test_label_group_coreness(self):
        g = paper_example_graph()
        index = BCIndex(g)
        expected_se = core_decomposition(g.label_induced_subgraph("SE"))
        for vertex, coreness in expected_se.items():
            assert index.coreness(vertex) == coreness
        assert index.coreness("ql") == 4
        assert index.coreness("qr") == 3

    def test_max_coreness(self):
        g = paper_example_graph()
        index = BCIndex(g)
        assert index.max_coreness() == max(index.coreness_map().values())

    def test_unknown_vertex_defaults_to_zero(self):
        g = paper_example_graph()
        index = BCIndex(g)
        assert index.coreness("not-there") == 0

    def test_lazy_build(self):
        g = paper_example_graph()
        index = BCIndex(g, build=False)
        assert not index.is_built()
        with pytest.raises(IndexNotBuiltError):
            index.coreness("ql")
        index.build()
        assert index.is_built()
        assert index.coreness("ql") == 4

    def test_coreness_map_is_copy(self):
        g = paper_example_graph()
        index = BCIndex(g)
        mapping = index.coreness_map()
        mapping["ql"] = 99
        assert index.coreness("ql") == 4


class TestButterflyComponent:
    def test_matches_direct_counting(self):
        g = paper_example_graph()
        index = BCIndex(g)
        direct = butterfly_degrees(extract_label_bipartite(g, "SE", "UI"))
        for vertex, chi in direct.items():
            assert index.butterfly_degree(vertex, "SE", "UI") == chi

    def test_label_pair_order_irrelevant(self):
        g = paper_example_graph()
        index = BCIndex(g)
        assert index.butterfly_degree("ql", "SE", "UI") == index.butterfly_degree(
            "ql", "UI", "SE"
        )
        assert index.max_butterfly_degree("SE", "UI") == index.max_butterfly_degree(
            "UI", "SE"
        )

    def test_caching(self):
        g = paper_example_graph()
        index = BCIndex(g)
        assert index.cached_label_pairs() == ()
        index.butterfly_degrees_for("SE", "UI")
        assert len(index.cached_label_pairs()) == 1
        index.butterfly_degrees_for("UI", "SE")
        assert len(index.cached_label_pairs()) == 1
        index.butterfly_degrees_for("SE", "PM")
        assert len(index.cached_label_pairs()) == 2

    def test_vertex_outside_pair_has_zero_degree(self):
        g = paper_example_graph()
        index = BCIndex(g)
        assert index.butterfly_degree("z1", "SE", "UI") == 0

    def test_build_bc_index_helper(self):
        index = build_bc_index(paper_example_graph())
        assert index.is_built()


class TestIdTables:
    def test_build_snapshot_lists_are_served_as_built(self):
        g = paper_example_graph()
        index = BCIndex(g)
        csr = g.freeze()
        delta, delta_max, chi, chi_max = index.id_tables(csr, "SE", "UI")
        assert delta is csr.group_coreness()
        assert chi is index.id_tables(csr, "UI", "SE")[2]
        assert delta_max == index.max_coreness()
        assert chi_max == index.max_butterfly_degree("SE", "UI")
        for vid, vertex in enumerate(csr.interner.vertices()):
            assert delta[vid] == index.coreness(vertex)
            assert chi[vid] == index.butterfly_degree(vertex, "SE", "UI")

    def test_newer_snapshot_is_not_read_by_position(self):
        g = paper_example_graph()
        index = BCIndex(g)
        index.butterfly_degrees_for("SE", "UI")
        g.remove_vertex(next(iter(g.vertices())))  # shifts every later id
        csr = g.freeze()
        delta, _, chi, _ = index.id_tables(csr, "SE", "UI")
        assert len(delta) == len(chi) == csr.num_vertices()
        for vid, vertex in enumerate(csr.interner.vertices()):
            assert delta[vid] == index.coreness(vertex)
            assert chi[vid] == index.butterfly_degree(vertex, "SE", "UI")

    def test_requires_a_built_index(self):
        g = paper_example_graph()
        with pytest.raises(IndexNotBuiltError):
            BCIndex(g, build=False).id_tables(g.freeze(), "SE", "UI")

    def test_every_multilabel_pair_matches_the_object_path(self, wedge_chi):
        """dblp-m's 15 label pairs: the fill counts over cross lists that mix
        six labels, and each entry equals the object path's count and the
        vertex-priority kernel's."""
        g = load_dataset("dblp-m", seed=7).graph
        index = BCIndex(g)
        csr = g.freeze()
        labels = sorted(g.labels())
        assert len(labels) == 6
        for left, right in itertools.combinations(labels, 2):
            view = extract_label_bipartite(g, left, right)
            expected = butterfly_degrees(view)
            assert expected == wedge_chi(view)
            assert index.butterfly_degrees_for(left, right) == expected
            _, _, by_id, chi_max = index.id_tables(csr, left, right)
            assert by_id == [expected.get(v, 0) for v in csr.interner.vertices()]
            assert chi_max == max(expected.values())


@pytest.mark.concurrency
def test_concurrent_first_queries_count_each_pair_once(monkeypatch):
    """Eight cold-index Def. 6 searches on two label pairs at once: none
    raises, and each pair's χ is counted exactly once."""
    g = random_labeled_graph(48, 0.2, ["A", "B", "C"], seed=3)
    first = {label: min(g.vertices_with_label(label)) for label in "ABC"}
    queries = [(first["A"], first["B"]), (first["C"], first["A"])]
    counted = []
    real_kernel = bc_index_module.butterfly_degrees_between
    label_of_id = g.freeze().label_of_id

    def counting_kernel(left, right, adjacency):
        counted.append(frozenset((label_of_id(left[0]), label_of_id(right[0]))))
        return real_kernel(left, right, adjacency)

    monkeypatch.setattr(bc_index_module, "butterfly_degrees_between", counting_kernel)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            index = BCIndex(g)
            counted.clear()
            errors = []
            start = threading.Barrier(8, timeout=30)

            def search(source, target):
                try:
                    start.wait()
                    butterfly_core_shortest_path(
                        g, source, target, index, g.label(source), g.label(target)
                    )
                except Exception as exc:  # reported by the asserts below
                    errors.append(exc)

            threads = [
                threading.Thread(target=search, args=queries[i % 2]) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert Counter(counted) == {
                frozenset(("A", "B")): 1,
                frozenset(("A", "C")): 1,
            }
    finally:
        sys.setswitchinterval(interval)

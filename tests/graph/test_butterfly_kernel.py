"""Algorithm 3's one entry point and its two kernels against brute force."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.graph.csr as csr_module
from repro.core.butterfly import brute_force_butterfly_degrees, butterfly_degree_of
from repro.graph.bipartite import BipartiteView
from repro.graph.csr import (
    CSRBipartiteView,
    _packed_butterfly_degrees,
    _sum_choose2,
    butterfly_degrees_between,
    csr_butterfly_degrees,
)


def _local_slices(left, right, edges):
    """The sides as local ids (left first) with symmetric neighbour lists."""
    position = {v: i for i, v in enumerate(list(left) + list(right))}
    slices = [[] for _ in position]
    for u, w in edges:
        slices[position[u]].append(position[w])
        slices[position[w]].append(position[u])
    return slices


def _all_kernels(left, right, edges, adjacency):
    """χ per vertex from the entry point, the packed and the wedge kernel."""
    order = list(left) + list(right)
    slices = _local_slices(left, right, edges)
    packed = _packed_butterfly_degrees([list(s) for s in slices], len(left))
    wedge = csr_butterfly_degrees(CSRBipartiteView.from_slices(slices, len(left)))
    return (
        butterfly_degrees_between(left, right, adjacency),
        dict(zip(order, packed)),
        dict(zip(order, wedge)),
    )


@st.composite
def bipartite_inputs(draw):
    """Two sides of up to 12 ids each, any edge set between them, and
    neighbour lists that also hold ids outside both sides."""
    n_left = draw(st.integers(min_value=0, max_value=12))
    n_right = draw(st.integers(min_value=0, max_value=12))
    n_other = draw(st.integers(min_value=0, max_value=6))
    ids = draw(st.permutations(range(n_left + n_right + n_other)))
    left, right = ids[:n_left], ids[n_left : n_left + n_right]
    others = ids[n_left + n_right :]
    pairs = [(u, w) for u in left for w in right]
    edges = [pair for pair in pairs if draw(st.booleans())]
    adjacency = {v: [] for v in ids}
    for u, w in edges:
        adjacency[u].append(w)
        adjacency[w].append(u)
    for v in left + right:
        adjacency[v].extend(o for o in others if draw(st.booleans()))
        adjacency[v] = draw(st.permutations(adjacency[v]))
    return left, right, edges, adjacency


@settings(max_examples=200, deadline=None)
@given(bipartite_inputs())
def test_every_kernel_equals_brute_force(drawn):
    left, right, edges, adjacency = drawn
    expected = brute_force_butterfly_degrees(BipartiteView(left, right, edges))
    for chi in _all_kernels(left, right, edges, adjacency):
        assert chi == expected


def test_wide_fields_past_255_neighbours():
    """A left vertex with 300 neighbours widens the left rows to 16 bits."""
    left = ["hub", "big", "small", "alone"]
    right = [f"r{i}" for i in range(300)]
    edges = [("hub", r) for r in right] + [("big", r) for r in right[:260]]
    edges += [("small", r) for r in right[::60]]
    view = BipartiteView(left, right, edges)
    adjacency = {v: list(view.neighbors(v)) for v in view.vertices()}
    expected = {v: butterfly_degree_of(view, v) for v in view.vertices()}
    assert expected["hub"] == 260 * 259 // 2 + 5 * 4 // 2
    for chi in _all_kernels(left, right, edges, adjacency):
        assert chi == expected
        assert chi["alone"] == 0


@pytest.mark.parametrize("width, fmt_max", [(1, 255), (2, 65535), (4, 2**32 - 1)])
def test_field_sums_at_every_width(width, fmt_max):
    rng = random.Random(width)
    fields = [rng.choice([0, 1, 2, 3, 22, 23, 200, 255, fmt_max]) for _ in range(40)]
    row = sum(c << (8 * width * k) for k, c in enumerate(fields))
    expected = sum(c * (c - 1) // 2 for c in fields)
    assert _sum_choose2(row, len(fields), width, max(fields)) == expected


def test_empty_sides():
    adjacency = {1: [7], 2: [7], 3: []}
    assert butterfly_degrees_between([], [1, 2, 3], adjacency) == {1: 0, 2: 0, 3: 0}
    assert butterfly_degrees_between([1, 2, 3], [], adjacency) == {1: 0, 2: 0, 3: 0}
    assert butterfly_degrees_between([], [], adjacency) == {}
    assert _packed_butterfly_degrees([], 0) == []


def test_isolated_vertex_in_a_dense_pair():
    left, right = ["a", "b", "lone"], ["x", "y", "z"]
    edges = [(u, w) for u in "ab" for w in right]
    adjacency = {"a": right, "b": right, "lone": [], "x": ["a", "b"], "y": ["a", "b"], "z": ["a", "b"]}
    for chi in _all_kernels(left, right, edges, adjacency):
        assert chi == {"a": 3, "b": 3, "lone": 0, "x": 2, "y": 2, "z": 2}


@pytest.fixture
def wedge_calls(monkeypatch):
    calls = []
    real = csr_module.csr_butterfly_degrees

    def counting(bip):
        calls.append(bip.num_vertices())
        return real(bip)

    monkeypatch.setattr(csr_module, "csr_butterfly_degrees", counting)
    return calls


def test_sparse_input_takes_the_wedge_kernel(wedge_calls):
    """2 × 600 ids at degree 2: far below the packed kernel's density."""
    rng = random.Random(5)
    left, right = list(range(600)), list(range(600, 1200))
    adjacency = {v: [] for v in left + right}
    edges = []
    for u in left:
        for w in rng.sample(right, 2):
            adjacency[u].append(w)
            adjacency[w].append(u)
            edges.append((u, w))
    chi = butterfly_degrees_between(left, right, adjacency)
    assert wedge_calls == [1200]
    slices = _local_slices(left, right, edges)
    assert list(chi.values()) == _packed_butterfly_degrees(slices, 600)


def test_dense_input_takes_the_packed_kernel(wedge_calls):
    rng = random.Random(6)
    left, right = list(range(40)), list(range(40, 90))
    adjacency = {v: [] for v in left + right}
    for u in left:
        for w in right:
            if rng.random() < 0.3:
                adjacency[u].append(w)
                adjacency[w].append(u)
    chi = butterfly_degrees_between(left, right, adjacency)
    assert wedge_calls == []
    view = BipartiteView(left, right, [(u, w) for u in left for w in adjacency[u]])
    assert chi == {v: butterfly_degree_of(view, v) for v in left + right}

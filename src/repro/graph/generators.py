"""Generic synthetic labeled-graph generators.

These are the low-level building blocks used by :mod:`repro.datasets` to
assemble paper-shaped evaluation networks, and they are also useful on their
own for tests and examples:

* :func:`paper_example_graph` — the running example of Figure 1 (IT
  professional network with SE / UI / PM labels).
* :func:`paper_small_example_graph` — the small graph of Figure 3 used to
  illustrate Algorithms 5-7.
* :func:`planted_partition_graph` — communities with dense intra-community
  and sparse inter-community edges.
* :func:`random_bipartite_graph` — Erdős–Rényi style bipartite graph between
  two label groups.
* :func:`labeled_clique`, :func:`labeled_core_group` — dense single-label
  building blocks.
* :func:`random_labeled_graph` — labels assigned uniformly at random.

All generators take an explicit ``seed`` (or a :class:`random.Random`) so
experiments are reproducible.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Sequence, Tuple, Union

from repro.exceptions import DatasetError
from repro.graph.labeled_graph import LabeledGraph, Vertex

RandomLike = Union[int, random.Random, None]


def _rng(seed: RandomLike) -> random.Random:
    """Return a :class:`random.Random` from a seed, an existing RNG or ``None``."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


# ----------------------------------------------------------------------
# Paper figures
# ----------------------------------------------------------------------
def paper_example_graph() -> LabeledGraph:
    """Return the labeled graph of Figure 1 (reconstructed).

    The figure shows an IT professional network with three labels (SE, UI and
    PM).  The exact drawing cannot be recovered from the paper text alone, so
    this reconstruction preserves every property the paper states about it:

    * ``q_l`` (SE) and ``q_r`` (UI) are the query vertices joined by a cross
      edge;
    * the SE group around ``q_l`` ({q_l, v1..v5}) forms a 4-core, the UI group
      around ``q_r`` ({q_r, u1, u2, u3}) forms a 3-core;
    * the cross edges among {q_l, v5} × {q_r, u3} form exactly one butterfly;
    * the maximum coreness of ``q_l`` is 4 and of ``q_r`` is 3;
    * every vertex of the whole graph has degree at least 3 (so the full graph
      is returned by a plain 3-core search, as the introduction argues);
    * peripheral vertices {v6..v10}, {u4..u7} and a PM vertex ``z1`` are far
      from the query pair.
    """
    g = LabeledGraph()
    se = ["ql", "v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9", "v10"]
    ui = ["qr", "u1", "u2", "u3", "u4", "u5", "u6", "u7"]
    pm = ["z1", "z2", "z3", "z4"]
    for v in se:
        g.add_vertex(v, label="SE")
    for v in ui:
        g.add_vertex(v, label="UI")
    for v in pm:
        g.add_vertex(v, label="PM")

    # Left 4-core: a 6-vertex group where every vertex has >= 4 neighbours.
    left_core = ["ql", "v1", "v2", "v3", "v4", "v5"]
    for u, v in itertools.combinations(left_core, 2):
        if {u, v} != {"v2", "v4"} and {u, v} != {"v1", "v3"}:
            g.add_edge(u, v)

    # Right 3-core: a 4-vertex clique.
    right_core = ["qr", "u1", "u2", "u3"]
    for u, v in itertools.combinations(right_core, 2):
        g.add_edge(u, v)

    # The butterfly between the two cores (dashed edges in the figure).
    g.add_edge("ql", "qr")
    g.add_edge("ql", "u3")
    g.add_edge("v5", "qr")
    g.add_edge("v5", "u3")

    # Peripheral SE chain v6..v10 hanging off v4/v5 (kept at degree >= 3).
    periphery_left = ["v6", "v7", "v8", "v9", "v10"]
    for u, v in itertools.combinations(periphery_left, 2):
        if abs(int(u[1:]) - int(v[1:])) <= 2:
            g.add_edge(u, v)
    g.add_edge("v4", "v6")
    g.add_edge("v4", "v7")
    g.add_edge("v3", "v6")

    # Peripheral UI chain u4..u7 hanging off u1/u2.
    periphery_right = ["u4", "u5", "u6", "u7"]
    for u, v in itertools.combinations(periphery_right, 2):
        if abs(int(u[1:]) - int(v[1:])) <= 2:
            g.add_edge(u, v)
    g.add_edge("u1", "u4")
    g.add_edge("u2", "u4")
    g.add_edge("u1", "u5")

    # The PM group attached between the peripheries.
    for u, v in itertools.combinations(pm, 2):
        g.add_edge(u, v)
    g.add_edge("z1", "v9")
    g.add_edge("z1", "u6")
    g.add_edge("z2", "v10")
    g.add_edge("z3", "u7")
    return g


def paper_small_example_graph() -> LabeledGraph:
    """Return the labeled graph of Figure 3 (reconstructed).

    Figure 3 is used by Examples 4-6 to illustrate the fast query distance
    update and the leader-pair algorithms.  The reconstruction reproduces the
    facts used by those examples:

    * the query vertices are ``q_l`` (left label) and ``q_r`` (right label);
    * the left side is {q_l, v1, v2, v3}, the right side is
      {q_r, u1, ..., u7, u9};
    * non-zero butterfly degrees are χ(v1) = χ(v3) = 6 and
      χ(u2) = χ(u3) = χ(u5) = χ(u6) = 3;
    * the query-distance table (Table 2) holds: e.g. dist(u9, q_l) = 4 and
      deleting u9 moves u4 and u7 from distance 2 to 3 w.r.t. q_r.
    """
    g = LabeledGraph()
    left = ["ql", "v1", "v2", "v3"]
    right = ["qr", "u1", "u2", "u3", "u4", "u5", "u6", "u7", "u9"]
    for v in left:
        g.add_vertex(v, label="L")
    for v in right:
        g.add_vertex(v, label="R")

    # Left intra-group edges: q_l connected to v1, v2, v3, and v2 to v1 so
    # that dist(v2, q_r) = 3 as in Table 2.
    g.add_edge("ql", "v1")
    g.add_edge("ql", "v2")
    g.add_edge("ql", "v3")
    g.add_edge("v1", "v2")

    # Right intra-group edges, chosen to reproduce the distance table
    # (Table 2): u1/u2/u3/u9 adjacent to q_r; u4 and u7 reach q_r only via u9
    # (distance 2 before the deletion of u9, 3 after) or via u5; u5 keeps
    # distance 2 through u2.
    g.add_edge("qr", "u1")
    g.add_edge("qr", "u2")
    g.add_edge("qr", "u3")
    g.add_edge("qr", "u9")
    g.add_edge("u1", "u2")
    g.add_edge("u4", "u9")
    g.add_edge("u7", "u9")
    g.add_edge("u4", "u5")
    g.add_edge("u7", "u5")
    g.add_edge("u5", "u2")

    # Cross edges: v1 and v3 each connect to u2, u3, u5, u6, forming the
    # 2x4 biclique that yields chi(v1) = chi(v3) = 6 and chi(u_i) = 3.
    for v in ("v1", "v3"):
        for u in ("u2", "u3", "u5", "u6"):
            g.add_edge(v, u)
    return g


# ----------------------------------------------------------------------
# Random building blocks
# ----------------------------------------------------------------------
def labeled_clique(
    size: int, label, prefix: str = "c", start: int = 0
) -> LabeledGraph:
    """Return a clique of ``size`` vertices, all carrying ``label``."""
    if size < 1:
        raise DatasetError("clique size must be >= 1")
    g = LabeledGraph()
    names = [f"{prefix}{start + i}" for i in range(size)]
    for name in names:
        g.add_vertex(name, label=label)
    for u, v in itertools.combinations(names, 2):
        g.add_edge(u, v)
    return g


def labeled_core_group(
    vertices: Sequence[Vertex],
    label,
    k: int,
    seed: RandomLike = None,
    extra_edge_prob: float = 0.0,
) -> LabeledGraph:
    """Return a connected graph over ``vertices`` in which every vertex has degree >= k.

    The construction starts from a Harary-style circulant (each vertex linked
    to its ``ceil(k/2)`` successors and predecessors on a ring), which is the
    sparsest classic structure guaranteeing minimum degree ``k`` and
    connectivity, then adds random extra edges with probability
    ``extra_edge_prob`` to diversify densities between groups.
    """
    n = len(vertices)
    if n == 0:
        raise DatasetError("core group needs at least one vertex")
    if k >= n:
        raise DatasetError(f"cannot build a {k}-core on {n} vertices")
    rng = _rng(seed)
    g = LabeledGraph()
    for v in vertices:
        g.add_vertex(v, label=label)
    half = (k + 1) // 2
    for i in range(n):
        for offset in range(1, half + 1):
            g.add_edge(vertices[i], vertices[(i + offset) % n])
    # For odd k the circulant gives degree k+1 on even cycles already;
    # ensure min degree k by adding chords where needed.
    for i, v in enumerate(vertices):
        j = 1
        while g.degree(v) < k:
            target = vertices[(i + half + j) % n]
            if target != v:
                g.add_edge(v, target)
            j += 1
    if extra_edge_prob > 0:
        for u, v in itertools.combinations(vertices, 2):
            if not g.has_edge(u, v) and rng.random() < extra_edge_prob:
                g.add_edge(u, v)
    return g


def random_bipartite_graph(
    left: Sequence[Vertex],
    right: Sequence[Vertex],
    edge_prob: float,
    left_label="L",
    right_label="R",
    seed: RandomLike = None,
) -> LabeledGraph:
    """Return a random bipartite labeled graph (cross edges only)."""
    rng = _rng(seed)
    g = LabeledGraph()
    for v in left:
        g.add_vertex(v, label=left_label)
    for v in right:
        g.add_vertex(v, label=right_label)
    for u in left:
        for v in right:
            if rng.random() < edge_prob:
                g.add_edge(u, v)
    return g


def random_labeled_graph(
    num_vertices: int,
    edge_prob: float,
    labels: Sequence,
    seed: RandomLike = None,
) -> LabeledGraph:
    """Return an Erdős–Rényi graph with labels chosen uniformly at random."""
    if num_vertices < 0:
        raise DatasetError("num_vertices must be >= 0")
    if not labels:
        raise DatasetError("at least one label is required")
    rng = _rng(seed)
    g = LabeledGraph()
    for i in range(num_vertices):
        g.add_vertex(i, label=rng.choice(list(labels)))
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if rng.random() < edge_prob:
                g.add_edge(u, v)
    return g


def planted_partition_graph(
    community_sizes: Sequence[int],
    p_in: float,
    p_out: float,
    seed: RandomLike = None,
    label_for_community=None,
) -> Tuple[LabeledGraph, List[List[int]]]:
    """Return a planted-partition graph plus its ground-truth communities.

    Parameters
    ----------
    community_sizes:
        Number of vertices in each planted community.
    p_in:
        Probability of an edge between two vertices of the same community.
    p_out:
        Probability of an edge between two vertices of different communities.
    label_for_community:
        Optional callable ``community_index -> label``; by default every
        vertex receives the label ``None`` (labels are typically assigned
        later by the dataset-specific protocols).

    Returns
    -------
    (graph, communities):
        The generated graph and the list of ground-truth communities (each a
        list of vertex ids).
    """
    if not community_sizes:
        raise DatasetError("at least one community is required")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise DatasetError("probabilities must satisfy 0 <= p_out <= p_in <= 1")
    rng = _rng(seed)
    g = LabeledGraph()
    communities: List[List[int]] = []
    next_id = 0
    for index, size in enumerate(community_sizes):
        members = list(range(next_id, next_id + size))
        next_id += size
        communities.append(members)
        label = label_for_community(index) if label_for_community else None
        for v in members:
            g.add_vertex(v, label=label)
        for u, v in itertools.combinations(members, 2):
            if rng.random() < p_in:
                g.add_edge(u, v)
    for ci, cj in itertools.combinations(range(len(communities)), 2):
        for u in communities[ci]:
            for v in communities[cj]:
                if rng.random() < p_out:
                    g.add_edge(u, v)
    return g, communities


def ensure_butterfly(
    graph: LabeledGraph,
    left_pair: Tuple[Vertex, Vertex],
    right_pair: Tuple[Vertex, Vertex],
) -> None:
    """Add the four cross edges making ``left_pair`` × ``right_pair`` a butterfly."""
    for u in left_pair:
        for v in right_pair:
            graph.add_edge(u, v)

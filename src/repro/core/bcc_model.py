"""The (k1, k2, b)-Butterfly-Core Community model (Def. 4) and result types.

This module defines:

* :class:`BCCParameters` — the query parameters (k1, k2, b), with the
  automatic "coreness of the query vertices" default of Section 3.5;
* :class:`BCCResult` — the community returned by a search, as member ids on
  the snapshot it came from, with its two label groups, the leader pair and
  bookkeeping statistics;
* :func:`is_bcc` / :func:`validate_bcc` — checking whether a subgraph
  satisfies Def. 4 (two labels, left k1-core, right k2-core, a leader pair
  with butterfly degree at least ``b``);
* :func:`decompose_community` — split a community into its L / B / R parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.exceptions import QueryError
from repro.graph.bipartite import BipartiteView, extract_bipartite
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import LabeledGraph, Label, Vertex
from repro.graph.traversal import are_connected, diameter


@dataclass(frozen=True)
class BCCParameters:
    """Structural parameters of a (k1, k2, b)-BCC query."""

    k1: int
    k2: int
    b: int = 1

    def __post_init__(self) -> None:
        if self.k1 < 0 or self.k2 < 0:
            raise QueryError("core parameters k1 and k2 must be non-negative")
        if self.b < 0:
            raise QueryError("butterfly parameter b must be non-negative")

    @staticmethod
    def from_query(
        graph: LabeledGraph,
        q_left: Vertex,
        q_right: Vertex,
        k1: Optional[int] = None,
        k2: Optional[int] = None,
        b: int = 1,
    ) -> "BCCParameters":
        """Resolve (k1, k2, b), defaulting k1/k2 to the query vertices' coreness.

        Section 3.5: "One simple way for parameter setting is to automatically
        set k1 and k2 with the coreness of the two queries q_l and q_r",
        where the coreness is computed within each query vertex's own label
        group (the BCC cores are label-induced subgraphs).
        """
        from repro.core.kcore import core_decomposition

        if k1 is None:
            left_group = graph.label_induced_subgraph(graph.label(q_left))
            k1 = core_decomposition(left_group).get(q_left, 0)
        if k2 is None:
            right_group = graph.label_induced_subgraph(graph.label(q_right))
            k2 = core_decomposition(right_group).get(q_right, 0)
        return BCCParameters(k1=k1, k2=k2, b=b)


@dataclass
class BCCResult:
    """A butterfly-core community returned by a search algorithm.

    An answer is its member ids on the frozen snapshot it came from.  The
    member set, the two label sides, their sizes and the edge count are read
    off those ids and the snapshot; :attr:`community`, the answer as a
    :class:`LabeledGraph`, is cut out of the snapshot on first read and
    kept.  A snapshot never changes, so a held answer keeps its snapshot
    alive and stays valid on the graph version it came from, whatever
    mutates the served graph later.  The object runners hand over a graph
    they already built (:meth:`from_community`).

    Attributes
    ----------
    csr, ids:
        The snapshot and the community's ids on it.
    left_label, right_label:
        The labels of the two groups.
    parameters:
        The (k1, k2, b) parameters the community satisfies.
    leader_pair:
        ``(v_l, v_r)`` with butterfly degree >= b on each side, when known.
    query_distance:
        ``dist(H, Q)`` of the returned community (Def. 5), if computed.
    iterations:
        Number of peeling iterations performed by the search.
    statistics:
        Free-form per-run counters (timings, butterfly-counting calls, ...).
    """

    csr: CSRGraph
    ids: FrozenSet[int]
    left_label: Label
    right_label: Label
    parameters: BCCParameters
    leader_pair: Optional[Tuple[Vertex, Vertex]] = None
    query_distance: float = 0.0
    iterations: int = 0
    statistics: Dict[str, float] = field(default_factory=dict)
    _community: Optional[LabeledGraph] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_community(
        cls,
        community: LabeledGraph,
        left_label: Label,
        right_label: Label,
        parameters: BCCParameters,
        **fields,
    ) -> "BCCResult":
        """An answer whose graph is already built: a snapshot of its own."""
        csr = CSRGraph.freeze(community)
        ids = frozenset(range(csr.num_vertices()))
        return cls(
            csr, ids, left_label, right_label, parameters, _community=community, **fields
        )

    @property
    def community(self) -> LabeledGraph:
        """The community subgraph (left core ∪ cross edges ∪ right core).

        Built from the snapshot (``csr.induced(ids)``) on first read and kept.
        Two threads reading it first may each build it; the builds are equal.
        """
        community = self._community
        if community is None:
            community = self._community = self.csr.induced(self.ids)
        return community

    @property
    def vertices(self) -> Set[Vertex]:
        """All vertices of the community, as a new set."""
        return set(map(self.csr.interner.vertices().__getitem__, self.ids))

    @property
    def left_vertices(self) -> Set[Vertex]:
        """The community's vertices carrying ``left_label``."""
        return self._side(self.left_label)

    @property
    def right_vertices(self) -> Set[Vertex]:
        """The community's vertices carrying ``right_label``."""
        return self._side(self.right_label)

    def _side(self, label: Label) -> Set[Vertex]:
        interner = self.csr.interner
        lid = interner.try_label_id(label)
        labels, vertex_of = self.csr.labels, interner.vertices()
        return {vertex_of[v] for v in self.ids if labels[v] == lid}

    def num_vertices(self) -> int:
        """Number of vertices in the community."""
        return len(self.ids)

    def num_edges(self) -> int:
        """Number of edges in the community: Σ |N(v) ∩ ids| / 2 over its ids."""
        ids, slices = self.ids, self.csr.adjacency_slices()
        return sum(len(ids.intersection(slices[v])) for v in ids) // 2

    def diameter(self) -> float:
        """Exact diameter of the community (may be expensive on large results)."""
        return diameter(self.community)

    def bipartite(self) -> BipartiteView:
        """The cross-group bipartite graph of the community."""
        return extract_bipartite(self.community, self.left_vertices, self.right_vertices)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BCCResult(|V|={self.num_vertices()}, |E|={self.num_edges()}, "
            f"k1={self.parameters.k1}, k2={self.parameters.k2}, b={self.parameters.b})"
        )


def resolve_query_labels(
    graph: LabeledGraph, q_left: Vertex, q_right: Vertex
) -> Tuple[Label, Label]:
    """Return the labels of the two query vertices, validating the query.

    The BCC problem requires two existing query vertices with *different*
    labels (Problem 1).
    """
    graph.require_vertices([q_left, q_right])
    left_label = graph.label(q_left)
    right_label = graph.label(q_right)
    if left_label == right_label:
        raise QueryError(
            f"query vertices must have different labels, both are {left_label!r}"
        )
    return left_label, right_label


def decompose_community(
    community: LabeledGraph, left_label: Label, right_label: Label
) -> Tuple[LabeledGraph, BipartiteView, LabeledGraph]:
    """Split a community into (L, B, R): left core, cross bipartite graph, right core."""
    left_vertices = community.vertices_with_label(left_label)
    right_vertices = community.vertices_with_label(right_label)
    left = community.induced_subgraph(left_vertices)
    right = community.induced_subgraph(right_vertices)
    bipartite = extract_bipartite(community, left_vertices, right_vertices)
    return left, bipartite, right


def _orientation_violations(
    community: LabeledGraph,
    parameters: BCCParameters,
    left_label: Label,
    right_label: Label,
) -> List[str]:
    """Return core/butterfly violations for one (left, right) label orientation."""
    from repro.core.butterfly import max_butterfly_degree_per_side

    violations: List[str] = []
    left, bipartite, right = decompose_community(community, left_label, right_label)
    for vertex in left.vertices():
        if left.degree(vertex) < parameters.k1:
            violations.append(
                f"left ({left_label!r}) vertex {vertex!r} has intra-group degree "
                f"{left.degree(vertex)} < k1={parameters.k1}"
            )
            break
    for vertex in right.vertices():
        if right.degree(vertex) < parameters.k2:
            violations.append(
                f"right ({right_label!r}) vertex {vertex!r} has intra-group degree "
                f"{right.degree(vertex)} < k2={parameters.k2}"
            )
            break
    max_left, max_right = max_butterfly_degree_per_side(bipartite)
    if max_left < parameters.b or max_right < parameters.b:
        violations.append(
            f"no leader pair with butterfly degree >= b={parameters.b} "
            f"(max_l={max_left}, max_r={max_right})"
        )
    return violations


def validate_bcc(
    community: LabeledGraph,
    parameters: BCCParameters,
    query_vertices: Optional[Sequence[Vertex]] = None,
    left_label: Optional[Label] = None,
) -> List[str]:
    """Return a list of violated Def. 4 / Problem 1 conditions (empty if valid).

    Checks, in order: exactly two labels; the left group is a k1-core; the
    right group is a k2-core; a leader pair with butterfly degree >= b exists;
    and — when ``query_vertices`` is given — the community is connected and
    contains the query vertices.

    ``left_label`` fixes which label group the ``k1`` parameter applies to.
    When omitted, the label of the first query vertex is used if query
    vertices are given; otherwise both orientations are tried and the
    community is valid if either satisfies the definition.
    """
    violations: List[str] = []
    labels = sorted(community.labels(), key=str)
    if len(labels) != 2:
        violations.append(f"community must span exactly 2 labels, found {len(labels)}")
        return violations
    if left_label is None and query_vertices:
        first = query_vertices[0]
        if first in community:
            left_label = community.label(first)
    if left_label is not None and left_label in labels:
        right_label = labels[0] if labels[1] == left_label else labels[1]
        violations.extend(
            _orientation_violations(community, parameters, left_label, right_label)
        )
    else:
        forward = _orientation_violations(community, parameters, labels[0], labels[1])
        backward = _orientation_violations(community, parameters, labels[1], labels[0])
        if forward and backward:
            violations.extend(forward if len(forward) <= len(backward) else backward)
    if query_vertices is not None:
        missing = [q for q in query_vertices if q not in community]
        if missing:
            violations.append(f"community does not contain query vertices {missing!r}")
        elif not are_connected(community, query_vertices):
            violations.append("query vertices are not connected within the community")
    return violations


def is_bcc(
    community: LabeledGraph,
    parameters: BCCParameters,
    query_vertices: Optional[Sequence[Vertex]] = None,
) -> bool:
    """Return ``True`` when the community satisfies Def. 4 (and contains the query)."""
    return not validate_bcc(community, parameters, query_vertices)


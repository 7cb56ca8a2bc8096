"""The offline butterfly-core index (BCindex) of Section 6.3.

The BCindex stores, for every vertex:

* its **label-group coreness** — the coreness of the vertex within the
  subgraph induced by its own label.  The BCC definition only ever uses
  cores taken inside a single label group, so this is the quantity Alg. 8
  needs for its expansion thresholds and for the path weight of Def. 6
  (see DESIGN.md for the discussion of this choice);
* its **butterfly degree** for a given pair of labels — χ(v) over the
  cross-group bipartite graph between the two labels.  Butterfly degrees are
  computed lazily per label pair and cached, because a graph with many labels
  has quadratically many pairs of which a query touches only one.

Both quantities are accessible in O(1) after construction, as the paper
requires for the weighted shortest-path computation; :meth:`BCIndex.id_tables`
serves them as per-id lists over a frozen snapshot's ids.
"""

from __future__ import annotations

import threading
from itertools import compress
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import IndexNotBuiltError
from repro.graph.csr import CSRGraph, butterfly_degrees_between
from repro.graph.labeled_graph import LabeledGraph, Label, Vertex


class PairChi(NamedTuple):
    """One label pair's butterfly degrees, filled once as a unit (``by_id``
    is positional on the snapshot ``csr``)."""

    by_vertex: Dict[Vertex, int]
    max_chi: int
    csr: CSRGraph
    by_id: List[int]

    @classmethod
    def laid_out(cls, by_vertex: Dict[Vertex, int], max_chi: int, csr: CSRGraph) -> "PairChi":
        """The entry with ``by_id`` laid out over the ids of ``csr``."""
        return cls(by_vertex, max_chi, csr, [by_vertex.get(v, 0) for v in csr.interner.vertices()])


class BCIndex:
    """Offline index of label-group coreness and cross-group butterfly degrees.

    Parameters
    ----------
    graph:
        The labeled graph to index.  The index holds a reference (it does not
        copy the graph); it reflects the graph at construction time and is not
        updated if the graph is later mutated — build indexes on the original
        input graph, which community search never modifies.
    build:
        When True (default) the coreness component is built immediately;
        otherwise call :meth:`build`.

    Locking: ``_chi_lock`` guards ``_chi`` and is held across a pair's
    fill, so concurrent first queries on one label pair count it once.
    """

    def __init__(self, graph: LabeledGraph, build: bool = True) -> None:
        self._graph = graph
        #: The snapshot :meth:`build` read; δ is its ``group_coreness()``.
        self._csr: Optional[CSRGraph] = None
        self._max_coreness: int = 0
        self._chi: Dict[Tuple[str, str], PairChi] = {}
        self._chi_lock = threading.Lock()
        if build:
            self.build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Build the coreness component of the index (label-group coreness).

        Adopts the frozen snapshot's per-id label-group coreness
        (:meth:`repro.graph.csr.CSRGraph.group_coreness`) — the same array
        a prepared engine's searches use, so nothing is peeled twice.
        """
        csr = self._graph.freeze()
        self._max_coreness = max(csr.group_coreness(), default=0)
        self._csr = csr

    def is_built(self) -> bool:
        """Return ``True`` once :meth:`build` has run."""
        return self._csr is not None

    def _require_built(self) -> CSRGraph:
        if self._csr is None:
            raise IndexNotBuiltError("call BCIndex.build() before querying the index")
        return self._csr

    # ------------------------------------------------------------------
    # coreness component
    # ------------------------------------------------------------------
    def coreness(self, vertex: Vertex) -> int:
        """Return the label-group coreness δ(v) of ``vertex``."""
        csr = self._require_built()
        vid = csr.try_id_of(vertex)
        return 0 if vid is None else csr.group_coreness()[vid]

    def max_coreness(self) -> int:
        """Return δ_max, the maximum label-group coreness over all vertices."""
        self._require_built()
        return self._max_coreness

    def coreness_map(self) -> Dict[Vertex, int]:
        """Return a copy of the full coreness mapping."""
        csr = self._require_built()
        return dict(zip(csr.interner.vertices(), csr.group_coreness()))

    # ------------------------------------------------------------------
    # butterfly component (lazy per label pair)
    # ------------------------------------------------------------------
    def _pair_key(self, left_label: Label, right_label: Label) -> Tuple[str, str]:
        a, b = str(left_label), str(right_label)
        return (a, b) if a <= b else (b, a)

    def _pair(self, left_label: Label, right_label: Label) -> PairChi:
        """The pair's χ entry, counted on first use (once, under the lock)."""
        key = self._pair_key(left_label, right_label)
        with self._chi_lock:
            entry = self._chi.get(key)
            if entry is None:
                entry = self._chi[key] = self._count_pair(left_label, right_label)
        return entry

    def _count_pair(self, left_label: Label, right_label: Label) -> PairChi:
        """Algorithm 3 between two label groups (the fill of :meth:`_pair`).

        Counts on the graph's snapshot: each group is the ids of its label,
        and the cross edges are :meth:`CSRGraph.label_split`'s cross lists.
        Every id of either group gets an entry, an isolated one 0.
        """
        csr = self._graph.freeze()
        labels = csr.labels
        ids = range(len(labels))
        sides = []
        for label in (left_label, right_label):
            lid = csr.interner.try_label_id(label)
            sides.append([] if lid is None else list(compress(ids, map(lid.__eq__, labels))))
        chi = butterfly_degrees_between(*sides, csr.label_split()[1])
        by_id = [0] * len(labels)
        for vid, value in chi.items():
            by_id[vid] = value
        vertex_of = csr.interner.vertices().__getitem__
        by_vertex = dict(zip(map(vertex_of, chi), chi.values()))
        return PairChi(by_vertex, max(chi.values(), default=0), csr, by_id)

    def butterfly_degrees_for(
        self, left_label: Label, right_label: Label
    ) -> Dict[Vertex, int]:
        """Return χ(v) for every vertex across the given label pair (cached)."""
        return self._pair(left_label, right_label).by_vertex

    def butterfly_degree(
        self, vertex: Vertex, left_label: Label, right_label: Label
    ) -> int:
        """Return χ(vertex) across the given label pair (0 if not involved)."""
        return self._pair(left_label, right_label).by_vertex.get(vertex, 0)

    def max_butterfly_degree(self, left_label: Label, right_label: Label) -> int:
        """Return χ_max over the bipartite graph of the given label pair."""
        return self._pair(left_label, right_label).max_chi

    def id_tables(
        self, csr: CSRGraph, left_label: Label, right_label: Label
    ) -> Tuple[Sequence[int], int, Sequence[int], int]:
        """Def. 6's inputs over the ids of ``csr``: ``(δ, δ_max, χ, χ_max)``.

        Per-id lists are served as built on their own snapshot, else rebuilt
        from the vertex-keyed values.
        """
        built = self._require_built()
        pair = self._pair(left_label, right_label)
        vertices = csr.interner.vertices()
        delta = csr.group_coreness() if csr is built else list(map(self.coreness, vertices))
        chi = pair.by_id if csr is pair.csr else [pair.by_vertex.get(v, 0) for v in vertices]
        return delta, self._max_coreness, chi, pair.max_chi

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def cached_label_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """Return the label pairs whose butterfly degrees have been computed."""
        with self._chi_lock:
            return tuple(sorted(self._chi))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        built = "built" if self.is_built() else "not built"
        return (
            f"BCIndex({built}, |V|={self._graph.num_vertices()}, "
            f"cached_pairs={len(self.cached_label_pairs())})"
        )


def build_bc_index(graph: LabeledGraph) -> BCIndex:
    """Convenience constructor mirroring the paper's offline index build step."""
    return BCIndex(graph, build=True)

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
requires for the weighted shortest-path computation.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.core.butterfly import butterfly_degrees
from repro.exceptions import IndexNotBuiltError
from repro.graph.bipartite import extract_label_bipartite
from repro.graph.labeled_graph import LabeledGraph, Label, Vertex


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
    """

    def __init__(self, graph: LabeledGraph, build: bool = True) -> None:
        self._graph = graph
        self._coreness: Optional[Dict[Vertex, int]] = None
        self._max_coreness: int = 0
        self._butterfly_cache: Dict[Tuple[str, str], Dict[Vertex, int]] = {}
        self._max_butterfly_cache: Dict[Tuple[str, str], int] = {}
        if build:
            self.build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Build the coreness component of the index (label-group coreness).

        Reads the frozen snapshot's per-id label-group coreness
        (:meth:`repro.graph.csr.CSRGraph.group_coreness`) — the same array
        a prepared engine's searches use, so nothing is peeled twice.
        """
        csr = self._graph.freeze()
        coreness = csr.group_coreness()
        self._coreness = dict(zip(csr.interner.vertices(), coreness))
        self._max_coreness = max(coreness, default=0)

    def is_built(self) -> bool:
        """Return ``True`` once :meth:`build` has run."""
        return self._coreness is not None

    def _require_built(self) -> None:
        if self._coreness is None:
            raise IndexNotBuiltError("call BCIndex.build() before querying the index")

    # ------------------------------------------------------------------
    # coreness component
    # ------------------------------------------------------------------
    def coreness(self, vertex: Vertex) -> int:
        """Return the label-group coreness δ(v) of ``vertex``."""
        self._require_built()
        return self._coreness.get(vertex, 0)  # type: ignore[union-attr]

    def max_coreness(self) -> int:
        """Return δ_max, the maximum label-group coreness over all vertices."""
        self._require_built()
        return self._max_coreness

    def coreness_map(self) -> Dict[Vertex, int]:
        """Return a copy of the full coreness mapping."""
        self._require_built()
        return dict(self._coreness)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # butterfly component (lazy per label pair)
    # ------------------------------------------------------------------
    def _pair_key(self, left_label: Label, right_label: Label) -> Tuple[str, str]:
        a, b = str(left_label), str(right_label)
        return (a, b) if a <= b else (b, a)

    def butterfly_degrees_for(
        self, left_label: Label, right_label: Label
    ) -> Dict[Vertex, int]:
        """Return χ(v) for every vertex across the given label pair (cached)."""
        key = self._pair_key(left_label, right_label)
        if key not in self._butterfly_cache:
            bipartite = extract_label_bipartite(self._graph, left_label, right_label)
            degrees = butterfly_degrees(bipartite)
            self._butterfly_cache[key] = degrees
            self._max_butterfly_cache[key] = max(degrees.values()) if degrees else 0
        return self._butterfly_cache[key]

    def butterfly_degree(
        self, vertex: Vertex, left_label: Label, right_label: Label
    ) -> int:
        """Return χ(vertex) across the given label pair (0 if not involved)."""
        return self.butterfly_degrees_for(left_label, right_label).get(vertex, 0)

    def max_butterfly_degree(self, left_label: Label, right_label: Label) -> int:
        """Return χ_max over the bipartite graph of the given label pair."""
        self.butterfly_degrees_for(left_label, right_label)
        return self._max_butterfly_cache[self._pair_key(left_label, right_label)]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def cached_label_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """Return the label pairs whose butterfly degrees have been computed."""
        return tuple(sorted(self._butterfly_cache))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        built = "built" if self.is_built() else "not built"
        return (
            f"BCIndex({built}, |V|={self._graph.num_vertices()}, "
            f"cached_pairs={len(self._butterfly_cache)})"
        )


def build_bc_index(graph: LabeledGraph) -> BCIndex:
    """Convenience constructor mirroring the paper's offline index build step."""
    return BCIndex(graph, build=True)

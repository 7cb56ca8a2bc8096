"""CSR graph snapshots and the flat-array graph kernels.

The object substrate (:class:`~repro.graph.labeled_graph.LabeledGraph` and
:class:`~repro.graph.bipartite.BipartiteView`) keys adjacency by arbitrary
hashable vertices, which is flexible but pays a Python hash plus boxed
set/dict machinery on every neighbour visit.  The hot kernels of the BCC
pipeline — butterfly-degree counting (Algorithm 3), k-core peeling
(Algorithms 2/4) and the per-iteration BFS query-distance sweep
(Algorithms 1/5) — spend almost all of their time in exactly those visits,
so this module provides a compact CSR (compressed sparse row) mirror of the
labeled graph and runs the three kernels natively on integer ids over flat
arrays.  This is the same layout that makes the Batagelj–Zaversnik peeling
[3] fast in practice.  Butterfly counting sums packed wedge rows on dense
inputs (Gustavson's dense-accumulator row product, ACM TOMS 1978) and runs
the vertex-priority counting of Wang et al. [41] on sparse ones.

The interning / freeze–thaw contract
------------------------------------

* A :class:`VertexInterner` maps vertices and labels to dense integer ids
  (``0 .. n-1``) and back.  Ids are assigned in **iteration order** of the
  frozen graph, so a CSR snapshot visits vertices in exactly the same order
  as the object graph it mirrors.
* :meth:`CSRGraph.freeze` takes an immutable snapshot of a
  :class:`LabeledGraph` (:meth:`LabeledGraph.freeze` caches one per graph
  version, so repeated kernel calls on an unmutated graph pay the freeze
  once); :meth:`CSRGraph.thaw` converts back.  A frozen graph is **never
  mutated**: shrinking phases instead carry a ``dead`` id set which every
  kernel accepts.  This works because the BCC searches only ever *delete
  vertices* from a community — every intermediate graph is an induced
  subgraph of the frozen one (see :mod:`repro.core.online_bcc`).
* Graph construction and dataset generation keep using the object
  substrate.  The CSR pipeline (:mod:`repro.core.pipeline`) runs whole
  searches — Algorithm 4 cascades included — on id sets over one frozen
  snapshot and materializes only the answer (:meth:`CSRGraph.induced`).

One kernel per algorithm
------------------------

Each kernel has one implementation, here.  Algorithm 3 has one entry point,
:func:`butterfly_degrees_between`: the pipeline's per-query recount and
``G0`` fill, the BCindex χ fill and the object-facing
:func:`repro.core.butterfly.butterfly_degrees` all hand it two sides and an
adjacency, and it picks the packed or the vertex-priority kernel by
density.  The other object-facing entry points are thin too:
:func:`repro.core.kcore.core_decomposition` and
:func:`repro.core.kcore.k_core_vertices` read the graph snapshot's
:meth:`CSRGraph.coreness` and :func:`csr_k_core_alive`.  Breadth-first
search is the exception in the other direction:
:func:`repro.graph.traversal.bfs_distances` walks the adjacency sets, so a
depth-limited search never pays a whole-graph freeze, while callers that
already hold ids run :func:`csr_bfs_distances`.  On a snapshot's
fill-once adjacency bit table (:meth:`CSRGraph.adjacency_bits`, one int
per id) breadth-first search has one kernel, :func:`bit_bfs_levels`: a
level is one C-level OR over its frontier's rows, the bitmap frontier of
Beamer, Asanović & Patterson ("Direction-Optimizing Breadth-First
Search", SC 2012).  LP- and L2P-BCC keep their query distances as those
levels (Algorithm 5), and :func:`csr_bfs_distances` given the table grows
them too and turns them into its per-id list, so Online-BCC's
per-iteration sweep (Algorithm 1's full recomputation) runs the same
kernel.  Only a snapshot whose table would exceed
:data:`BIT_TABLE_BYTES_PER_EDGE` keeps set frontiers.

The adjacency is built and iterated as flat plain lists — CPython re-boxes
every ``array`` element on access while list elements are shared references,
so lists are what the kernels run on.  Compact ``array('l')`` /
``array('i')`` views of the same offset/neighbour data are available through
the :attr:`~_FlatAdjacency.offsets` / :attr:`~_FlatAdjacency.neighbors`
properties (materialized lazily) for serialization or memory-tight export;
no third-party dependencies anywhere.
"""

from __future__ import annotations

import sys
import threading
from array import array
from collections import Counter, OrderedDict, deque
from functools import reduce
from itertools import accumulate, chain, compress, repeat
from operator import lshift, mul, or_
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.exceptions import VertexNotFoundError
from repro.graph.labeled_graph import Label, LabeledGraph, Vertex

#: Unreached/unknown distance sentinel used by the BFS kernels.
UNREACHED = -1

#: The G0 memo of a snapshot holds at most this many ids per vertex
#: (:meth:`CSRGraph.g0`).  The perfbench graph's 25-29 distinct ``G0`` per
#: query seed, L2P's candidates included, hold 18-22 ids per vertex, so its
#: whole working set stays resident.
G0_MEMO_ID_FACTOR = 32

#: A G0 memo key: ``(L, R, b)``, the cores as the entry's own frozensets.
G0Key = Tuple[FrozenSet[int], FrozenSet[int], int]

#: A snapshot builds its adjacency bit table (:meth:`CSRGraph.adjacency_bits`)
#: only while the table's n²/8 bytes stay within this many bytes per edge:
#: its neighbour lists already hold ~48 (three pointer lists, two 8-byte
#: entries per edge each), so the table at most about doubles them.
BIT_TABLE_BYTES_PER_EDGE = 40

#: :func:`bit_ids` pops bits one by one while they fill under 1/12 of the
#: span, and beyond that reads ``bin()``'s digits, mapped to bytes 0 / 1.
_DENSE_DECODE = 12
_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")

#: :func:`_level_distances` writes the depths below this as one signed byte
#: per id: per depth d, a level's binary digits become 0 off the level and
#: ``~d`` on it, and flipping every byte back leaves d, or -1 on no level.
_BYTE_DEPTHS = 128
_DEPTH_LANES = [bytes.maketrans(b"01", bytes((0, 0xFF ^ d))) for d in range(_BYTE_DEPTHS)]
_FLIP_BYTES = bytes(0xFF ^ byte for byte in range(256))


class G0(NamedTuple):
    """One ``G0`` of Algorithm 2 over a snapshot's ids, shared read-only.

    ``left`` / ``right`` are the connected cores L and R, ``chi`` the
    butterfly degree of every id of ``L ∪ R``, ``deg`` its intra-label
    degree (Algorithm 4's counters; a query mutates a ``copy()``), and
    ``valid`` whether ``G0`` passed Def. 4's leader-pair and connectivity
    checks.
    """

    left: FrozenSet[int]
    right: FrozenSet[int]
    chi: Mapping[int, int]
    deg: Mapping[int, int]
    valid: bool


def _is_identity(order: List[Vertex]) -> bool:
    """Whether every vertex is a (non-``bool``) ``int`` equal to its index.

    Checked with C-speed passes (the distinct types, then one list
    comparison), because a snapshot attach runs it over every vertex.
    """
    for kind in set(map(type, order)):
        if not issubclass(kind, int) or issubclass(kind, bool):
            return False
    return order == list(range(len(order)))


class VertexInterner:
    """Bidirectional vertex <-> dense integer id (and label <-> label id) map.

    Ids are dense and start at 0, in the order vertices are interned; the
    freeze helpers intern in graph iteration order so id order equals the
    object graph's iteration order.  When every vertex already *is* its own
    dense id (``vertex == index``, the common case for synthetic networks),
    the interner detects it and skips the translation dict entirely.
    """

    __slots__ = ("_id_of", "_vertex_of", "_identity", "_label_id_of", "_label_of")

    def __init__(self, order: Optional[Sequence[Vertex]] = None) -> None:
        self._vertex_of: List[Vertex] = list(order) if order is not None else []
        self._identity: bool = _is_identity(self._vertex_of)
        self._id_of: Optional[Dict[Vertex, int]] = (
            None
            if self._identity
            else dict(zip(self._vertex_of, range(len(self._vertex_of))))
        )
        self._label_id_of: Dict[Label, int] = {}
        self._label_of: List[Label] = []

    # -- vertices -------------------------------------------------------
    def id_of(self, vertex: Vertex) -> int:
        """Return the id of an interned ``vertex`` (raise if unknown)."""
        vid = self.try_id_of(vertex)
        if vid is None:
            raise VertexNotFoundError(vertex)
        return vid

    def try_id_of(self, vertex: Vertex) -> Optional[int]:
        """Return the id of ``vertex`` or ``None`` when it was never interned."""
        if self._identity:
            if (
                isinstance(vertex, int)
                and not isinstance(vertex, bool)
                and 0 <= vertex < len(self._vertex_of)
            ):
                return vertex
            return None
        return self._id_of.get(vertex)  # type: ignore[union-attr]

    def vertex_of(self, vid: int) -> Vertex:
        """Return the vertex object behind ``vid``."""
        return self._vertex_of[vid]

    def vertices(self) -> List[Vertex]:
        """Return the interned vertices in id order (do not mutate)."""
        return self._vertex_of

    def __len__(self) -> int:
        return len(self._vertex_of)

    def __contains__(self, vertex: Vertex) -> bool:
        return self.try_id_of(vertex) is not None

    # -- labels ---------------------------------------------------------
    def intern_label(self, label: Label) -> int:
        """Return the label id of ``label``, assigning a new one if needed."""
        lid = self._label_id_of.get(label)
        if lid is None:
            lid = len(self._label_of)
            self._label_id_of[label] = lid
            self._label_of.append(label)
        return lid

    def label_of(self, lid: int) -> Label:
        """Return the label object behind ``lid``."""
        return self._label_of[lid]

    def try_label_id(self, label: Label) -> Optional[int]:
        """Return the id of ``label`` or ``None`` when it was never interned."""
        return self._label_id_of.get(label)

    def num_labels(self) -> int:
        """Return how many distinct labels have been interned."""
        return len(self._label_of)


class _FlatAdjacency:
    """Shared flat-array adjacency plumbing for the two CSR classes.

    The adjacency is built as plain flat lists (CPython constructs those at
    C speed and kernels iterate them without re-boxing every element); the
    canonical compact ``array('l')`` / ``array('i')`` storage is
    materialized lazily through the :attr:`offsets` / :attr:`neighbors`
    properties, so freezes that only feed kernels never pay for it.

    The constructor also accepts *ready-made* compact storage — an
    :class:`array.array` or an int-typed :class:`memoryview` (e.g. a cast
    slice of an ``mmap``) — in place of the plain lists.  That path copies
    nothing: the given buffers become the canonical :attr:`offsets` /
    :attr:`neighbors` storage directly, and the kernel-facing flat lists
    are materialized lazily on the first :meth:`adjacency_lists` call, so
    attaching a persisted snapshot costs O(1) until a kernel actually runs.
    """

    __slots__ = ("interner", "_offsets_arr", "_neighbors_arr", "_offs", "_nbrs", "_slices", "_deg")

    def __init__(
        self,
        interner: VertexInterner,
        offsets: Union[List[int], Sequence[int]],
        neighbors: Union[List[int], Sequence[int]],
    ) -> None:
        self.interner = interner
        if isinstance(offsets, list):
            self._offs: Optional[List[int]] = offsets
            self._offsets_arr: Optional[Sequence[int]] = None
        else:  # ready-made storage (array / memoryview): adopt, don't copy
            self._offs = None
            self._offsets_arr = offsets
        if isinstance(neighbors, list):
            self._nbrs: Optional[List[int]] = neighbors
            self._neighbors_arr: Optional[Sequence[int]] = None
        else:
            self._nbrs = None
            self._neighbors_arr = neighbors
        self._slices: Optional[List[List[int]]] = None
        self._deg: Optional[List[int]] = None

    @property
    def offsets(self) -> Sequence[int]:
        """Compact offset storage of length ``n + 1``; neighbours of id ``v``
        live in ``neighbors[offsets[v]:offsets[v + 1]]``.

        An ``array('l')`` on the freeze path (materialized lazily from the
        flat list); whatever buffer the caller injected — e.g. an
        ``mmap``-backed ``memoryview`` — on the attach path.
        """
        if self._offsets_arr is None:
            self._offsets_arr = array("l", self._offs)
        return self._offsets_arr

    @property
    def neighbors(self) -> Sequence[int]:
        """Compact neighbour-id storage, ``2 |E|`` entries (see :attr:`offsets`)."""
        if self._neighbors_arr is None:
            self._neighbors_arr = array("i", self._nbrs)
        return self._neighbors_arr

    # -- sizes ----------------------------------------------------------
    def num_vertices(self) -> int:
        """Return the number of frozen vertices."""
        offs = self._offs if self._offs is not None else self._offsets_arr
        return len(offs) - 1

    def num_edges(self) -> int:
        """Return the number of frozen undirected edges."""
        nbrs = self._nbrs if self._nbrs is not None else self._neighbors_arr
        return len(nbrs) // 2

    def degree(self, vid: int) -> int:
        """Return the frozen degree of id ``vid``."""
        offs = self._offs if self._offs is not None else self._offsets_arr
        return offs[vid + 1] - offs[vid]

    def degree_list(self) -> List[int]:
        """Return (and cache) the per-id degree list."""
        if self._deg is None:
            offs, _ = self.adjacency_lists()
            self._deg = [offs[i + 1] - offs[i] for i in range(len(offs) - 1)]
        return self._deg

    # -- id plumbing -----------------------------------------------------
    def id_of(self, vertex: Vertex) -> int:
        """Return the id of ``vertex`` (raise if not frozen)."""
        return self.interner.id_of(vertex)

    def try_id_of(self, vertex: Vertex) -> Optional[int]:
        """Return the id of ``vertex`` or ``None`` when not part of the snapshot."""
        return self.interner.try_id_of(vertex)

    def vertex_of(self, vid: int) -> Vertex:
        """Return the vertex object behind ``vid``."""
        return self.interner.vertex_of(vid)

    # -- kernel views ----------------------------------------------------
    def adjacency_lists(self) -> Tuple[List[int], List[int]]:
        """Return ``(offsets, neighbors)`` as plain lists for kernels.

        On the attach path (compact storage injected at construction) the
        lists are materialized here, once, the first time a kernel needs
        them — a C-speed ``list()`` over the storage buffer.
        """
        if self._offs is None:
            self._offs = list(self._offsets_arr)
        if self._nbrs is None:
            self._nbrs = list(self._neighbors_arr)
        return self._offs, self._nbrs

    def adjacency_slices(self) -> List[List[int]]:
        """Return (and cache) per-id neighbour lists sliced out of the flat array.

        Kernels that revisit neighbourhoods many times (BFS sweeps, wedge
        enumeration) iterate these shared slices instead of re-slicing the
        flat array on every visit.  Neighbour *order* within a slice is not
        part of the contract (the butterfly kernel rank-sorts in place).
        """
        if self._slices is None:
            offs, nbrs = self.adjacency_lists()
            self._slices = [
                nbrs[offs[i] : offs[i + 1]] for i in range(len(offs) - 1)
            ]
        return self._slices


class CSRGraph(_FlatAdjacency):
    """An immutable CSR snapshot of a :class:`LabeledGraph`.

    Construction is via :meth:`freeze`; the inverse bridge is :meth:`thaw`.
    ``labels`` holds one label id per vertex id.  The snapshot lazily caches
    derived read-only structures (degree list, adjacency slices, coreness,
    the same-label / cross-label split, the label-group coreness, the
    adjacency bit table, the connected cores Algorithm 2 cuts from that
    coreness and a bounded memo of its ``G0``) so repeated kernel calls
    amortize their construction.

    Locking: ``_g0_lock`` is a leaf guarding ``_g0_memo`` and ``_g0_ids``;
    ``_g0_fill_lock`` serializes ``G0`` builds, so a lookup never waits
    behind a fill.  ``_bits_lock`` is a leaf guarding ``_bits``, and
    ``_cores_lock`` a leaf guarding ``_cores``, never held while a core's
    BFS runs.
    """

    __slots__ = (
        "labels", "_coreness", "_label_split", "_group_coreness", "_bits", "_bits_lock",
        "_cores", "_cores_lock", "_g0_memo", "_g0_ids", "_g0_lock", "_g0_fill_lock",
        "__weakref__",
    )

    def __init__(
        self,
        interner: VertexInterner,
        offsets: Union[List[int], Sequence[int]],
        neighbors: Union[List[int], Sequence[int]],
        labels: Sequence[int],
    ) -> None:
        super().__init__(interner, offsets, neighbors)
        self.labels = labels
        self._coreness: Optional[List[int]] = None
        self._label_split: Optional[Tuple[List[List[int]], List[List[int]]]] = None
        self._group_coreness: Optional[List[int]] = None
        self._bits: Optional[List[int]] = None
        self._bits_lock = threading.Lock()
        self._cores: Dict[int, List[Optional[FrozenSet[int]]]] = {}
        self._cores_lock = threading.Lock()
        self._g0_memo: "OrderedDict[G0Key, G0]" = OrderedDict()
        self._g0_ids = 0
        self._g0_lock = threading.Lock()
        self._g0_fill_lock = threading.Lock()

    # ------------------------------------------------------------------
    # freeze / thaw bridge
    # ------------------------------------------------------------------
    @classmethod
    def freeze(
        cls, graph: LabeledGraph, vertices: Optional[Iterable[Vertex]] = None
    ) -> "CSRGraph":
        """Snapshot ``graph`` (or the subgraph induced by ``vertices``).

        Ids follow the iteration order of ``graph`` (restricted to
        ``vertices`` when given), so CSR sweeps visit vertices in the same
        order as object-graph sweeps.  Prefer
        :meth:`LabeledGraph.freeze`, which caches the snapshot per graph
        version.
        """
        adj = graph._adj  # friend access: freezing is a graph-layer concern
        vertex_labels = graph._labels
        if vertices is None:
            order = list(adj)
            interner = VertexInterner(order)
            offsets = [0]
            offsets.extend(accumulate(map(len, adj.values())))
            flat = chain.from_iterable(adj.values())
            if interner._identity:
                neighbors = list(flat)
            else:
                neighbors = list(
                    map(interner._id_of.__getitem__, flat)  # type: ignore[union-attr]
                )
        else:
            keep = {v for v in vertices if v in adj}
            order = [v for v in adj if v in keep]
            interner = VertexInterner(order)
            id_map = {v: i for i, v in enumerate(order)}
            neighbors = []
            offsets = [0] * (len(order) + 1)
            for i, v in enumerate(order):
                neighbors.extend(id_map[w] for w in adj[v] if w in keep)
                offsets[i + 1] = len(neighbors)
        intern_label = interner.intern_label
        labels = array("i", [intern_label(vertex_labels[v]) for v in order])
        return cls(interner, offsets, neighbors, labels)

    @classmethod
    def attach(
        cls,
        order: Sequence[Vertex],
        label_order: Sequence[Label],
        offsets: Sequence[int],
        neighbors: Sequence[int],
        labels: Sequence[int],
        coreness: Optional[Sequence[int]] = None,
        group_coreness: Optional[Sequence[int]] = None,
    ) -> "CSRGraph":
        """Adopt ready-made CSR storage — the attach-from-buffer path.

        The inverse of serializing a frozen snapshot: ``order`` and
        ``label_order`` rebuild the interner (identity detection keeps
        dense-int graphs dict-free), and the ``offsets`` / ``neighbors`` /
        ``labels`` buffers — typically ``memoryview`` casts over an
        ``mmap``-ed snapshot file or a ``multiprocessing.shared_memory``
        block — become the canonical storage *without copying* through the
        storage-injection constructor.  Kernel-facing flat lists
        materialize lazily on first use, exactly as on the
        :meth:`~repro.store.Snapshot.as_csr_graph` path.  A ``coreness``
        sequence (when the producer already peeled) is materialized
        eagerly so the first k-core query is an O(n) filter, and so is a
        ``group_coreness`` sequence, which spares :meth:`group_coreness`
        its peel.
        """
        interner = VertexInterner(order)
        for label in label_order:
            interner.intern_label(label)
        csr = cls(interner, offsets, neighbors, labels)
        if coreness is not None:
            csr._coreness = list(coreness)
        if group_coreness is not None:
            csr._group_coreness = list(group_coreness)
        return csr

    def thaw(self, dead: Optional[Set[int]] = None) -> LabeledGraph:
        """Rebuild a :class:`LabeledGraph`, dropping ids in ``dead``.

        This realizes "induced subgraph on the survivors" without touching
        the frozen arrays.
        """
        g = LabeledGraph()
        interner = self.interner
        offs, nbrs = self.adjacency_lists()
        labels = self.labels
        for v in range(len(labels)):
            if dead is not None and v in dead:
                continue
            g.add_vertex(interner.vertex_of(v), label=interner.label_of(labels[v]))
        for v in range(len(labels)):
            if dead is not None and v in dead:
                continue
            vertex = interner.vertex_of(v)
            for w in nbrs[offs[v] : offs[v + 1]]:
                if w > v and (dead is None or w not in dead):
                    g.add_edge(vertex, interner.vertex_of(w))
        return g

    def induced(self, ids: Iterable[int]) -> LabeledGraph:
        """Build the :class:`LabeledGraph` induced by the ids in ``ids``.

        How a pipeline answer builds its graph when first read
        (:attr:`repro.core.bcc_model.BCCResult.community`): the adjacency
        sets are cut straight out of the frozen slices (C-speed set
        intersections) and adopted by the graph, with no per-edge
        ``add_edge`` calls.
        """
        keep = set(ids)
        slices = self.adjacency_slices()
        labels = self.labels
        label_of = self.interner.label_of
        if self.interner._identity:
            adjacency = {v: keep.intersection(slices[v]) for v in keep}
            vertex_labels = {v: label_of(labels[v]) for v in keep}
        else:
            order = self.interner.vertices()
            adjacency = {
                order[v]: {order[w] for w in keep.intersection(slices[v])}
                for v in keep
            }
            vertex_labels = {order[v]: label_of(labels[v]) for v in keep}
        return LabeledGraph.adopt(adjacency, vertex_labels)

    # ------------------------------------------------------------------
    # cached decompositions
    # ------------------------------------------------------------------
    def coreness(self) -> List[int]:
        """Return (and cache) the coreness per id.

        k-core extraction then reduces to an O(n) filter because the maximal
        k-core is exactly ``{v : coreness(v) >= k}``; a k-sweep (Algorithm 2
        runs one extraction per query side, Fig. 8 sweeps k) pays the
        peeling once per snapshot.
        """
        if self._coreness is None:
            self._coreness = core_numbers(self.adjacency_slices())
        return self._coreness

    def label_split(self) -> Tuple[List[List[int]], List[List[int]]]:
        """Return (and cache) ``(same, cross)`` per-id neighbour lists.

        ``same[v]`` holds the neighbours carrying ``v``'s label (the edges
        of its label-induced group), ``cross[v]`` the others (the edges of
        every cross-group bipartite graph ``v`` belongs to).  The fill is
        not locked: a serving engine fills it once under its own freeze
        lock (:meth:`repro.api.BCCEngine.frozen_graph`).
        """
        if self._label_split is None:
            self._label_split = split_by_label(self.adjacency_slices(), self.labels)
        return self._label_split

    def has_label_split(self) -> bool:
        """Whether :meth:`label_split` is already cached."""
        return self._label_split is not None

    def group_coreness(self) -> List[int]:
        """Return (and cache) each id's coreness inside its own label group.

        The label groups are disjoint, so one peel over the same-label
        adjacency (:meth:`label_split`) yields every group's coreness at
        once.  This is the BCindex's coreness component and the automatic
        k1/k2 of Section 3.5; a snapshot attach supplies it pre-computed.
        """
        if self._group_coreness is None:
            self._group_coreness = core_numbers(self.label_split()[0])
        return self._group_coreness

    def has_group_coreness(self) -> bool:
        """Whether :meth:`group_coreness` is already cached (or was attached)."""
        return self._group_coreness is not None

    def adjacency_bits(self) -> Optional[List[int]]:
        """Return (and cache) the adjacency bit table, or ``None`` over budget.

        Row ``v`` is one int with bit ``w`` set for each neighbour ``w``
        (:func:`adjacency_bit_rows`), so a BFS level is one C-level OR over
        its frontier's rows (:func:`bit_bfs_levels`).  The table takes n²/8
        bytes, and a snapshot over :data:`BIT_TABLE_BYTES_PER_EDGE` bytes per
        edge never builds it.  It is filled once, by the first Online-, LP-
        or L2P-BCC search that reaches its query distances (never by a
        serving engine's ``prepare()``), under ``_bits_lock``, and it lives
        and dies with this snapshot.
        """
        n = self.num_vertices()
        if n * n > 8 * BIT_TABLE_BYTES_PER_EDGE * self.num_edges():
            return None
        with self._bits_lock:
            if self._bits is None:
                self._bits = adjacency_bit_rows(self.adjacency_slices())
            return self._bits

    def has_adjacency_bits(self) -> bool:
        """Whether :meth:`adjacency_bits` is already filled."""
        with self._bits_lock:
            return self._bits is not None

    def core_component(
        self, k: int, vid: int, build: Callable[[], Optional[Iterable[int]]]
    ) -> Optional[FrozenSet[int]]:
        """Return the connected k-core of :meth:`group_coreness` that holds ``vid``.

        The connected k-cores of a label group nest, so each id lies in at
        most one per k, and the memo keeps one table per k from id to its
        component.  On a miss ``build`` finds the component (``None`` when
        ``vid``'s coreness is below k), outside any lock: it is per-query
        work and may stop at its deadline, so only a finished component is
        published, under ``_cores_lock``, for each of its ids.  A caller
        that built an equal copy meanwhile gets the published one, so every
        search that cuts a component shares one frozenset.  The memo is
        bounded by construction, with no eviction: one table of |V| slots
        per k that some search reached, and k never exceeds the largest
        group coreness, so at most that coreness + 1 tables.  It lives and
        dies with this snapshot.
        """
        with self._cores_lock:
            table = self._cores.get(k)
            component = None if table is None else table[vid]
        if component is not None:
            return component
        found = build()
        if found is None:
            return None
        component = frozenset(found)
        with self._cores_lock:
            table = self._cores.get(k)
            if table is None:
                table = self._cores[k] = [None] * self.num_vertices()
            published = table[vid]
            if published is not None:
                return published
            for v in component:
                table[v] = component
        return component

    def core_entries(self) -> Dict[int, List[FrozenSet[int]]]:
        """The published connected cores per k, each once, k ascending."""
        with self._cores_lock:
            return {
                k: list(dict.fromkeys(filter(None, table)))
                for k, table in sorted(self._cores.items())
            }

    def g0(self, key: G0Key, build: Callable[[], G0]) -> Tuple[G0, bool]:
        """Return the memoized ``G0`` under ``key``, and whether it was a hit.

        Algorithm 2 past the cores reads only ``L``, ``R`` and ``b``, so the
        key ``(L, R, b)`` names ``G0`` exactly, whichever coreness (this
        snapshot's or an L2P candidate's) cut the cores.  ``build`` runs once
        per key, double-checked under the fill lock, however many threads
        miss it at once.  The memo keeps at most :data:`G0_MEMO_ID_FACTOR`
        ``* |V|`` ids of ``L ∪ R``, evicting the least recently used entries;
        it lives and dies with this snapshot.
        """
        entry = self._g0_lookup(key)
        if entry is not None:
            return entry, True
        with self._g0_fill_lock:
            entry = self._g0_lookup(key)
            if entry is not None:
                return entry, True
            entry = build()
            bound = G0_MEMO_ID_FACTOR * self.num_vertices()
            with self._g0_lock:
                self._g0_memo[key] = entry
                self._g0_ids += len(entry.left) + len(entry.right)
                while self._g0_ids > bound:
                    _, old = self._g0_memo.popitem(last=False)
                    self._g0_ids -= len(old.left) + len(old.right)
        return entry, False

    def _g0_lookup(self, key: G0Key) -> Optional[G0]:
        with self._g0_lock:
            entry = self._g0_memo.get(key)
            if entry is not None:
                self._g0_memo.move_to_end(key)
            return entry

    def g0_entries(self) -> Dict[G0Key, G0]:
        """A copy of the ``G0`` memo, least recently used first."""
        with self._g0_lock:
            return dict(self._g0_memo)

    def label_of_id(self, vid: int) -> Label:
        """Return the label object of id ``vid``."""
        return self.interner.label_of(self.labels[vid])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(|V|={self.num_vertices()}, |E|={self.num_edges()})"


class CSRBipartiteView(_FlatAdjacency):
    """Flat adjacency of a two-sided graph over caller-local ids.

    Ids ``0 .. n_left - 1`` are the left side and the remaining ids the
    right side, so ``vid < n_left`` tests the side in O(1).  There is no
    interner: the ids are the caller's own (e.g. positions in a list of
    global ids), and the counting kernels never translate them.
    """

    __slots__ = ("n_left", "_rank_sorted")

    def __init__(self, offsets: List[int], neighbors: List[int], n_left: int) -> None:
        super().__init__(None, offsets, neighbors)
        self.n_left = n_left
        self._rank_sorted: Optional[Tuple[List[int], List[List[int]]]] = None

    @classmethod
    def from_slices(cls, slices: List[List[int]], n_left: int) -> "CSRBipartiteView":
        """Adopt symmetric per-id neighbour lists (left ids first).

        The slices are adopted, and :meth:`rank_sorted` sorts them in place.
        """
        offsets = [0]
        offsets.extend(accumulate(map(len, slices)))
        view = cls(offsets, list(chain.from_iterable(slices)), n_left)
        view._slices = slices
        return view

    def rank_sorted(self) -> Tuple[List[int], List[List[int]]]:
        """Return (and cache) ``(rank, rank_slices)`` for the wedge kernel.

        ``rank`` is the (degree, id) priority rank per id.  As a side effect
        the shared adjacency slices are sorted by ascending rank and
        ``rank_slices[u]`` holds the parallel sorted rank values, so the
        higher-priority portion of any neighbourhood is a contiguous suffix
        locatable by bisection.  Neighbour order is not part of any kernel
        contract, so the in-place sort is safe.
        """
        if self._rank_sorted is None:
            deg = self.degree_list()
            n = len(deg)
            rank = [0] * n
            for r, v in enumerate(sorted(range(n), key=lambda x: (deg[x], x))):
                rank[v] = r
            getter = rank.__getitem__
            slices = self.adjacency_slices()
            for nbr_list in slices:
                nbr_list.sort(key=getter)
            rank_slices = [list(map(getter, nbr_list)) for nbr_list in slices]
            self._rank_sorted = (rank, rank_slices)
        return self._rank_sorted

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRBipartiteView(|L|={self.n_left}, "
            f"|R|={self.num_vertices() - self.n_left}, |E|={self.num_edges()})"
        )


# ----------------------------------------------------------------------
# Butterfly counting kernels (Algorithm 3)
# ----------------------------------------------------------------------
#: The packed kernel runs when the cross edges reach ``|L| · |R|`` over
#: PACKED_DENSITY, the density where it overtakes the wedge kernel (its
#: tables then hold at most 40 bytes per edge with byte fields).
PACKED_DENSITY = 40

#: Per byte value ``c``, the low and high byte of ``C(c, 2)``; translating a
#: row's bytes through them and summing gives ``Σ C(c, 2)`` at C speed.
_CHOOSE2_LOW = bytes(c * (c - 1) // 2 & 0xFF for c in range(256))
_CHOOSE2_HIGH = bytes(c * (c - 1) // 2 >> 8 for c in range(256))
#: Byte values whose low / high byte is 0, deleted before the sum.
_NO_LOW = bytes(range(2))
_NO_HIGH = bytes(range(23))


def butterfly_degrees_between(
    left: Iterable[Vertex], right: Iterable[Vertex], adjacency
) -> Dict[Vertex, int]:
    """Return χ(v) for every id of two disjoint sides (Algorithm 3, Def. 3).

    ``adjacency[v]`` lists ``v``'s neighbours: only the left ids' lists are
    read, and in them only the right ids count, so the lists may hold
    anything else (dead ids, a third label).  The ids are whatever the
    caller keys ``adjacency`` by — a snapshot's ids, or the vertices of a
    :class:`~repro.graph.bipartite.BipartiteView` — and every table here is
    a dict or list over the two sides, so nothing grows with the graph.

    The sides become local ids (left ``0 .. |L| - 1``, right after) and the
    kernel is chosen from the side sizes and the cross-edge count: dense
    inputs go to the packed wedge rows of :func:`_packed_butterfly_degrees`
    (Gustavson's dense-accumulator row product), sparse ones to the
    vertex-priority :func:`csr_butterfly_degrees`.  Both are exact.
    """
    order = list(left)
    n_left = len(order)
    order.extend(right)
    n_right = len(order) - n_left
    position = dict(zip(order[n_left:], range(n_left, len(order)))).get
    slices = [
        [p for p in map(position, adjacency[v]) if p is not None]
        for v in order[:n_left]
    ]
    edges = sum(map(len, slices))
    slices.extend([] for _ in range(n_right))
    for v in range(n_left):
        for p in slices[v]:
            slices[p].append(v)
    if PACKED_DENSITY * edges >= n_left * n_right:
        chi = _packed_butterfly_degrees(slices, n_left)
    else:
        chi = csr_butterfly_degrees(CSRBipartiteView.from_slices(slices, n_left))
    return dict(zip(order, chi))


def _packed_butterfly_degrees(slices: List[List[int]], n_left: int) -> List[int]:
    """Return χ per local id from packed wedge rows.

    ``slices`` is as :meth:`CSRBipartiteView.from_slices` takes it: ids
    ``0 .. n_left - 1`` are the left side, and the lists are symmetric.  A
    vertex's wedge row ``W[v, w]`` (its paths of length 2 to each same-side
    ``w``) is the sum of its middles' packed neighbour sets, and
    ``χ(v) = Σ_w C(W[v, w], 2) - C(deg v, 2)``, since ``W[v, v] = deg v``.
    """
    n = len(slices)
    chi = [0] * n
    _packed_side(slices, range(n_left), range(n_left, n), chi)
    _packed_side(slices, range(n_left, n), range(n_left), chi)
    return chi


def _packed_side(slices: List[List[int]], side: range, middles: range, chi: List[int]) -> None:
    """Fill ``chi`` for the ids of ``side``, whose neighbours are ``middles``.

    Each middle's neighbours on ``side`` become one Python int with a field
    per side id, so a row is the C-level ``sum`` of its middles' ints.  A
    field never exceeds its row's degree: it is one byte while every degree
    on the side is below 256, and 16 or 32 bits beyond.
    """
    base = side.start
    fields = len(side)
    top = max(map(len, map(slices.__getitem__, side)), default=0)
    width = 1 if top < 256 else 2 if top < 65536 else 4
    packed = [0] * len(slices)
    for u in middles:
        row = bytearray(fields * width)
        for p in slices[u]:
            row[(p - base) * width] = 1
        packed[u] = int.from_bytes(row, "little")
    getitem = packed.__getitem__
    for v in side:
        nbrs = slices[v]
        d = len(nbrs)
        if d > 1:
            chi[v] = _sum_choose2(sum(map(getitem, nbrs)), fields, width, d) - d * (d - 1) // 2


def _sum_choose2(row: int, fields: int, width: int, top: int) -> int:
    """``Σ C(c, 2)`` over the ``width``-byte fields ``c <= top`` of ``row``.

    Byte fields go through the two ``C(c, 2)`` byte tables (the high one
    only once a field can reach 23); wider fields are read in place with
    ``memoryview.cast`` in the host byte order, which ``to_bytes`` matches.
    """
    if width == 1:
        data = row.to_bytes(fields, "little")
        total = sum(data.translate(_CHOOSE2_LOW, _NO_LOW))
        if top >= len(_NO_HIGH):
            total += sum(data.translate(_CHOOSE2_HIGH, _NO_HIGH)) << 8
        return total
    counts = memoryview(row.to_bytes(fields * width, sys.byteorder)).cast(
        "H" if width == 2 else "I"
    )
    return (sum(map(mul, counts, counts)) - sum(counts)) // 2


def csr_butterfly_degrees(bip: CSRBipartiteView) -> List[int]:
    """Return χ(v) per id via single-enumeration wedge counting.

    The sparse kernel of :func:`butterfly_degrees_between`, and the
    vertex-priority strategy of Wang et al. [41]: every butterfly is
    enumerated exactly once — from the lower-priority endpoint of its
    same-side pair on the enumeration side — and credited to all four
    members.  Because adjacency is rank-sorted (see
    :meth:`CSRBipartiteView.rank_sorted`), the higher-priority wedge
    endpoints reachable through a middle ``u`` form a contiguous slice
    suffix, so the per-wedge counting runs at C speed through
    ``Counter.update`` and the middle credits collapse to
    ``sum(counts over the suffix) - len(suffix)``.  The enumeration side is
    the one whose middles generate less wedge work.  Output is exact —
    identical to the plain Algorithm 3 counts.
    """
    n = bip.num_vertices()
    chi = [0] * n
    if n == 0:
        return chi
    rank, rank_slices = bip.rank_sorted()
    slices = bip.adjacency_slices()
    deg = bip.degree_list()
    n_left = bip.n_left
    # Wedge work of enumerating from a side == sum of squared middle degrees.
    left_work = sum(deg[u] * deg[u] for u in range(n_left, n))
    right_work = sum(deg[u] * deg[u] for u in range(n_left))
    if left_work <= right_work:
        side = range(n_left)
    else:
        side = range(n_left, n)
    # Enumerate in ascending rank so each middle's accept cut only moves
    # forward: the bisection per wedge group amortizes into O(deg) pointer
    # advances over the whole run.
    order = sorted(side, key=rank.__getitem__)
    ptr = [0] * n
    for v in order:
        sv = slices[v]
        if not sv:
            continue
        rv = rank[v]
        suffixes: List[List[int]] = []
        keep = suffixes.append
        wedge_ends: List[int] = []
        extend = wedge_ends.extend
        for u in sv:
            ranks_u = rank_slices[u]
            p = ptr[u]
            end = len(ranks_u)
            while p < end and ranks_u[p] <= rv:
                p += 1
            ptr[u] = p
            suffix = slices[u][p:]
            keep(suffix)
            if suffix:
                extend(suffix)
        if not wedge_ends:
            continue
        counts = Counter(wedge_ends)
        acc = 0
        for w, c in counts.items():
            if c > 1:
                d = c * (c - 1) // 2
                chi[w] += d
                acc += d
        if acc == 0:
            continue  # every endpoint pair has a single wedge: no butterflies
        chi[v] += acc
        # Each middle u of an endpoint pair (v, w) with c wedges participates
        # in c - 1 of that pair's butterflies:
        # sum over the accepted suffix of (c_w - 1).
        lookup = counts.__getitem__
        for u, suffix in zip(sv, suffixes):
            if suffix:
                chi[u] += sum(map(lookup, suffix)) - len(suffix)
    return chi


def split_by_label(
    slices: Sequence[Sequence[int]], labels: Sequence[int]
) -> Tuple[List[List[int]], List[List[int]]]:
    """Split per-id neighbour lists into same-label and cross-label lists."""
    if not isinstance(labels, list):
        labels = list(labels)
    same: List[List[int]] = []
    cross: List[List[int]] = []
    for v, nbrs in enumerate(slices):
        lv = labels[v]
        same.append([w for w in nbrs if labels[w] == lv])
        cross.append([w for w in nbrs if labels[w] != lv])
    return same, cross


# ----------------------------------------------------------------------
# k-core kernels (Batagelj–Zaversnik [3])
# ----------------------------------------------------------------------
def core_numbers(slices: Sequence[Sequence[int]]) -> List[int]:
    """Return the coreness per id of the graph given as per-id neighbour lists.

    Lazy-bucket formulation of [3]: vertices are bucketed by degree and
    peeled in increasing order; stale bucket entries are skipped on pop and
    removal is encoded as degree ``-1`` so the inner relaxation needs no
    separate membership test.
    """
    n = len(slices)
    if n == 0:
        return []
    cd = list(map(len, slices))
    max_degree = max(cd)
    buckets: List[List[int]] = [[] for _ in range(max_degree + 1)]
    for v in range(n):
        buckets[cd[v]].append(v)
    core = [0] * n
    k = 0
    for d in range(max_degree + 1):
        queue = buckets[d]
        i = 0
        while i < len(queue):
            v = queue[i]
            i += 1
            cv = cd[v]
            if cv > d or cv < 0:
                continue  # re-bucketed at another degree, or already peeled
            if cv > k:
                k = cv
            core[v] = k
            cd[v] = -1
            enqueue = queue.append
            for u in slices[v]:
                cu = cd[u]
                if cu > cv:
                    cu -= 1
                    cd[u] = cu
                    if cu <= d:
                        enqueue(u)
                    else:
                        buckets[cu].append(u)
    return core


def csr_k_core_alive(graph: CSRGraph, k: int) -> bytearray:
    """Return a byte mask of the maximal k-core (1 = survives the peel).

    When the snapshot's coreness cache is warm this is an O(n) filter
    (``coreness >= k``); otherwise a direct flat-array peel runs, which is
    cheaper than a full decomposition for a single k.
    """
    n = graph.num_vertices()
    if k <= 0:
        return bytearray(b"\x01") * n
    if graph._coreness is not None:
        return bytearray(c >= k for c in graph._coreness)
    slices = graph.adjacency_slices()
    deg = list(graph.degree_list())
    threshold = k - 1
    queue = deque(v for v in range(n) if deg[v] < k)
    for v in queue:
        deg[v] = -1
    popleft = queue.popleft
    append = queue.append
    while queue:
        v = popleft()
        for u in slices[v]:
            du = deg[u]
            if du >= 0:
                du -= 1
                deg[u] = du
                if du == threshold:
                    deg[u] = -1
                    append(u)
    return bytearray(d >= 0 for d in deg)


# ----------------------------------------------------------------------
# BFS kernels (Algorithm 5 substrate)
# ----------------------------------------------------------------------
def csr_bfs_distances(
    graph: _FlatAdjacency,
    source: int,
    dead: Optional[Set[int]] = None,
    max_depth: Optional[int] = None,
    alive: Optional[Union[Set[int], int]] = None,
    rows: Optional[List[int]] = None,
) -> List[int]:
    """Return hop distances per id from ``source`` (:data:`UNREACHED` = -1).

    ``dead`` restricts the traversal to the surviving induced subgraph
    (dead ids keep distance -1), and ``alive`` to the subgraph induced by
    its ids; the caller must pass a live ``source``.  Given ``rows``, the
    graph's adjacency bit table (:meth:`CSRGraph.adjacency_bits`), the
    levels grow by :func:`bit_bfs_levels`, and ``alive`` may also be an id
    bitset (:func:`ids_bits`), so searches over one id set convert it
    once.  Without a table, each level's candidate set is built with
    C-speed ``set.update`` / set difference instead of a per-edge Python
    membership test.
    """
    n = graph.num_vertices()
    if n == 0:
        return []
    if rows is not None:
        if alive is None:
            unseen = (1 << n) - 1
        else:
            unseen = alive if isinstance(alive, int) else ids_bits(alive)
        if dead:
            unseen &= ~ids_bits(dead)
        levels = [1 << source]
        bit_bfs_levels(rows, levels, unseen & ~levels[0], max_depth)
        return _level_distances(levels, n)
    dist = [UNREACHED] * n
    slices = graph.adjacency_slices()
    dist[source] = 0
    visited = {source}
    frontier = [source]
    depth = 0
    while frontier:
        if max_depth is not None and depth >= max_depth:
            break
        depth += 1
        reached: Set[int] = set()
        update = reached.update
        for u in frontier:
            update(slices[u])
        reached -= visited
        if dead is not None:
            reached -= dead
        if alive is not None:
            reached &= alive
        if not reached:
            break
        visited |= reached
        for w in reached:
            dist[w] = depth
        frontier = list(reached)
    return dist


def adjacency_bit_rows(slices: Sequence[Sequence[int]]) -> List[int]:
    """Return one int per id with bit ``w`` set for each neighbour ``w``.

    The fill of :meth:`CSRGraph.adjacency_bits`: each row is the C-level OR
    of its neighbours' bits.
    """
    return [ids_bits(nbrs) for nbrs in slices]


def ids_bits(ids: Iterable[int]) -> int:
    """Return the int with bit ``v`` set for each id ``v`` of ``ids``."""
    return reduce(or_, map(lshift, repeat(1), ids), 0)


def bit_ids(bits: int) -> List[int]:
    """Return the ids whose bits are set in ``bits``, ascending.

    A sparse set pops its lowest bit per id; a dense one is read off its
    binary digits in one C-level pass.
    """
    if bits.bit_count() * _DENSE_DECODE < bits.bit_length():
        ids = []
        append = ids.append
        while bits:
            low = bits & -bits
            append(low.bit_length() - 1)
            bits ^= low
        return ids
    digits = bin(bits)[:1:-1].encode().translate(_BINARY_DIGITS)
    return list(compress(range(len(digits)), digits))


def bit_bfs_levels(
    rows: List[int], levels: List[int], unseen: int, max_depth: Optional[int] = None
) -> int:
    """Grow BFS ``levels`` (one bitset per hop) over ``unseen``; return what stays unseen.

    ``rows`` is an adjacency bit table (:func:`adjacency_bit_rows`),
    ``levels`` the non-empty levels reached so far and ``unseen`` the ids
    the search may still reach, none of them in ``levels``.  A level is the
    OR of the previous level's rows, masked by ``unseen``: a frontier's
    edges are OR-ed at C level, and only the frontier's set bits are
    decoded.  No level past ``max_depth`` is grown.  The ids left in the
    returned mask are unreachable within that depth.
    """
    frontier = levels[-1]
    getrow = rows.__getitem__
    depth_limit = len(rows) if max_depth is None else max_depth
    while unseen and len(levels) <= depth_limit:
        reached = reduce(or_, map(getrow, bit_ids(frontier))) & unseen
        if not reached:
            break
        unseen ^= reached
        levels.append(reached)
        frontier = reached
    return unseen


def _level_distances(levels: List[int], n: int) -> List[int]:
    """The per-id distance list of BFS ``levels`` over ``n`` ids.

    The levels are disjoint, so the first :data:`_BYTE_DEPTHS` of them are
    OR-ed as one byte lane per id and read back as signed bytes in a few
    C-level calls; deeper levels are written id by id.
    """
    lanes = 0
    for depth, level in enumerate(levels[:_BYTE_DEPTHS]):
        digits = bin(level)[:1:-1].encode().translate(_DEPTH_LANES[depth])
        lanes |= int.from_bytes(digits, "little")
    depths = lanes.to_bytes(n, "little").translate(_FLIP_BYTES)
    dist = memoryview(depths).cast("b").tolist()
    for depth in range(_BYTE_DEPTHS, len(levels)):
        for v in bit_ids(levels[depth]):
            dist[v] = depth
    return dist

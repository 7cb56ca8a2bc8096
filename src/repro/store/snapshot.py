"""Snapshot writer, mmap reader, and the engine attach path.

:class:`SnapshotWriter` serializes everything a prepared engine computes
from a graph — the CSR adjacency and per-id labels, the graph coreness,
the BCindex's label-group coreness and (optionally) its butterfly-degree
tables — into one image in the format of :mod:`repro.store.format`, which
it writes to a file (:func:`repro.parallel.shm.export_graph` puts the
same image in shared memory).

:class:`Snapshot` maps that file back read-only (or opens an image already
in memory), validates every checksum and bound at open, and hands out
zero-copy integer views of the segments.
:func:`attach_engine` then turns a snapshot into a ready
:class:`~repro.api.BCCEngine` without re-freezing or re-peeling anything:
the mapped arrays are injected as the graph's frozen CSR snapshot
(through the storage-adopting :class:`~repro.graph.csr._FlatAdjacency`
constructor path) and a :class:`StoredBCIndex` replays the persisted
index instead of rebuilding it, so cold start is "attach and validate"
instead of "re-freeze and re-index".
"""

from __future__ import annotations

import mmap
import os
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.config import SearchConfig
from repro.api.engine import BCCEngine
from repro.core.bc_index import BCIndex, PairChi
from repro.exceptions import SnapshotMismatchError, StoreError
from repro.graph.csr import CSRGraph, VertexInterner
from repro.graph.labeled_graph import Label, LabeledGraph, Vertex
from repro.store.format import (
    FORMAT_VERSION,
    ITEMSIZES,
    SegmentInfo,
    aligned,
    array_to_bytes,
    crc32,
    decode_header,
    encode_prefix_and_header,
    graph_fingerprint,
    require_scalar,
    segments_from_header,
    view_segment,
)

#: The core segments every snapshot carries, with their typecodes and the
#: expected element count as a function of (num_vertices, num_edges).
_CORE_SEGMENTS = {
    "offsets": ("q", lambda n, m: n + 1),
    "neighbors": ("i", lambda n, m: 2 * m),
    "labels": ("i", lambda n, m: n),
    "coreness": ("i", lambda n, m: n),
    "group_coreness": ("i", lambda n, m: n),
}

PathLike = Union[str, Path]


class SnapshotWriter:
    """Serialize a graph (and its BCindex) into one snapshot image.

    :meth:`image` yields the bytes and :meth:`write` puts them in a file.

    Parameters
    ----------
    path:
        Destination file of :meth:`write` (an :meth:`image` needs none).
        The write is atomic: bytes go to a sibling ``*.tmp`` file which is
        ``os.replace``-d over ``path`` only once fully written, so a
        crashed writer never leaves a half snapshot where a reader expects
        a whole one.
    butterfly_pairs:
        Which butterfly-degree tables to persist: ``"all"`` (default —
        every distinct label pair, the right call for serving snapshots),
        ``"cached"`` (only the pairs the given index has already computed),
        or ``"none"`` (coreness only; attached engines compute butterfly
        tables lazily exactly as a fresh index would).
    """

    def __init__(
        self, path: Optional[PathLike] = None, butterfly_pairs: str = "all"
    ) -> None:
        if butterfly_pairs not in ("all", "cached", "none"):
            raise StoreError(
                f"butterfly_pairs must be 'all', 'cached' or 'none', "
                f"got {butterfly_pairs!r}"
            )
        self.path = None if path is None else Path(path)
        self.butterfly_pairs = butterfly_pairs

    # ------------------------------------------------------------------
    def image(
        self, graph: LabeledGraph, index: Optional[BCIndex] = None
    ) -> Tuple[bytearray, Dict[str, object]]:
        """The snapshot of ``graph`` as ``(bytes, header)``.

        The graph coreness and the label-group coreness come from the
        frozen snapshot (peeled now if no engine has); ``index`` serves the
        butterfly tables, built first when ``None`` or unbuilt, so
        persisting a prepared engine pays nothing beyond serialization
        (see :func:`persist_engine`).  Raises :class:`StoreError` for a
        vertex or label that JSON would not round-trip.
        """
        csr = graph.freeze()
        interner = csr.interner
        vertices = [require_scalar(v, "vertex") for v in interner.vertices()]
        label_order = [
            require_scalar(interner.label_of(lid), "label")
            for lid in range(interner.num_labels())
        ]
        offs, nbrs = csr.adjacency_lists()
        segments: List[Tuple[str, str, bytes]] = [
            ("offsets", "q", array_to_bytes(array("q", offs))),
            ("neighbors", "i", array_to_bytes(array("i", nbrs))),
            ("labels", "i", array_to_bytes(array("i", csr.labels))),
            ("coreness", "i", array_to_bytes(array("i", csr.coreness()))),
            (
                "group_coreness",
                "i",
                array_to_bytes(array("i", csr.group_coreness())),
            ),
        ]
        pair_entries = self._butterfly_segments(graph, index, interner, segments)

        table: List[SegmentInfo] = []
        cursor = 0
        for name, typecode, blob in segments:
            cursor = aligned(cursor)
            table.append(
                SegmentInfo(
                    name=name,
                    typecode=typecode,
                    count=len(blob) // ITEMSIZES[typecode],
                    offset=cursor,
                    crc=crc32(blob),
                )
            )
            cursor += len(blob)

        header = {
            "format_version": FORMAT_VERSION,
            "graph": graph_fingerprint(graph),
            "vertices": vertices,
            "labels": label_order,
            "segments": [info.to_header() for info in table],
            "butterfly_pairs": pair_entries,
        }
        prefix, data_start = encode_prefix_and_header(header)
        image = bytearray(prefix)
        for info, (_, _, blob) in zip(table, segments):
            image += bytes(data_start + info.offset - len(image))
            image += blob
        return image, header

    def write(
        self, graph: LabeledGraph, index: Optional[BCIndex] = None
    ) -> Dict[str, object]:
        """Write :meth:`image` of ``graph`` to ``path``; returns a summary dict."""
        image, header = self.image(graph, index)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as out:
            out.write(image)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, self.path)
        return {
            "path": str(self.path),
            "bytes": len(image),
            "num_vertices": graph.num_vertices(),
            "num_edges": graph.num_edges(),
            "segments": len(header["segments"]),
            "butterfly_pairs": len(header["butterfly_pairs"]),
        }

    # ------------------------------------------------------------------
    def _butterfly_segments(
        self,
        graph: LabeledGraph,
        index: Optional[BCIndex],
        interner: VertexInterner,
        segments: List[Tuple[str, str, bytes]],
    ) -> List[Dict[str, object]]:
        """Append one ``(ids, chi)`` segment pair per persisted label pair."""
        if self.butterfly_pairs == "none":
            return []
        if index is None:
            index = BCIndex(graph, build=True)
        elif not index.is_built():
            index.build()
        by_str = {str(label): label for label in graph.labels()}
        if self.butterfly_pairs == "all":
            names = sorted(by_str)
            keys = [
                (names[i], names[j])
                for i in range(len(names))
                for j in range(i + 1, len(names))
            ]
        else:  # "cached"
            keys = [key for key in index.cached_label_pairs() if key[0] != key[1]]
        entries: List[Dict[str, object]] = []
        for pair_id, (a, b) in enumerate(keys):
            degrees = index.butterfly_degrees_for(by_str[a], by_str[b])
            rows = sorted((interner.id_of(v), chi) for v, chi in degrees.items())
            ids = array("i", (vid for vid, _ in rows))
            chi = array("q", (value for _, value in rows))
            ids_name = f"bf_ids_{pair_id}"
            chi_name = f"bf_chi_{pair_id}"
            segments.append((ids_name, "i", array_to_bytes(ids)))
            segments.append((chi_name, "q", array_to_bytes(chi)))
            entries.append(
                {
                    "key": [a, b],
                    "ids": ids_name,
                    "chi": chi_name,
                    "max_chi": index.max_butterfly_degree(by_str[a], by_str[b]),
                }
            )
        return entries


class Snapshot:
    """A snapshot image, mapped read-only from a file, fully validated at open.

    Opening checks everything structural — magic, format version, header
    checksum, segment bounds, every segment's CRC-32, and that the core
    segments' element counts agree with the recorded vertex/edge counts —
    raising :class:`StoreError` with the file name and the failing part.
    :meth:`over` runs the same checks on an image already in memory (a
    worker's shared-memory export).  Whether the snapshot describes a
    *particular live graph* is the separate, per-attach question answered
    by :meth:`matches` / :meth:`require_match`.

    Segment accessors return zero-copy ``memoryview`` casts of the image
    (on little-endian hosts; see :mod:`repro.store.format`), so an
    attached engine reads index data straight from the page cache.
    """

    def __init__(self, path: PathLike) -> None:
        try:
            with open(path, "rb") as file:
                mapped = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError) as exc:
            raise StoreError(f"{path}: cannot open snapshot: {exc}")
        self._open(str(path), mapped, mapped.close)

    @classmethod
    def over(cls, buffer: memoryview, name: str) -> "Snapshot":
        """The snapshot image in ``buffer``, checked as a file's is.

        ``name`` stands for the path in messages.  The caller owns
        ``buffer`` and may free it once :meth:`close` has released every
        view of it.
        """
        snapshot = cls.__new__(cls)
        snapshot._open(name, buffer, None)
        return snapshot

    def _open(
        self,
        name: str,
        source: Union[mmap.mmap, memoryview],
        close_source: Optional[Callable[[], None]],
    ) -> None:
        self.path = name
        self._buffer = memoryview(source)
        self._close_source = close_source
        self._views: Dict[str, Sequence[int]] = {}
        self._csr: Optional[CSRGraph] = None
        try:
            self._validate()
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        self.header, self._data_start = decode_header(self._buffer, self.path)
        data_size = len(self._buffer) - self._data_start
        table = segments_from_header(self.header, data_size, self.path)
        self._segments: Dict[str, SegmentInfo] = {info.name: info for info in table}
        for info in table:
            if crc32(self._segment_bytes(info)) != info.crc:
                raise StoreError(
                    f"{self.path}: segment {info.name!r} checksum mismatch "
                    f"(corrupted snapshot)"
                )
        graph_block = self.header.get("graph")
        if not isinstance(graph_block, dict):
            raise StoreError(f"{self.path}: header carries no graph fingerprint")
        self.fingerprint: Dict[str, object] = graph_block
        vertices = self.header.get("vertices")
        labels = self.header.get("labels")
        if not isinstance(vertices, list) or not isinstance(labels, list):
            raise StoreError(f"{self.path}: header carries no vertex/label order")
        self._vertices: List[Vertex] = vertices
        self._label_order: List[Label] = labels
        n = int(graph_block.get("num_vertices", -1))
        m = int(graph_block.get("num_edges", -1))
        if len(vertices) != n:
            raise StoreError(
                f"{self.path}: header lists {len(vertices)} vertices but the "
                f"fingerprint says {n}"
            )
        for name, (typecode, count_of) in _CORE_SEGMENTS.items():
            info = self._segments.get(name)
            if info is None:
                raise StoreError(f"{self.path}: segment {name!r} is missing")
            if info.typecode != typecode or info.count != count_of(n, m):
                raise StoreError(
                    f"{self.path}: segment {name!r} has wrong shape "
                    f"({info.typecode!r} x {info.count}, expected "
                    f"{typecode!r} x {count_of(n, m)})"
                )
        self._pairs: Dict[Tuple[str, str], Dict[str, object]] = {}
        for entry in self.header.get("butterfly_pairs", []):
            try:
                a, b = entry["key"]
                ids_name, chi_name = entry["ids"], entry["chi"]
            except (KeyError, TypeError, ValueError) as exc:
                raise StoreError(f"{self.path}: malformed butterfly pair entry: {exc}")
            for name in (ids_name, chi_name):
                if name not in self._segments:
                    raise StoreError(
                        f"{self.path}: butterfly pair ({a!r}, {b!r}) references "
                        f"missing segment {name!r}"
                    )
            if self._segments[ids_name].count != self._segments[chi_name].count:
                raise StoreError(
                    f"{self.path}: butterfly pair ({a!r}, {b!r}) has "
                    f"mismatched ids/chi segment lengths"
                )
            self._pairs[(str(a), str(b))] = entry

    def _segment_bytes(self, info: SegmentInfo) -> memoryview:
        start = self._data_start + info.offset
        return self._buffer[start : start + info.nbytes]

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def segment(self, name: str) -> Sequence[int]:
        """An int-typed (zero-copy where possible) view of segment ``name``."""
        view = self._views.get(name)
        if view is None:
            info = self._segments.get(name)
            if info is None:
                raise StoreError(f"{self.path}: no segment named {name!r}")
            view = view_segment(self._segment_bytes(info), info.typecode)
            self._views[name] = view
        return view

    def segment_table(self) -> List[SegmentInfo]:
        """The segment table in file order (for inspect tooling)."""
        return sorted(self._segments.values(), key=lambda info: info.offset)

    def vertices(self) -> List[Vertex]:
        """The stored vertex order (id ``i`` is ``vertices()[i]``)."""
        return self._vertices

    def labels(self) -> List[Label]:
        """The stored label order (label id ``i`` is ``labels()[i]``)."""
        return self._label_order

    def butterfly_pairs(self) -> List[Tuple[str, str]]:
        """The persisted butterfly label pairs (sorted ``_pair_key`` form)."""
        return sorted(self._pairs)

    def butterfly_table(
        self, key: Tuple[str, str]
    ) -> Optional[Tuple[Sequence[int], Sequence[int], int]]:
        """``(ids, chi, max_chi)`` for a persisted pair, or ``None``."""
        entry = self._pairs.get(key)
        if entry is None:
            return None
        return (
            self.segment(str(entry["ids"])),
            self.segment(str(entry["chi"])),
            int(entry["max_chi"]),  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # graph matching
    # ------------------------------------------------------------------
    def mismatch_reason(self, graph: LabeledGraph) -> Optional[str]:
        """Why ``graph`` may not attach to this snapshot (``None`` = it may).

        Compares the stored fingerprint field by field against the live
        graph's, then the stored vertex order against the live iteration
        order — the strongest cheap check available, since id assignment is
        exactly iteration order.
        """
        live = graph_fingerprint(graph)
        for field in sorted(live):
            if self.fingerprint.get(field) != live[field]:
                return (
                    f"{field} differs (snapshot {self.fingerprint.get(field)!r}, "
                    f"live graph {live[field]!r})"
                )
        if self._vertices != list(graph._adj):  # friend access, as in freeze
            return "vertex order differs"
        return None

    def matches(self, graph: LabeledGraph) -> bool:
        """``True`` when ``graph`` is the graph this snapshot was written from."""
        return self.mismatch_reason(graph) is None

    def require_match(self, graph: LabeledGraph) -> None:
        """Raise :class:`SnapshotMismatchError` unless :meth:`matches`."""
        reason = self.mismatch_reason(graph)
        if reason is not None:
            raise SnapshotMismatchError(
                f"{self.path}: snapshot does not describe this graph: {reason}"
            )

    # ------------------------------------------------------------------
    # attach products
    # ------------------------------------------------------------------
    def as_csr_graph(self) -> CSRGraph:
        """The stored CSR snapshot, backed by the mapped file (cached).

        The interner is rebuilt from the stored vertex/label orders (cheap:
        identity detection skips the dict for dense-int graphs) and the
        offset/neighbour/label arrays are *adopted* — not copied — through
        the storage-injection constructor path.  The graph coreness is
        materialized eagerly (one C-speed ``list()``), so the first k-core
        query runs an O(n) filter instead of a peel.
        """
        if self._csr is None:
            self._csr = CSRGraph.attach(
                self._vertices,
                self._label_order,
                self.segment("offsets"),
                self.segment("neighbors"),
                self.segment("labels"),
                coreness=self.segment("coreness"),
                group_coreness=self.segment("group_coreness"),
            )
        return self._csr

    def install(self, graph: LabeledGraph) -> None:
        """Make :meth:`as_csr_graph` ``graph``'s current frozen snapshot.

        Friend access, mirroring :meth:`LabeledGraph.freeze`'s own cache
        fill, so ``graph.freeze()`` returns the stored CSR until ``graph``
        mutates.  The caller vouches that the snapshot describes ``graph``
        (:meth:`require_match`, or ``graph`` thawed from it).
        """
        graph._frozen = self.as_csr_graph()
        graph._frozen_version = graph.version()

    def describe(self) -> Dict[str, object]:
        """A JSON-friendly summary (CLI ``inspect`` / gateway payloads)."""
        return {
            "path": self.path,
            "format_version": self.header.get("format_version"),
            "bytes": len(self._buffer),
            "graph": dict(self.fingerprint),
            "labels": [str(label) for label in self._label_order],
            "butterfly_pairs": [list(key) for key in self.butterfly_pairs()],
            "segments": [
                {
                    "name": info.name,
                    "typecode": info.typecode,
                    "count": info.count,
                    "bytes": info.nbytes,
                    "crc32": info.crc,
                }
                for info in self.segment_table()
            ],
        }

    def close(self) -> None:
        """Release every view of the image, then the mapping.

        Only safe once no attached engine reads the snapshot: its CSR's
        arrays are among the views released.
        """
        for view in self._views.values():
            if isinstance(view, memoryview):  # big-endian hosts hold copies
                view.release()
        self._views.clear()
        self._csr = None
        self._buffer.release()
        if self._close_source is not None:
            self._close_source()

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n = self.fingerprint.get("num_vertices")
        m = self.fingerprint.get("num_edges")
        return f"Snapshot({self.path!r}, |V|={n}, |E|={m})"


class StoredBCIndex(BCIndex):
    """A :class:`BCIndex` that replays a snapshot.

    The graph's frozen snapshot is the mapped CSR (:func:`attach_engine`
    installs it), so ``build()`` reads the label-group coreness from the
    ``group_coreness`` segment instead of running one core decomposition
    per label, and a label pair's χ entry is filled from the persisted
    tables when present — falling back to the normal lazy computation for
    pairs the snapshot does not carry, so a ``butterfly_pairs="none"``
    snapshot still serves every method correctly.
    """

    def __init__(self, graph: LabeledGraph, snapshot: Snapshot) -> None:
        super().__init__(graph, build=False)
        self._snapshot = snapshot

    def _count_pair(self, left_label: Label, right_label: Label) -> PairChi:
        table = self._snapshot.butterfly_table(self._pair_key(left_label, right_label))
        if table is None:
            return super()._count_pair(left_label, right_label)
        ids, chi, max_chi = table
        csr = self._snapshot.as_csr_graph()
        return PairChi.laid_out(dict(zip(map(csr.vertex_of, ids), chi)), max_chi, csr)


def attach_engine(
    graph: LabeledGraph,
    snapshot: Snapshot,
    config: Optional[SearchConfig] = None,
    **engine_kwargs,
) -> BCCEngine:
    """A prepared :class:`BCCEngine` serving ``graph`` from ``snapshot``.

    Validates the match (raising :class:`SnapshotMismatchError` on any
    disagreement), installs the mapped CSR arrays as the graph's frozen
    snapshot — so ``prepare()`` freezes nothing — and wires in a
    :class:`StoredBCIndex` so ``ensure_index()`` replays the persisted
    coreness instead of re-peeling.  ``engine_kwargs`` pass through to
    :class:`BCCEngine` (result cache size/policy, fault plan).
    """
    snapshot.require_match(graph)
    snapshot.install(graph)
    engine = BCCEngine(
        graph, config, index=StoredBCIndex(graph, snapshot), **engine_kwargs
    )
    return engine.prepare()


def persist_engine(
    engine: BCCEngine, path: PathLike, *, butterfly_pairs: str = "all"
) -> Dict[str, object]:
    """Write a snapshot of a (prepared) engine's graph + index to ``path``.

    Reuses the engine's own BCindex and label-group cache, so persisting a
    warm engine pays only serialization; on a cold engine this triggers the
    one prepare + index build the snapshot then saves everyone else.
    """
    engine.prepare()
    index = engine.ensure_index()
    writer = SnapshotWriter(path, butterfly_pairs=butterfly_pairs)
    return writer.write(engine.graph, index)

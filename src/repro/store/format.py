"""The snapshot format: header codec, segments, checksums.

A snapshot is one image holding everything a prepared engine computes from
a graph — the CSR adjacency, per-id labels, graph coreness, the BCindex's
label-group coreness and its butterfly-degree tables — as raw little-endian
integer arrays behind a JSON header, laid out so the arrays can be attached
zero-copy through ``memoryview.cast``.  The image is a ``.bccsnap`` file
mapped with ``mmap``, or the same bytes in the shared-memory block a
process-backend export hands its workers (:mod:`repro.parallel.shm`):

====================  ====================================================
bytes                 contents
====================  ====================================================
``0 .. 8``            magic ``b"BCCSNAP1"``
``8 .. 16``           header length (uint64, little-endian)
``16 .. 20``          CRC-32 of the header JSON (uint32, little-endian)
``20 .. 24``          zero padding
``24 ..``             header JSON (UTF-8), then zero padding to 16 bytes
then, per segment     raw little-endian array bytes, 16-byte aligned
====================  ====================================================

The header is self-describing JSON: the format version, the graph
fingerprint used to decide whether a live graph may attach, the interner's
vertex and label orders (vertices must be JSON scalars — ``str`` or
non-bool ``int`` — so ids round-trip exactly), and a segment table naming
each array's typecode, element count, byte offset and CRC-32.  Every
structural defect — wrong magic, version skew, truncation, a checksum
mismatch — raises :class:`repro.exceptions.StoreError` with a message
naming the file and the failing part; a valid snapshot of a *different*
graph is a :class:`repro.exceptions.SnapshotMismatchError` at attach time.

Integers are stored little-endian (``typecode`` ``"q"`` = int64, ``"i"`` =
int32).  On little-endian hosts — every platform this library targets —
reads are zero-copy casts of the mapped image; on a big-endian host the
helpers fall back to a byteswapping copy, so snapshots stay portable at the
cost of the zero-copy property.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.exceptions import StoreError
from repro.graph.labeled_graph import LabeledGraph

#: First 8 bytes of every snapshot file.
MAGIC = b"BCCSNAP1"

#: Bump on any incompatible layout change; readers reject other versions.
FORMAT_VERSION = 1

#: File prefix: magic, header length, header CRC-32, 4 bytes padding.
_PREFIX = struct.Struct("<8sQI4x")

#: Segment (and header) payloads start on this alignment, so int64 casts
#: of the mapped file are always aligned.
ALIGNMENT = 16

#: Typecode -> element size of the integer array types the format uses.
ITEMSIZES = {"q": 8, "i": 4}

_LITTLE_ENDIAN = sys.byteorder == "little"


def crc32(data: bytes) -> int:
    """The unsigned CRC-32 the format stamps on headers and segments."""
    return zlib.crc32(data) & 0xFFFFFFFF


def aligned(offset: int) -> int:
    """``offset`` rounded up to the segment alignment."""
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def array_to_bytes(values: array) -> bytes:
    """The little-endian byte image of an integer array (any host order)."""
    if _LITTLE_ENDIAN:
        return values.tobytes()
    swapped = array(values.typecode, values)
    swapped.byteswap()
    return swapped.tobytes()


def view_segment(buffer: memoryview, typecode: str) -> Sequence[int]:
    """An int-typed view of little-endian segment bytes.

    Zero-copy ``memoryview.cast`` on little-endian hosts; a byteswapping
    ``array`` copy on big-endian ones (correctness over zero-copy there).
    """
    if typecode not in ITEMSIZES:
        raise StoreError(f"unknown segment typecode {typecode!r}")
    if _LITTLE_ENDIAN:
        return buffer.cast(typecode)
    copied = array(typecode)
    copied.frombytes(bytes(buffer))
    copied.byteswap()
    return copied


def require_scalar(value: object, what: str) -> object:
    """Validate that ``value`` survives a JSON round-trip identically.

    The header stores the interner's vertex and label orders as JSON, so
    only scalars whose identity JSON preserves are allowed: ``str`` and
    non-bool ``int`` (labels may additionally be ``None``).  Anything else
    — tuples, floats, custom objects — raises :class:`StoreError` at write
    time instead of attaching a silently different graph later.  It is
    also the rule for which graphs the process backend can export.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if value is None and what == "label":
        return value
    raise StoreError(
        f"snapshot {what}s must be JSON scalars (str or int), "
        f"got {type(value).__name__}: {value!r}"
    )


@dataclass(frozen=True)
class SegmentInfo:
    """One row of the header's segment table."""

    name: str
    typecode: str
    count: int
    offset: int
    crc: int

    @property
    def nbytes(self) -> int:
        return self.count * ITEMSIZES[self.typecode]

    def to_header(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "typecode": self.typecode,
            "count": self.count,
            "offset": self.offset,
            "crc32": self.crc,
        }

    @classmethod
    def from_header(cls, entry: Dict[str, object], path: str) -> "SegmentInfo":
        try:
            info = cls(
                name=str(entry["name"]),
                typecode=str(entry["typecode"]),
                count=int(entry["count"]),  # type: ignore[arg-type]
                offset=int(entry["offset"]),  # type: ignore[arg-type]
                crc=int(entry["crc32"]),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"{path}: malformed segment table entry: {exc}")
        if info.typecode not in ITEMSIZES:
            raise StoreError(
                f"{path}: segment {info.name!r} has unknown typecode "
                f"{info.typecode!r}"
            )
        if info.count < 0 or info.offset < 0:
            raise StoreError(f"{path}: segment {info.name!r} has negative geometry")
        return info


def graph_fingerprint(graph: LabeledGraph) -> Dict[str, object]:
    """The quick content fingerprint a snapshot stores about its graph.

    Cheap enough to recompute at every attach (one C-speed pass over the
    adjacency), strong enough to catch anything short of an adversarial
    collision: vertex/edge counts, the mutation version, a CRC of the
    degree sequence *in iteration order* (which also pins the freeze's id
    assignment) and a CRC of the label histogram.  The attach check
    additionally compares the stored vertex order to the live graph's —
    see :meth:`repro.store.Snapshot.matches`.
    """
    adj = graph._adj  # friend access, as in CSRGraph.freeze
    degrees = array("q", map(len, adj.values()))
    histogram = sorted(
        (str(label), count) for label, count in graph.label_counts().items()
    )
    return {
        "num_vertices": graph.num_vertices(),
        "num_edges": graph.num_edges(),
        "graph_version": graph.version(),
        "degree_crc": crc32(array_to_bytes(degrees)),
        "label_histogram_crc": crc32(
            json.dumps(histogram, sort_keys=True).encode("utf-8")
        ),
    }


def encode_prefix_and_header(header: Dict[str, object]) -> Tuple[bytes, int]:
    """Serialize the file prefix + padded header; returns (bytes, data_start).

    ``data_start`` is the aligned offset where the first segment's bytes
    begin — segment offsets in the header are relative to the file start,
    so the writer computes them against this value.
    """
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix = _PREFIX.pack(MAGIC, len(blob), crc32(blob))
    data_start = aligned(_PREFIX.size + len(blob))
    padding = b"\x00" * (data_start - _PREFIX.size - len(blob))
    return prefix + blob + padding, data_start


def decode_header(buffer: memoryview, path: str) -> Tuple[Dict[str, object], int]:
    """Parse and validate the prefix + header; returns (header, data_start).

    Raises :class:`StoreError` for every structural defect: short file,
    wrong magic, format-version skew, header CRC mismatch, or a header
    that is not a JSON object.
    """
    if len(buffer) < _PREFIX.size:
        raise StoreError(
            f"{path}: truncated snapshot ({len(buffer)} bytes; "
            f"the header prefix alone needs {_PREFIX.size})"
        )
    magic, header_len, header_crc = _PREFIX.unpack_from(buffer, 0)
    if magic != MAGIC:
        raise StoreError(
            f"{path}: not a snapshot file (magic {magic!r} != {MAGIC!r})"
        )
    end = _PREFIX.size + header_len
    if end > len(buffer):
        raise StoreError(
            f"{path}: truncated snapshot header "
            f"(declares {header_len} bytes, file has {len(buffer) - _PREFIX.size})"
        )
    blob = bytes(buffer[_PREFIX.size : end])
    if crc32(blob) != header_crc:
        raise StoreError(f"{path}: header checksum mismatch (corrupted header)")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreError(f"{path}: header is not valid JSON: {exc}")
    if not isinstance(header, dict):
        raise StoreError(f"{path}: header must be a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise StoreError(
            f"{path}: snapshot format version {version!r} is not supported "
            f"(this build reads version {FORMAT_VERSION}); rebuild the "
            f"snapshot with `python -m repro.store build`"
        )
    return header, aligned(end)


def segments_from_header(
    header: Dict[str, object], data_size: int, path: str
) -> List[SegmentInfo]:
    """The validated segment table, bounds-checked against the data area.

    Segment offsets are relative to the start of the data area (the aligned
    byte right after the header), so the header can be serialized without a
    fixpoint over its own length; ``data_size`` is the number of bytes the
    file actually has after that point.
    """
    raw = header.get("segments")
    if not isinstance(raw, list):
        raise StoreError(f"{path}: header carries no segment table")
    segments = [SegmentInfo.from_header(entry, path) for entry in raw]
    for segment in segments:
        if segment.offset + segment.nbytes > data_size:
            raise StoreError(
                f"{path}: truncated snapshot — segment {segment.name!r} "
                f"needs data bytes up to {segment.offset + segment.nbytes} "
                f"but the file has only {data_size} after the header"
            )
    return segments

"""Zero-copy graph transport for the multi-process compute backend.

A frozen graph's CSR snapshot is flat little-endian integer arrays
(offsets, neighbours, per-id labels, and the graph and label-group coreness
when already computed) plus two small object sequences (vertex order, label
order).  This module moves exactly
that across the process boundary without copying the arrays per worker:

* :func:`export_graph` writes each array once into a
  :class:`multiprocessing.shared_memory.SharedMemory` block and returns a
  :class:`SharedGraphExport` — the owner of the blocks — plus a
  :class:`GraphHandle`, a small JSON-safe description every worker can
  receive over a pipe.
* :func:`attach_graph` (worker side) maps the named blocks back in,
  casts ``memoryview`` s over them, and rebuilds a served
  :class:`~repro.graph.labeled_graph.LabeledGraph` whose frozen CSR
  snapshot *is* the mapped storage, via :meth:`CSRGraph.attach`.
  N workers therefore share one physical copy of the adjacency.

Availability is probed, not assumed: :func:`shared_memory_available`
actually creates (and unlinks) a tiny segment, so a restricted
``/dev/shm`` or a missing platform facility reports ``False`` and the
engine layer falls back to threads instead of crashing mid-batch
(:data:`~repro.exceptions.REASON_WORKER_CRASHED` is for dying workers,
not for machines that never could run them).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import LabeledGraph

try:  # pragma: no cover - import probe, exercised via shared_memory_available
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - platform without _multiprocessing
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]

#: Segment name -> array typecode, mirroring the ``.bccsnap`` layout
#: (offsets are 64-bit so ``2|E|`` cannot overflow; ids and label ids fit
#: 32 bits by construction).
SEGMENT_TYPECODES = {
    "offsets": "q",
    "neighbors": "i",
    "labels": "i",
    "coreness": "i",
    "group_coreness": "i",
}


class ProcessBackendUnavailable(ReproError):
    """This host (or this graph) cannot use the process backend.

    Raised by :func:`export_graph` when shared memory cannot be created
    (restricted ``/dev/shm``, missing platform support) or when the
    graph's vertices/labels do not survive the JSON wire codec the pool
    marshals tasks through.  The engine layer catches it and falls back
    to the threaded batch path with a one-time warning and a counter —
    a ``backend="process"`` batch must degrade, never raise.
    """


def _probe_shared_memory() -> bool:
    """Actually create-and-unlink one tiny segment (the honest probe)."""
    if shared_memory is None:
        return False
    try:
        block = shared_memory.SharedMemory(create=True, size=8)
    except (OSError, ValueError):
        return False
    try:
        block.close()
        block.unlink()
    except OSError:  # pragma: no cover - unlink raced by a reaper
        pass
    return True


_AVAILABLE: Optional[bool] = None


def shared_memory_available() -> bool:
    """Whether this host can create shared-memory segments (cached probe)."""
    global _AVAILABLE
    if _AVAILABLE is None:
        _AVAILABLE = _probe_shared_memory()
    return _AVAILABLE


def _attach_block(name: str):
    """Attach an existing segment without adopting its lifetime.

    The parent owns every block and unlinks them in
    :meth:`SharedGraphExport.close`; a worker that also registered the
    segment with the (shared) ``resource_tracker`` would fight the
    parent over cleanup.  Python 3.13 grew ``track=False`` for exactly
    this; on older versions the attach-side registration is suppressed
    (sending an *unregister* instead would strip the parent's own
    registration — spawn children share the parent's tracker process).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


def _wire_scalar(value) -> bool:
    """Whether ``value`` survives the JSON wire codec bit-for-bit."""
    if isinstance(value, bool) or value is None:
        return False
    return isinstance(value, (int, str))


@dataclass(frozen=True)
class GraphHandle:
    """A JSON-safe description a worker needs to rebuild the served graph.

    ``segments`` names the shared-memory blocks.  ``sharded`` asks the
    worker to build a :class:`ShardedBCCEngine` over the thawed graph
    (partitioning is deterministic in iteration order, so parent and
    worker agree on shard ids).  ``config`` is the engine base config
    as a wire-codec payload.
    """

    segments: Dict[str, Tuple[str, str, int]]  # name -> (shm name, typecode, count)
    vertices: Optional[List[object]]  # None: identity (vertex i == id i)
    num_vertices: int
    labels: List[object]
    config: Optional[Dict[str, object]]
    sharded: bool = False
    result_cache_size: int = 0

    def to_payload(self) -> Dict[str, object]:
        """The JSON document shipped to workers through the wire codec."""
        return {
            "segments": {
                name: list(ref) for name, ref in self.segments.items()
            },
            "vertices": self.vertices,
            "num_vertices": self.num_vertices,
            "labels": self.labels,
            "config": self.config,
            "sharded": self.sharded,
            "result_cache_size": self.result_cache_size,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "GraphHandle":
        return cls(
            segments={
                name: tuple(ref) for name, ref in payload["segments"].items()
            },
            vertices=payload["vertices"],
            num_vertices=payload["num_vertices"],
            labels=list(payload["labels"]),
            config=payload["config"],
            sharded=bool(payload.get("sharded", False)),
            result_cache_size=int(payload.get("result_cache_size", 0)),
        )


def _unlink_blocks(blocks: List[object]) -> None:
    """Close and unlink every block (a worker's existing map stays valid)."""
    for block in blocks:
        try:
            block.close()
            block.unlink()
        except OSError:  # pragma: no cover - already reaped
            pass
    blocks.clear()


@dataclass
class SharedGraphExport:
    """Owner of the shared-memory blocks behind one exported graph.

    Created by :func:`export_graph` in the parent; :meth:`close` unlinks
    every block (idempotent).  The pool closes its export when it shuts
    down; a :class:`~repro.server.replicas.ReplicaSet` with process
    members shares one export across all member pools and closes it once.
    An export nobody closed — its engine replaced and dropped — unlinks
    its blocks when it is collected, or at interpreter exit.
    """

    handle: GraphHandle
    blocks: List[object] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._unlink = weakref.finalize(self, _unlink_blocks, self.blocks)

    def close(self) -> None:
        self._unlink()


def _export_segment(values: Sequence[int], typecode: str):
    """Copy one flat integer sequence into a fresh shared-memory block."""
    if isinstance(values, array) and values.typecode == typecode:
        data = values
    else:
        data = array(typecode, values)
    raw = data.tobytes()
    block = shared_memory.SharedMemory(create=True, size=max(1, len(raw)))
    block.buf[: len(raw)] = raw
    return block, len(data)


def export_graph(
    graph: LabeledGraph,
    config_payload: Optional[Dict[str, object]] = None,
    *,
    sharded: bool = False,
    result_cache_size: int = 0,
) -> SharedGraphExport:
    """Export ``graph``'s frozen CSR snapshot for worker processes.

    Freezes the graph if needed (the caller's engine counts that freeze by
    preparing first), then writes each CSR segment into shared memory
    once.  Raises :class:`ProcessBackendUnavailable` when the host cannot
    create shared memory or the graph's vertex / label objects would not
    survive the JSON wire codec.
    """
    csr = graph.freeze()
    order = csr.interner.vertices()
    label_order = [csr.interner.label_of(i) for i in range(csr.interner.num_labels())]
    for value in label_order:
        if not _wire_scalar(value):
            raise ProcessBackendUnavailable(
                f"label {value!r} does not survive the JSON wire codec; "
                "the process backend needs int/str labels"
            )
    identity = all(
        isinstance(v, int) and not isinstance(v, bool) and v == i
        for i, v in enumerate(order)
    )
    vertices: Optional[List[object]] = None
    if not identity:
        for value in order:
            if not _wire_scalar(value):
                raise ProcessBackendUnavailable(
                    f"vertex {value!r} does not survive the JSON wire codec; "
                    "the process backend needs int/str vertices"
                )
        vertices = list(order)
    if not shared_memory_available():
        raise ProcessBackendUnavailable(
            "multiprocessing.shared_memory is unavailable on this host "
            "(restricted /dev/shm or missing platform support)"
        )
    blocks: List[object] = []
    segments: Dict[str, Tuple[str, str, int]] = {}
    payload: Dict[str, Sequence[int]] = {
        "offsets": csr.offsets,
        "neighbors": csr.neighbors,
        "labels": csr.labels,
    }
    # Ship warm peels; workers skip theirs.
    if csr._coreness is not None:
        payload["coreness"] = csr._coreness
    if csr._group_coreness is not None:
        payload["group_coreness"] = csr._group_coreness
    try:
        for name, values in payload.items():
            typecode = SEGMENT_TYPECODES[name]
            block, count = _export_segment(values, typecode)
            blocks.append(block)
            segments[name] = (block.name, typecode, count)
    except (OSError, ValueError) as exc:
        _unlink_blocks(blocks)
        raise ProcessBackendUnavailable(
            f"could not write CSR segments into shared memory: {exc}"
        ) from exc
    handle = GraphHandle(
        segments=segments,
        vertices=vertices,
        num_vertices=len(order),
        labels=label_order,
        config=config_payload,
        sharded=sharded,
        result_cache_size=result_cache_size,
    )
    return SharedGraphExport(handle=handle, blocks=blocks)


@dataclass
class WorkerAttachment:
    """A worker's view of the exported graph: served graph + mapped refs.

    ``keepalive`` pins the shared-memory blocks and ``views`` the cast
    memoryviews over them, for as long as the CSR storage may be read.
    :meth:`release` drops the views *before* the blocks — a
    ``SharedMemory`` cannot close its mapping while cast views still
    export pointers into it — and never unlinks: the parent owns segment
    lifetime.
    """

    graph: LabeledGraph
    csr: CSRGraph
    keepalive: List[object] = field(default_factory=list)
    views: List[memoryview] = field(default_factory=list)

    def release(self) -> None:
        """Release views then close maps (worker shutdown path)."""
        for view in self.views:
            try:
                view.release()
            except BufferError:  # pragma: no cover - still exported elsewhere
                pass
        self.views = []
        for ref in self.keepalive:
            close = getattr(ref, "close", None)
            if close is not None:
                try:
                    close()
                except (OSError, BufferError):  # pragma: no cover
                    pass
        self.keepalive = []


def attach_graph(handle: GraphHandle) -> WorkerAttachment:
    """Rebuild the served graph inside a worker process (zero-copy).

    The mapped segments become the frozen CSR storage through
    :meth:`CSRGraph.attach`; the object graph is thawed from it — thaw
    adds vertices in id order, so worker-side iteration order (and hence
    shard partitioning and sweep tie-breaks) is identical to the
    parent's — and the CSR is installed as its current frozen snapshot so
    ``prepare()`` freezes nothing.
    """
    order: Sequence[object] = (
        range(handle.num_vertices) if handle.vertices is None else handle.vertices
    )
    keepalive: List[object] = []
    views: Dict[str, memoryview] = {}
    for name, (shm_name, typecode, count) in handle.segments.items():
        block = _attach_block(shm_name)
        keepalive.append(block)
        itemsize = array(typecode).itemsize
        views[name] = memoryview(block.buf)[: count * itemsize].cast(typecode)
    csr = CSRGraph.attach(
        list(order),
        handle.labels,
        views["offsets"],
        views["neighbors"],
        views["labels"],
        coreness=views.get("coreness"),
        group_coreness=views.get("group_coreness"),
    )
    graph = csr.thaw()
    # Friend access, mirroring LabeledGraph.freeze's own cache fill (and
    # Snapshot.attach_engine): the mapped CSR is the frozen snapshot.
    graph._frozen = csr
    graph._frozen_version = graph.version()
    return WorkerAttachment(
        graph=graph,
        csr=csr,
        keepalive=keepalive,
        views=list(views.values()),
    )

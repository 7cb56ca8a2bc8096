"""Zero-copy graph transport for the multi-process compute backend.

An export is one ``.bccsnap`` image (:mod:`repro.store.format`), the
bytes :class:`~repro.store.SnapshotWriter` writes to a file, held in one
:class:`multiprocessing.shared_memory.SharedMemory` block:

* :func:`export_graph` writes the graph's image into a fresh block and
  returns a :class:`SharedGraphExport` — the owner of the block — whose
  :class:`GraphHandle` is a small JSON-safe description every worker can
  receive over a pipe.  The image carries no butterfly tables: each
  worker fills its own χ, as a fresh engine does.
* :func:`attach_graph` (worker side) maps the block and opens it through
  :class:`~repro.store.Snapshot` — the magic, version, checksum and shape
  checks a file attach runs — then serves a
  :class:`~repro.graph.labeled_graph.LabeledGraph` thawed from
  :meth:`~repro.store.Snapshot.as_csr_graph`, whose frozen CSR snapshot
  *is* the mapped storage.  N workers therefore share one physical copy
  of the adjacency.

What may be exported is the store's rule
(:func:`repro.store.format.require_scalar`): a vertex or label that a
snapshot header cannot hold makes the graph unexportable.

Availability is probed, not assumed: :func:`shared_memory_available`
actually creates (and unlinks) a tiny segment, so a restricted
``/dev/shm`` or a missing platform facility reports ``False`` and the
engine layer falls back to threads instead of crashing mid-batch
(:data:`~repro.exceptions.REASON_WORKER_CRASHED` is for dying workers,
not for machines that never could run them).
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass
from typing import Dict, Optional

from repro.exceptions import ReproError, StoreError
from repro.graph.labeled_graph import LabeledGraph
from repro.store.snapshot import Snapshot, SnapshotWriter

try:  # pragma: no cover - import probe, exercised via shared_memory_available
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - platform without _multiprocessing
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]


class ProcessBackendUnavailable(ReproError):
    """This host (or this graph) cannot use the process backend.

    Raised by :func:`export_graph` when shared memory cannot be created
    (restricted ``/dev/shm``, missing platform support) or when the
    snapshot writer refuses the graph's vertices or labels.  The engine
    layer catches it and falls back to the threaded batch path with a
    one-time warning and a counter — a ``backend="process"`` batch must
    degrade, never raise.
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

    The parent owns the block and unlinks it in
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


@dataclass(frozen=True)
class GraphHandle:
    """A JSON-safe description a worker needs to serve the exported graph.

    ``name`` and ``size`` locate the snapshot image in shared memory.
    ``sharded`` asks the worker to build a :class:`ShardedBCCEngine` over
    the thawed graph (partitioning is deterministic in iteration order,
    so parent and worker agree on shard ids).  ``config`` is the engine
    base config as a wire-codec payload.
    """

    name: str
    size: int
    config: Optional[Dict[str, object]]
    sharded: bool = False
    result_cache_size: int = 0

    def to_payload(self) -> Dict[str, object]:
        """The JSON document shipped to workers through the wire codec."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "GraphHandle":
        return cls(**payload)


def _unlink_block(block) -> None:
    """Close and unlink the block (a worker's existing map stays valid)."""
    try:
        block.close()
        block.unlink()
    except OSError:  # pragma: no cover - already reaped
        pass


@dataclass
class SharedGraphExport:
    """Owner of the shared-memory block behind one exported graph.

    Created by :func:`export_graph` in the parent; :meth:`close` unlinks
    the block (idempotent).  Each :class:`~repro.parallel.ProcessWorkerPool`
    owns one export and closes it when it shuts down, so a process replica
    set of N members holds N blocks (~10 B per edge each).  An export
    nobody closed — its engine replaced and dropped — unlinks its block
    when it is collected, or at interpreter exit.
    """

    handle: GraphHandle
    block: object

    def __post_init__(self) -> None:
        self._unlink = weakref.finalize(self, _unlink_block, self.block)

    def close(self) -> None:
        self._unlink()


def export_graph(
    graph: LabeledGraph,
    config_payload: Optional[Dict[str, object]] = None,
    *,
    sharded: bool = False,
    result_cache_size: int = 0,
) -> SharedGraphExport:
    """Export ``graph``'s snapshot image for worker processes.

    Freezes the graph and peels its coreness if no engine has (the
    caller's engine counts its freeze by preparing first), then writes the
    image into one shared-memory block.  Raises
    :class:`ProcessBackendUnavailable` when the host cannot create shared
    memory or the writer raises :class:`StoreError` (a vertex or label
    that is not a JSON scalar).
    """
    if not shared_memory_available():
        raise ProcessBackendUnavailable(
            "multiprocessing.shared_memory is unavailable on this host "
            "(restricted /dev/shm or missing platform support)"
        )
    try:
        image, _ = SnapshotWriter(butterfly_pairs="none").image(graph)
    except StoreError as exc:
        raise ProcessBackendUnavailable(f"graph cannot be exported: {exc}") from exc
    try:
        block = shared_memory.SharedMemory(create=True, size=len(image))
    except (OSError, ValueError) as exc:
        raise ProcessBackendUnavailable(
            f"could not write the snapshot into shared memory: {exc}"
        ) from exc
    block.buf[: len(image)] = image
    handle = GraphHandle(
        name=block.name,
        size=len(image),
        config=config_payload,
        sharded=sharded,
        result_cache_size=result_cache_size,
    )
    return SharedGraphExport(handle=handle, block=block)


@dataclass
class WorkerAttachment:
    """A worker's view of the export: the served graph and its snapshot.

    :meth:`release` releases the snapshot's views *before* unmapping the
    block — a ``SharedMemory`` cannot close its mapping while views still
    export pointers into it — and never unlinks: the parent owns the
    block.
    """

    graph: LabeledGraph
    snapshot: Snapshot
    block: object

    def release(self) -> None:
        """Release the views, then unmap the block (worker shutdown path)."""
        self.snapshot.close()
        self.block.close()


def attach_graph(handle: GraphHandle) -> WorkerAttachment:
    """Open the exported snapshot inside a worker process (zero-copy).

    :class:`~repro.store.Snapshot` checks the image as it checks a file,
    raising :class:`StoreError` for a block that does not hold a whole,
    uncorrupted snapshot.  The object graph is thawed from its CSR — thaw
    adds vertices in id order, so worker-side iteration order (and hence
    shard partitioning and sweep tie-breaks) is identical to the
    parent's — and the CSR is installed as its current frozen snapshot,
    so ``prepare()`` freezes nothing.
    """
    block = _attach_block(handle.name)
    snapshot = Snapshot.over(
        block.buf[: handle.size], f"shared memory {handle.name}"
    )
    graph = snapshot.as_csr_graph().thaw()
    snapshot.install(graph)
    return WorkerAttachment(graph=graph, snapshot=snapshot, block=block)

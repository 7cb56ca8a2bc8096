"""Multi-process compute backend: shared-memory CSR workers.

The GIL caps every pure-Python kernel at one core; this package breaks
that ceiling for *batches* by exporting a frozen graph's ``.bccsnap``
image into shared memory, once per pool, and serving queries from the
pool's N worker processes, which all map that one block:

* :mod:`repro.parallel.shm` — zero-copy graph transport
  (:func:`export_graph` / :func:`attach_graph`, availability probing);
* :mod:`repro.parallel.worker` — the worker-process loop, speaking the
  wire codec;
* :mod:`repro.parallel.pool` — :class:`ProcessWorkerPool`,
  one-task-in-flight dispatch with deadlines, crash detection and
  respawn;
* :mod:`repro.parallel.process_engine` — :class:`ProcessEngine`, the one
  owner of a pool: engines' process batches and replica members.  It
  rebuilds its pool, and so re-exports, when the graph mutated.

Callers normally never touch this package directly: pass
``backend="process"`` to ``BCCEngine.search_many`` /
``ShardedBCCEngine.search_many`` (the default ``"thread"`` never starts
a worker), or ``member_backend="process"`` to
:class:`~repro.server.replicas.ReplicaSet`.
"""

from repro.parallel.pool import (
    DEFAULT_PROCESS_WORKERS,
    POOL_COUNTER_NAMES,
    ProcessWorkerPool,
    WorkerTaskError,
)
from repro.parallel.process_engine import ProcessEngine
from repro.parallel.shm import (
    GraphHandle,
    ProcessBackendUnavailable,
    SharedGraphExport,
    WorkerAttachment,
    attach_graph,
    export_graph,
    shared_memory_available,
)

__all__ = [
    "DEFAULT_PROCESS_WORKERS",
    "POOL_COUNTER_NAMES",
    "GraphHandle",
    "ProcessBackendUnavailable",
    "ProcessEngine",
    "ProcessWorkerPool",
    "SharedGraphExport",
    "WorkerAttachment",
    "WorkerTaskError",
    "attach_graph",
    "export_graph",
    "shared_memory_available",
]

"""The per-layer ledger: self time per layer, from wrappers around public calls.

The traced run replaces public functions and methods of the program's layers
with timing wrappers that live here, in the benchmark.  Each wrapper pushes a
frame on a per-thread stack; when the call returns, its duration minus the
time of wrapped calls nested inside it is the layer's *self time*.  Summed
self times therefore add up to the wrapped part of an operation, and the rest
of the operation's wall time is reported as unattributed.

A layer may *absorb* other layers: while it is on the stack, calls into an
absorbed layer are not split out (engine prepare absorbs the CSR freeze it
performs, so the freeze is charged to prepare, not to per-query
materialization).

Wrappers are installed and removed explicitly (:meth:`Ledger.uninstall`
restores every original binding), so one process can measure an untraced
and a traced phase back to back.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Tuple

_EMPTY = frozenset()


class Ledger:
    """Self-time accounting for wrapped layers, plus plain call counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.inclusive_seconds: Dict[str, float] = defaultdict(float)
        # Plain counters bumped by counting wrappers.
        self.counts: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _charge(self, layer: str, self_seconds: float, inclusive: float) -> None:
        with self._lock:
            self.self_seconds[layer] += self_seconds
            self.inclusive_seconds[layer] += inclusive

    def timed(self, fn: Callable, layer: str, absorbs: Iterable[str] = ()) -> Callable:
        """``fn`` wrapped to charge its self time to ``layer``."""
        own = frozenset(absorbs)
        clock = self.clock
        stack_of = self._stack
        charge = self._charge

        def wrapper(*args, **kwargs):
            stack = stack_of()
            inherited = stack[-1][2] if stack else _EMPTY
            if layer in inherited:
                return fn(*args, **kwargs)
            frame = [layer, 0.0, inherited | own if own else inherited]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                charge(layer, elapsed - frame[1], elapsed)

        wrapper.__wrapped__ = fn
        return wrapper

    def deadline_timed(self, fn: Callable, layer: str) -> Callable:
        """Wrap ``run_with_deadline(call, seconds, what)``: self = total - call.

        The wrapped call may run on another thread, so its time is taken
        around the call itself rather than from the frame stack.
        """
        clock = self.clock
        charge = self._charge

        def wrapper(call, seconds, what="call"):
            inner = [0.0]

            def timed_call():
                start = clock()
                try:
                    return call()
                finally:
                    inner[0] = clock() - start

            start = clock()
            try:
                return fn(timed_call, seconds, what)
            finally:
                elapsed = clock() - start
                stack = self._stack()
                if stack:
                    stack[-1][1] += elapsed
                charge(layer, elapsed - inner[0], elapsed)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn: Callable, counter: str) -> Callable:
        """``fn`` wrapped to bump ``counts[counter]`` per call (no timing)."""
        counts = self.counts
        lock = self._lock

        def wrapper(*args, **kwargs):
            with lock:
                counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def reset(self) -> None:
        with self._lock:
            self.self_seconds.clear()
            self.inclusive_seconds.clear()
            self.counts.clear()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "self_seconds": dict(self.self_seconds),
                "inclusive_seconds": dict(self.inclusive_seconds),
                "counts": dict(self.counts),
            }

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def replace(self, owner: object, attr: str, value: object) -> None:
        """Bind ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.attr`` (plain, static or class method) with ``make(fn)``."""
        original = cls.__dict__[attr]
        if isinstance(original, staticmethod):
            self.replace(cls, attr, staticmethod(make(original.__func__)))
        elif isinstance(original, classmethod):
            self.replace(cls, attr, classmethod(make(original.__func__)))
        else:
            self.replace(cls, attr, make(original))

    def patch_function(self, fn: Callable, make: Callable[[Callable], Callable], modules: Iterable[str] = ("repro",)) -> None:
        """Replace every module-level binding of ``fn`` under ``modules``.

        ``from x import f`` copies the binding into the importing module, so
        each copy is replaced; the wrapper is built once and shared.
        """
        wrapper = make(fn)
        prefixes = tuple(modules)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(prefixes):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.replace(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# layer maps: which public calls belong to which layer
# ----------------------------------------------------------------------
#: The kernel body (the registered ``run_*`` runners) is not a named layer:
#: its own time is reported as unattributed.
BODY = "bench.body"


def install_kernel(ledger: Ledger) -> None:
    """Wrap the engine, core and graph calls on an uncached search's path."""
    from repro.api.engine import BCCEngine
    from repro.core import online_bcc
    from repro.core.bcc_model import BCCParameters
    from repro.core.butterfly import butterfly_degrees
    from repro.core.find_g0 import find_g0
    from repro.core.kcore import k_core_containing
    from repro.core.leader_pair import LeaderPairTracker, identify_leader_pair
    from repro.core.local_search import expand_candidate_graph, run_l2p_bcc
    from repro.core.lp_bcc import run_lp_bcc
    from repro.core.maintenance import maintain_bcc
    from repro.core.path_weight import butterfly_core_shortest_path
    from repro.core.query_distance import QueryDistanceTracker
    from repro.graph.bipartite import BipartiteView, extract_bipartite
    from repro.graph.labeled_graph import LabeledGraph, union_graphs

    def layer(name, absorbs=()):
        return lambda fn: ledger.timed(fn, name, absorbs)

    ledger.patch_method(BCCEngine, "search", layer("api.engine"))
    ledger.patch_method(BCCParameters, "from_query", layer("core.params"))
    for fn, name in (
        (find_g0, "core.find_g0"),
        (k_core_containing, "core.kcore"),
        (butterfly_degrees, "core.butterfly"),
        (extract_bipartite, "graph.bipartite"),
        (union_graphs, "graph.union"),
        (maintain_bcc, "core.maintain"),
        (identify_leader_pair, "core.leader_pair"),
        (butterfly_core_shortest_path, "core.local_search"),
        (expand_candidate_graph, "core.local_search"),
        (online_bcc.run_online_bcc, BODY),
        (run_lp_bcc, BODY),
        (run_l2p_bcc, BODY),
    ):
        ledger.patch_function(fn, layer(name))
    # Only Online-BCC's sweep: the distance tracker's own BFS calls stay
    # inside core.query_distance.
    ledger.replace(
        online_bcc,
        "csr_bfs_distances",
        ledger.timed(online_bcc.csr_bfs_distances, "core.sweep"),
    )
    for attr in ("__init__", "remove_vertices", "graph_query_distance", "farthest_vertices"):
        ledger.patch_method(QueryDistanceTracker, attr, layer("core.query_distance"))
    for attr in ("__init__", "set_leaders", "remove_vertices", "revalidate", "leader_pair"):
        ledger.patch_method(LeaderPairTracker, attr, layer("core.leader_pair"))
    for cls, attr in (
        (LabeledGraph, "induced_subgraph"),
        (LabeledGraph, "copy"),
        (LabeledGraph, "freeze"),
        (BipartiteView, "copy"),
    ):
        ledger.patch_method(cls, attr, layer("graph.materialize"))


def install_kernel_counters(ledger: Ledger) -> None:
    """Count per-query graph construction calls (no timing)."""
    from repro.graph.labeled_graph import LabeledGraph

    ledger.patch_method(LabeledGraph, "add_edge", lambda fn: ledger.counted(fn, "graph.add_edge_calls"))
    ledger.patch_method(LabeledGraph, "induced_subgraph", lambda fn: ledger.counted(fn, "graph.induced_calls"))


def install_publish(ledger: Ledger) -> None:
    """Wrap the publish path: engine prepare, index and group builds, store I/O."""
    from repro.api.engine import BCCEngine
    from repro.core.bc_index import BCIndex
    from repro.store.snapshot import Snapshot, persist_engine

    ledger.patch_method(BCCEngine, "prepare", lambda fn: ledger.timed(fn, "api.prepare", ("graph.materialize",)))
    ledger.patch_method(BCCEngine, "group", lambda fn: ledger.timed(fn, "api.group_build", ("graph.materialize",)))
    ledger.patch_method(BCIndex, "build", lambda fn: ledger.timed(fn, "core.index_build"))
    ledger.patch_function(persist_engine, lambda fn: ledger.timed(fn, "store.persist"))
    for attr in ("__init__", "matches", "close"):
        ledger.patch_method(Snapshot, attr, lambda fn: ledger.timed(fn, "store.attach"))


def install_client(ledger: Ledger) -> None:
    """Wrap the gateway client and its HTTP exchange (load-generator side)."""
    import http.client

    from repro.server.client import GatewayClient

    ledger.patch_method(GatewayClient, "search", lambda fn: ledger.timed(fn, "server.client"))
    for cls, attr in (
        (http.client.HTTPConnection, "request"),
        (http.client.HTTPConnection, "getresponse"),
        (http.client.HTTPResponse, "read"),
    ):
        ledger.patch_method(cls, attr, lambda fn: ledger.timed(fn, "server.exchange"))


def install_gateway(ledger: Ledger) -> None:
    """Wrap the gateway's request path (runs inside the gateway process).

    The engine itself is wrapped by :func:`install_kernel`, which the
    gateway process installs too.
    """
    from repro.server import app
    from repro.serving.directory import GraphDirectory
    from repro.serving.sharded import ShardedBCCEngine

    for attr in ("decode_query", "decode_config", "encode_response", "json_dumps", "json_loads"):
        ledger.replace(app, attr, ledger.timed(getattr(app, attr), "server.protocol"))
    ledger.replace(app, "run_with_deadline", ledger.deadline_timed(app.run_with_deadline, "server.deadline"))
    ledger.patch_method(GraphDirectory, "serve", lambda fn: ledger.timed(fn, "serving.directory"))
    ledger.patch_method(ShardedBCCEngine, "search", lambda fn: ledger.timed(fn, "serving.sharded"))
    ledger.patch_method(threading.Thread, "start", lambda fn: ledger.counted(fn, "server.thread_starts"))


def install_pool(ledger: Ledger) -> None:
    """Wrap the process pool's scatter-gather and its wire marshalling."""
    from repro.parallel import pool

    ledger.patch_method(pool.ProcessWorkerPool, "run_batch", lambda fn: ledger.timed(fn, "parallel.pool"))
    for attr in ("encode_query", "encode_config", "decode_response", "json_dumps", "json_loads"):
        ledger.replace(pool, attr, ledger.timed(getattr(pool, attr), "parallel.marshal"))

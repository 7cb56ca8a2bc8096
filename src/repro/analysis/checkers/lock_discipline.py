"""BCC001 — lock discipline for registered guarded fields.

PR 3 made the engine thread-safe by pairing every piece of shared mutable
state with a leaf lock; PRs 4–7 extended the same idiom through the
serving, gateway and store layers.  The runtime concurrency suite catches
a forgotten lock only probabilistically — this checker catches it
lexically: every read or write of a field listed in
:data:`GUARDED_FIELDS` must appear inside a ``with <receiver>.<lock>:``
block naming the *same receiver* and the *matching lock*.

The receiver matters: a method that reads another instance's guarded
field (``other._counts``) must hold *that* instance's lock
(``with other._lock:``) — holding ``self._lock`` there would be the bug.
Tracking ``(receiver, lock)`` pairs makes that pattern first-class
instead of a false positive.

Deliberate non-goals, matching the codebase's documented conventions:

* ``__init__`` is exempt — construction happens before the object is
  shared, which is exactly why every class initializes its guarded
  fields without the lock.
* Methods ending in ``_locked`` are exempt — the suffix is this repo's
  "caller already holds the lock" convention
  (e.g. ``ReplicaHealth._eject_locked``).
* The check is lexical.  A closure defined inside a ``with`` block but
  called later still *counts* as locked; conversely a helper that the
  caller always locks around must either take the ``_locked`` suffix or
  carry a per-line ``# noqa: BCC001`` with a justification.
* Fields not in the registry (immutable-after-init tuples, fill-once
  caches with their own double-checked protocol like
  ``BCCEngine._groups``) are not checked.  Guarding a new field means
  adding it to the registry — the registry *is* the documented lock map.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Set, Tuple

from repro.analysis.base import Checker, Project, register_checker
from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile

__all__ = ["GUARDED_FIELDS", "LockDisciplineChecker"]

#: file basename -> class name -> guarded field -> required lock attribute.
#: This is the machine-readable form of the lock maps documented in each
#: module's "locking" docstring section; keep the two in sync.
GUARDED_FIELDS: Dict[str, Dict[str, Dict[str, str]]] = {
    "engine.py": {
        "BCCEngine": {
            "_counters": "_counters_lock",
            "_result_cache": "_cache_lock",
        },
        "ProcessSlot": {
            "_engine": "_lock",
        },
    },
    "bc_index.py": {
        "BCIndex": {
            "_chi": "_chi_lock",
        },
    },
    "csr.py": {
        "CSRGraph": {
            "_g0_memo": "_g0_lock",
            "_g0_ids": "_g0_lock",
            "_bits": "_bits_lock",
            "_cores": "_cores_lock",
        },
    },
    "process_engine.py": {
        "ProcessEngine": {
            "_pool": "_lock",
            "_pool_version": "_lock",
            "_closed": "_lock",
        },
    },
    "sharded.py": {
        "ShardedBCCEngine": {
            "_counters": "_counters_lock",
            "_shards": "_shards_lock",
        },
    },
    "replicas.py": {
        "ReplicaSet": {
            "_in_flight": "_route_lock",
            "_routed": "_route_lock",
            "_searches": "_route_lock",
            "_failovers": "_route_lock",
            "_replica_failures": "_route_lock",
        },
    },
    "pool.py": {
        "ProcessWorkerPool": {
            "_counters": "_counters_lock",
            "_workers": "_workers_lock",
        },
    },
    "resilience.py": {
        "ReplicaHealth": {
            "_state": "_lock",
            "_consecutive_failures": "_lock",
            "_ejected_until": "_lock",
            "_probe_in_flight": "_lock",
            "_ewma": "_lock",
            "_samples": "_lock",
            "_failures": "_lock",
            "_ejections": "_lock",
            "_readmissions": "_lock",
        },
    },
    "directory.py": {
        "GraphDirectory": {
            "_served": "_lock",
        },
    },
    "stats.py": {
        "LatencyHistogram": {
            "_counts": "_lock",
            "_count": "_lock",
            "_sum": "_lock",
            "_max": "_lock",
        },
    },
    "store.py": {
        "SnapshotStore": {
            "_counters": "_counters_lock",
        },
    },
    "app.py": {
        "Gateway": {
            "_counters": "_gauge_lock",
            "_in_flight": "_gauge_lock",
            "_degraded_cache": "_degraded_lock",
        },
    },
    "faults.py": {
        "FaultPlan": {
            "_site_calls": "_lock",
            "_matched": "_lock",
            "_injected": "_lock",
        },
    },
    "client.py": {
        "GatewayClient": {
            "_retries": "_retry_lock",
        },
    },
    "tracing.py": {
        "Tracer": {
            "_counters": "_lock",
        },
    },
    "metrics.py": {
        "MetricsRegistry": {
            "_counters": "_lock",
            "_sources": "_lock",
        },
    },
    "slowlog.py": {
        "SlowQueryLog": {
            "_entries": "_lock",
            "_counters": "_lock",
        },
    },
}

#: Methods whose bodies are exempt wholesale (see module docstring).
_EXEMPT_METHODS: FrozenSet[str] = frozenset({"__init__"})
_EXEMPT_SUFFIX = "_locked"

HeldLocks = FrozenSet[Tuple[str, str]]


@register_checker
class LockDisciplineChecker(Checker):
    rule = "BCC001"
    name = "lock-discipline"
    description = (
        "registered lock-guarded fields must be accessed inside a "
        "'with <receiver>.<lock>:' block for the matching lock"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for source in project.parsed():
            per_class = GUARDED_FIELDS.get(source.basename)
            if not per_class:
                continue
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                guarded = per_class.get(node.name)
                if not guarded:
                    continue
                yield from self._check_class(source, node, guarded)

    def _check_class(
        self,
        source: SourceFile,
        class_node: ast.ClassDef,
        guarded: Dict[str, str],
    ) -> Iterator[Finding]:
        for item in class_node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in _EXEMPT_METHODS or item.name.endswith(
                _EXEMPT_SUFFIX
            ):
                continue
            for statement in item.body:
                yield from self._visit(
                    source, class_node.name, guarded, statement, frozenset()
                )

    def _visit(
        self,
        source: SourceFile,
        class_name: str,
        guarded: Dict[str, str],
        node: ast.AST,
        held: HeldLocks,
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: Set[Tuple[str, str]] = set()
            for with_item in node.items:
                # The context expressions themselves run *before* the lock
                # is held — check them under the incoming set.
                yield from self._visit(
                    source, class_name, guarded, with_item.context_expr, held
                )
                if with_item.optional_vars is not None:
                    yield from self._visit(
                        source,
                        class_name,
                        guarded,
                        with_item.optional_vars,
                        held,
                    )
                lock = _lock_of(with_item.context_expr)
                if lock is not None:
                    acquired.add(lock)
            inner = held | acquired
            for child in node.body:
                yield from self._visit(source, class_name, guarded, child, inner)
            return

        if isinstance(node, ast.Attribute):
            access = _receiver_field(node)
            if access is not None:
                receiver, field = access
                lock = guarded.get(field)
                if lock is not None and (receiver, lock) not in held:
                    if not source.is_suppressed(node.lineno, self.rule):
                        yield self.finding(
                            source,
                            node,
                            f"{class_name}.{field} accessed outside "
                            f"'with {receiver}.{lock}:'",
                        )

        for child in ast.iter_child_nodes(node):
            yield from self._visit(source, class_name, guarded, child, held)


def _lock_of(context_expr: ast.AST) -> "Tuple[str, str] | None":
    """``with recv.lockattr:`` -> ``(recv, lockattr)``; else ``None``."""
    if isinstance(context_expr, ast.Attribute) and isinstance(
        context_expr.value, ast.Name
    ):
        return (context_expr.value.id, context_expr.attr)
    return None


def _receiver_field(node: ast.Attribute) -> "Tuple[str, str] | None":
    """``recv.field`` with a simple Name receiver -> ``(recv, field)``."""
    if isinstance(node.value, ast.Name):
        return (node.value.id, node.attr)
    return None

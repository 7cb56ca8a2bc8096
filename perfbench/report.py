"""Metric tables, the run record and the one-line result.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric names
and units; ``BENCHMARK.json`` lists the same names (a test checks that the
two agree).  Every workload prints every metric of the table its mode
selects: a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Optional

#: End-to-end metrics (``--trace 0``): name -> unit.  Times are
#: probe-normalized; the raw values ride in the run record.
END_TO_END: Dict[str, str] = {
    "p50_ms": "ms",
    "qps": "1/s",
    "setup_s": "s",
    "rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  Times are self time in
#: ms per operation (search, request, swap cycle or batch).
PER_LAYER: Dict[str, str] = {
    # core and graph, on the kernel workloads
    "core.params_ms": "ms",
    "core.find_g0_ms": "ms",
    "core.kcore_ms": "ms",
    "core.butterfly_ms": "ms",
    "graph.bipartite_ms": "ms",
    "graph.union_ms": "ms",
    "core.sweep_ms": "ms",
    "core.maintain_ms": "ms",
    "core.query_distance_ms": "ms",
    "core.leader_pair_ms": "ms",
    "core.local_search_ms": "ms",
    "graph.materialize_ms": "ms",
    "api.engine_ms": "ms",
    "core.butterfly_calls": "count",
    "core.iterations": "count",
    "core.vertices_deleted": "count",
    "core.leader_full_recounts": "count",
    "core.distance_partial_updates": "count",
    "core.distance_full_recomputations": "count",
    "graph.induced_calls": "count",
    "graph.add_edge_calls": "count",
    # server, serving and api, on gateway
    "server.client_ms": "ms",
    "server.http_ms": "ms",
    "server.app_ms": "ms",
    "server.protocol_ms": "ms",
    "server.deadline_ms": "ms",
    "server.deadline_threads": "count",
    "serving.directory_ms": "ms",
    "serving.sharded_ms": "ms",
    "api.cache_hit_ratio": "ratio",
    "server.rejections": "count",
    # api and store, on swap
    "store.persist_ms": "ms",
    "store.attach_ms": "ms",
    "api.prepare_ms": "ms",
    "core.index_build_ms": "ms",
    "api.group_build_ms": "ms",
    "api.csr_freezes": "count",
    "api.index_builds": "count",
    "api.group_builds": "count",
    "store.persists": "count",
    "store.bytes_written": "bytes",
    "api.cache_misses": "count",
    # parallel, on batch
    "parallel.pool_ms": "ms",
    "parallel.marshal_ms": "ms",
    "parallel.worker_busy_ms": "ms",
    "parallel.wait_ms": "ms",
    "parallel.utilization": "ratio",
    "parallel.tasks_per_worker": "count",
    "parallel.respawns": "count",
    "parallel.fallbacks": "count",
    # the benchmark itself
    "bench.tracing_overhead_pct": "%",
    "bench.unattributed_ms": "ms",
    "bench.count_mismatches": "count",
}

@dataclasses.dataclass
class RunResult:
    """Everything one run measured and checked."""

    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    #: name -> probe-normalized value (the reported metrics).
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: name -> raw wall-clock value beside a normalized metric (not gated).
    raw: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: exact work counts, compared across runs of the same seed.
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    probe: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: per operation kind: count and normalized/raw quantiles (not gated).
    operations: Dict[str, Dict[str, float]] = dataclasses.field(default_factory=dict)
    notes: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems


def _git_sha(root: Path) -> Optional[str]:
    """HEAD's sha read from ``.git`` in ``root`` itself (no parent lookup)."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (root / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None


def source_digest(root: Path) -> str:
    """sha256 over the program's source files: identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path) -> Dict[str, object]:
    return {
        "git_sha": _git_sha(root),
        "source_digest": source_digest(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def result_line(result: RunResult) -> str:
    """The last stdout line: exactly the contract's four keys."""
    table = PER_LAYER if result.trace else END_TO_END
    metrics = {
        name: {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in table.items()
    }
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": int(result.attempted),
            "failed": int(result.failed),
            "metrics": metrics,
        }
    )


def finish(result: RunResult, root: Path, out_dir: Path) -> int:
    """Write the run record, compare counts with an earlier same-seed run,
    print the summary and the result line; return the exit code."""
    name = f"{result.workload}-seed{result.seed}-trace{int(result.trace)}.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    if result.counts and path.is_file():
        try:
            earlier = json.loads(path.read_text()).get("counts", {})
        except (OSError, ValueError):
            earlier = {}
        changed = sorted(
            key for key in result.counts if key in earlier and earlier[key] != result.counts[key]
        )
        if changed:
            result.notes["nondeterministic_vs_earlier_run"] = changed
            result.metrics["bench.count_mismatches"] = (
                result.metrics.get("bench.count_mismatches", 0) + len(changed)
            )
    record = {
        "workload": result.workload,
        "seed": result.seed,
        "trace": result.trace,
        **environment(root),
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems[:50],
        "probe": result.probe,
        "operations": result.operations,
        "metrics": {
            name: {
                "value": result.metrics.get(name, 0.0),
                "unit": unit,
                "raw": result.raw.get(name),
            }
            for name, unit in (PER_LAYER if result.trace else END_TO_END).items()
        },
        "counts": result.counts,
        "notes": result.notes,
    }
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str))
    print(f"{result.workload} seed={result.seed} trace={int(result.trace)} "
          f"correct={result.correct} attempted={result.attempted} failed={result.failed}")
    for problem in result.problems[:10]:
        print(f"  WRONG: {problem}")
    for metric, value in sorted(result.metrics.items()):
        raw = result.raw.get(metric)
        suffix = f"  (raw {raw:.4f})" if raw is not None else ""
        print(f"  {metric} = {value:.4f}{suffix}")
    print(f"  record: {path.relative_to(root)}")
    sys.stdout.flush()
    print(result_line(result))
    return 0 if result.correct else 1

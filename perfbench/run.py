"""Run one workload of the benchmark and print its result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload kernel-lp-bcc --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` runs the same workload with the per-layer ledger and prints
the per-layer metrics instead.  ``--workload all`` runs every workload in
turn, each in its own interpreter so peak RSS stays per workload.  The last stdout line is the JSON result;
a run record with raw values, probe readings and work counts is written
under ``perfbench/out/``.  Exit code 1 means a wrong answer, 2 a usage or
environment error.
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = (
    "kernel-online-bcc",
    "kernel-lp-bcc",
    "kernel-l2p-bcc",
    "gateway",
    "swap",
    "batch",
)


@dataclasses.dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    work_dir: Path
    #: Probe partner process shared by the run's timelines (``None``: probe
    #: the load generator's core only).
    partner: object = None

    def timeline(self):
        from perfbench.probe import Timeline

        return Timeline(partner=self.partner)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _dispatch(ctx: Context):
    if ctx.workload.startswith("kernel-"):
        from perfbench import kernel

        return kernel.run(ctx, ctx.workload[len("kernel-"):])
    if ctx.workload == "gateway":
        from perfbench import gateway

        return gateway.run(ctx)
    if ctx.workload == "swap":
        from perfbench import swap

        return swap.run(ctx)
    from perfbench import batch

    return batch.run(ctx)


def _stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker if this run started one.

    Spawning pool workers starts a tracker process that the standard library
    leaves to outlive the interpreter; closing its pipe here and waiting for
    it keeps every process of the run inside the run.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _run_all(args) -> int:
    worst = 0
    for workload in WORKLOADS:
        argv = ["--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run([sys.executable, __file__, *argv], check=False)
        worst = max(worst, completed.returncode)
    return worst


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.probe import ProbePartner
    from perfbench.report import finish

    work_dir = HERE / "out" / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    partner = ProbePartner()
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, work_dir, partner)
    try:
        result = _dispatch(ctx)
    finally:
        partner.close()
        _stop_resource_tracker()
        shutil.rmtree(work_dir, ignore_errors=True)
    return finish(result, ROOT, HERE / "out")


if __name__ == "__main__":
    sys.exit(main())

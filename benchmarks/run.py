"""Benchmark of the snspd-pnr CLI, end to end and layer by layer.

    python3 benchmarks/run.py --workload sweep-merge --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The CLI runs in this process through ``click.testing.CliRunner``
with one simulator thread and one BLAS thread.  After set-up, rounds of the
workload's operations run until ``--seconds`` have passed (at least one
round); every output is checked (see ``checks.py``).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``.  Scratch outputs and span files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("SNSPD_PNR_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
IMPORT = "import click.testing, snspd_pnr.cli"

WORKLOAD_NAMES = ("hist-bootstrap", "sweep-merge", "geom-mc")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be a non-negative 63-bit integer")
    return args


def child_import_seconds() -> float:
    """Import time of the CLI in a fresh interpreter, measured inside it."""
    code = f"import time; t = time.perf_counter(); {IMPORT}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Invokes CLI commands in process, times them, checks them and counts them."""

    def __init__(self, tracer=None) -> None:
        from click.testing import CliRunner
        from snspd_pnr.cli import main

        self.cli = CliRunner()
        self.main = main
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.times: dict[tuple[str, str], list[float]] = {}  # (phase, command) -> seconds

    def run(self, op, phase: str) -> float:
        """Run one operation; returns its wall time in seconds (checks not included)."""
        command = op.args[0]
        invoke = self.cli.invoke
        if self.tracer is not None:
            self.tracer.phase = phase
            invoke = self.tracer.span(f"cli.{command}", invoke)
        t0 = time.perf_counter()
        result = invoke(self.main, op.args)
        seconds = time.perf_counter() - t0
        self.attempted += 1
        if result.exit_code != 0:
            self.failed += 1
            print(f"FAILED {phase} {' '.join(op.args)}: exit {result.exit_code}\n{result.output}"
                  f"{result.exception!r}", file=sys.stderr)
            return seconds
        try:
            problems = op.check()
        except Exception as exc:  # a malformed output is a failed check, and the run goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.incorrect += 1
            print(f"FAILED {phase} {' '.join(op.args)}:\n  " + "\n  ".join(problems), file=sys.stderr)
        self.times.setdefault((phase, command), []).append(seconds)
        return seconds


def run_workload(name: str, seed: int, runner: Runner, seconds: float | None):
    """Set up, prepare, then run rounds for ``seconds`` (one round when None)."""
    from workloads import WORKLOADS

    work = WORKLOADS[name](seed, OUT / f"{name}-{os.getpid()}")
    if runner.tracer is not None:
        runner.tracer.phase = f"{name}:prep"
    work.setup()
    work.prepare()
    for op in work.prep_ops():
        runner.run(op, f"{name}:prep")
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(sum(runner.run(op, f"{name}:op") for op in work.round_ops()))
        if seconds is None or time.perf_counter() - start >= seconds:
            break
    return work, rounds


def timed_setup(name: str, seed: int, first_import: float) -> list[float]:
    """``SETUP_REPEATS`` set-ups: a CLI import (this process's own first, then
    fresh interpreters) plus the generation of the workload's inputs."""
    from workloads import WORKLOADS

    samples = []
    for i in range(SETUP_REPEATS):
        imported = first_import if i == 0 else child_import_seconds()
        work = WORKLOADS[name](seed, OUT / f"{name}-setup-{os.getpid()}")
        t0 = time.perf_counter()
        work.setup()
        samples.append(imported + time.perf_counter() - t0)
        shutil.rmtree(work.work)
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "snspd_pnr" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'snspd_pnr'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import click.testing  # noqa: F401  (the same modules as IMPORT)
    import snspd_pnr.cli  # noqa: F401
    first_import = time.perf_counter() - t0

    import layers
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    setups = timed_setup(args.workload, args.seed, first_import)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    runner = Runner(tracer)
    works = {}
    try:
        works[args.workload], rounds = run_workload(args.workload, args.seed, runner, args.seconds)
        if tracer is not None:
            for other in layers.companions(args.workload):
                works[other], _ = run_workload(other, args.seed, runner, None)
    finally:
        for work in works.values():
            shutil.rmtree(work.work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{runner.attempted} operations, {runner.failed} failed")
    for (phase, command), values in runner.times.items():
        print(f"  {phase} {command}_s {statistics.median(values):.4f} s (median of {len(values)})")
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "round_s": (statistics.median(rounds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = layers.per_layer(tracer, works, args.workload)
        trace_dir = OUT / "trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
        for missing in tracer.missing:
            print(f"  not traced (absent from the package): {missing}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.incorrect == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

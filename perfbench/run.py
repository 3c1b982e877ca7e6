"""drypend benchmark: seeded CLI workloads, checked outputs, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload simulate-stickslip --seed 1 --seconds 30 --trace 0

Run from the root of a drypend checkout; the package is imported from its
`src/`.  Each op is one in-process `drypend.cli.main([...])` call on a
generated scenario file, writing into a fresh temporary directory that is
removed after the op's outputs are checked.  The ops of a workload form a
round; a run repeats whole rounds until the next one would overrun
`--seconds`, and always runs at least MIN_ROUNDS of them.  The first round's
outputs are checked by `checks.py`, and every later round must reproduce them
byte for byte.

Every time is scaled to the reference speed of `speed.py`, by the reference
loop timed on the same core right before and after it.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics of a traced run with `--trace 1`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import NoReturn

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

MIN_ROUNDS = 2
# set-up is timed in batches of fresh interpreters: one batch before the
# first round and one after every untraced round, so that a slow stretch of
# the machine at one moment of the run does not decide setup_s
SETUP_BATCH = 3
# candidate percentiles for op_tail_ms, highest first
TAIL_PERCENTILES = (99, 98, 95, 90, 85, 80, 75, 50)


def fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def tail_percentile(n: int) -> int:
    """Highest candidate percentile with at least ten of n samples above it."""
    for pct in TAIL_PERCENTILES:
        if n - math.ceil(pct * n / 100) >= 10:
            return pct
    return 50


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    return sorted_values[max(0, math.ceil(pct * len(sorted_values) / 100) - 1)]


class SetupTimer:
    """Times fresh interpreters from launch to `drypend.cli` imported (s).

    The child reads the monotonic clock, which all processes share, once the
    import is done, and then times the reference loop on its own core.
    """

    CODE = "import drypend.cli, time; t = time.perf_counter(); import speed; print(t, speed.loop_ms())"

    def __init__(self):
        # numpy's OpenBLAS starts a thread per core at import; on a VM, each
        # start on a core that has been idle for a while added ~60 ms, so
        # setup_s swung between two levels with the other core's state
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join((SRC, HERE)), "OPENBLAS_NUM_THREADS": "1"}
        self.scaled: list[float] = []
        self.raw: list[float] = []
        self.launch()  # the first launch also writes the bytecode caches
        self.scaled.clear()
        self.raw.clear()

    def launch(self):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", self.CODE], env=self.env, cwd=ROOT, check=True, capture_output=True, text=True
        )
        t_imported, loop = map(float, out.stdout.split())
        self.raw.append(t_imported - t0)
        self.scaled.append((t_imported - t0) * speed.REFERENCE_MS / loop)

    def batch(self):
        for _ in range(SETUP_BATCH):
            self.launch()


def digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Runner:
    def __init__(self, ops, cli, checks, tmp: str):
        self.ops = ops
        self.cli = cli
        self.checks = checks
        self.tmp = tmp
        self.wall_ms: list[float] = []
        self.cpu_ms: list[float] = []
        # scaled wall and CPU times of the untraced op runs (ms)
        self.scaled_wall: list[float] = []
        self.scaled_cpu: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[int, tuple[int, str]] = {}

    def run_op(self, i: int, op, check: bool, traced: bool = False) -> float:
        """Run, time and check one op; returns its wall time in ms."""
        work = tempfile.mkdtemp(dir=self.tmp)
        try:
            scen_path = os.path.join(work, "scenario.json")
            out_dir = os.path.join(work, "out")
            with open(scen_path, "w") as fh:
                json.dump(op.scenario, fh)
            argv = [op.command, scen_path, "--out", out_dir, *op.flags]
            sink = io.StringIO()
            loop_before = 0.0 if traced else speed.loop_ms()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    rc = self.cli.main(argv)
                except Exception as exc:  # a traceback is a failed op, not a dead run
                    rc = f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                c1 = time.process_time()
            wall = 1e3 * (t1 - t0)
            cpu = 1e3 * (c1 - c0)
            self.wall_ms.append(wall)
            self.cpu_ms.append(cpu)
            if not traced:
                scale = speed.REFERENCE_MS / (0.5 * (loop_before + speed.loop_ms()))
                self.scaled_wall.append(wall * scale)
                self.scaled_cpu.append(cpu * scale)
            self.attempted += 1
            if rc not in ((0, 3) if op.command in ("shoot", "sweep") else (0,)):
                self.failed += 1
                if not (op.expect_fail and self.checks.is_dependence_fault(out_dir, rc)):
                    print(f"perfbench: {op.command} {op.name} failed ({rc}): {sink.getvalue()[-500:]}", file=sys.stderr)
                return wall
            outputs = (rc, digest(out_dir))
            if check:
                self.reference[i] = outputs
                try:
                    errs = self.checks.check_op(op.command, op.scenario, out_dir, rc, op.flags)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    errs = [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
                self.errors += [f"{op.command} {op.name}: {e}" for e in errs]
            elif outputs != self.reference.get(i):
                self.errors.append(f"{op.command} {op.name}: outputs differ from the first round")
            return wall
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def run_round(self, check: bool, tracer=None) -> float:
        """Run every op once; returns the summed wall time of the ops (ms)."""
        total = 0.0
        for i, op in enumerate(self.ops):
            if tracer:
                tracer.begin_op()
            total += self.run_op(i, op, check, traced=tracer is not None)
            if tracer:
                tracer.end_op()
        return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "drypend", "cli.py")):
        fail(f"no drypend sources under {SRC}; run from the root of a drypend checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.GENERATED:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.GENERATED)}")

    setup = None if args.trace else SetupTimer()
    import drypend.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        fail(f"imported drypend from {cli.__file__}, not from {SRC}")
    import checks
    import tracing

    ops = workloads.round_ops(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    traced_ms: list[float] = []
    untraced_ms: list[float] = []
    tmp = tempfile.mkdtemp(dir=HERE, prefix="tmp-")
    try:
        runner = Runner(ops, cli, checks, tmp)
        gc.collect()
        start = time.perf_counter()
        rounds = 0
        last_ms = 0.0
        if setup:
            setup.batch()
        # whole rounds only; the traced run alternates untraced and traced ones
        while rounds < MIN_ROUNDS or time.perf_counter() - start + 1e-3 * last_ms < args.seconds:
            first = len(runner.wall_ms)
            if tracer and rounds % 2:
                tracer.install()
                try:
                    last_ms = runner.run_round(False, tracer)
                finally:
                    tracer.uninstall()
                traced_ms += runner.wall_ms[first:]
            else:
                last_ms = runner.run_round(rounds == 0)
                untraced_ms += runner.wall_ms[first:]
                if setup:
                    setup.batch()
            rounds += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if tracer:
        metrics = tracing.layer_metrics(tracer, traced_ms, untraced_ms)
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write(os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.csv"))
        print(f"{args.workload} seed {args.seed}: {len(traced_ms)} traced and {len(untraced_ms)} untraced ops")
    else:
        wall = sorted(runner.scaled_wall)
        pct = tail_percentile(MIN_ROUNDS * len(ops))
        op_ms = statistics.median(wall)
        op_tail_ms = nearest_rank(wall, pct)
        if op_tail_ms < op_ms:
            fail(f"op_tail_ms {op_tail_ms} below op_ms {op_ms}: percentile bug")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup.scaled), "unit": "s"},
            "op_ms": {"value": op_ms, "unit": "ms"},
            "op_tail_ms": {"value": op_tail_ms, "unit": "ms"},
            "op_cpu_ms": {"value": statistics.median(runner.scaled_cpu), "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        print(
            f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} ops, "
            f"op_tail_ms is p{pct} of {len(wall)} ops; unscaled: "
            f"setup {statistics.median(setup.raw):.4f} s of {len(setup.raw)} launches, "
            f"median op {statistics.median(runner.wall_ms):.1f} ms"
        )
    for err in runner.errors[:20]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

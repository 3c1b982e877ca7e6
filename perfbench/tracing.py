"""Outside-in tracing of drypend's layers for the benchmark's traced run.

`Tracer.install` rebinds public functions of drypend's modules to wrappers
(and `verification._halton`, which builds every Halton grid), in every
drypend module that imported them by name (so `wazewski.integrate`
and `cli.integrate` are wrapped as well as `integrator.integrate`), and
`Tracer.uninstall` puts the originals back.  Timed runs never install it.

Functions that run for tens of microseconds or more get a span: its name,
start, end, parent span and op id, kept in memory and written out when the
run ends.  Microsecond-scale calls (pivot `accel`, `DenseSegment.eval`,
`stiction_drift_and_bound`, `limit_fields`, `classify_switch`) are only
counted, because timing them would cost more than they do.  Parents are kept
per thread and counts in `itertools.count` objects, whose increments the
interpreter lock makes atomic, so the spans and counts of `family_sweep`'s
worker threads stay exact.
"""

from __future__ import annotations

import collections
import functools
import itertools
import statistics
import threading
import time

import drypend
from drypend import cli, integrator, model, svgplot, verification, wazewski

MODULES = (drypend, model, integrator, wazewski, verification, svgplot, cli)

# span name -> (defining module, function name)
SPANNED = {
    "cli.load": (cli, "load_scenario"),
    "cli.cmd_simulate": (cli, "cmd_simulate"),
    "cli.cmd_shoot": (cli, "cmd_shoot"),
    "cli.cmd_sweep": (cli, "cmd_sweep"),
    "cli.cmd_verify": (cli, "cmd_verify"),
    "svgplot.render": (svgplot, "phase_portrait_svg"),
    "wazewski.bisect": (wazewski, "bisect_curve"),
    "wazewski.classify": (wazewski, "classify_exit"),
    "wazewski.sweep": (wazewski, "family_sweep"),
    "integrator.integrate": (integrator, "integrate"),
    "integrator.step": (integrator, "step_smooth"),
    "integrator.slide": (integrator, "slide_until_release"),
    "integrator.trap": (integrator, "check_escape_trap"),
    "verification.grid": (verification, "_halton"),
    "verification.jump": (verification, "check_jump_inequality"),
    "verification.lipschitz": (verification, "check_one_sided_lipschitz"),
    "verification.dependence": (verification, "check_continuous_dependence"),
    "verification.semicontinuity": (verification, "check_upper_semicontinuity"),
}
COUNTED = {
    "model.stiction": (model, "stiction_drift_and_bound"),
    "model.limit_fields": (model, "limit_fields"),
    "integrator.switch": (integrator, "classify_switch"),
}
# counted methods, patched on the class that defines them
COUNTED_METHODS = {
    "integrator.dense_eval": [(integrator.DenseSegment, "eval")],
    "model.accel": [
        (cls, "accel")
        for cls in (model.ConstantPivot, model.SinePivot, model.PolyPivot, model.TablePivot)
    ],
}

# per-layer metrics in BENCHMARK.json order, with units
PER_LAYER = (
    ("cli.load_ms", "ms"),
    ("cli.emit_ms", "ms"),
    ("svgplot.render_ms", "ms"),
    ("wazewski.classify_calls", "count"),
    ("wazewski.classify_ms", "ms"),
    ("wazewski.sweep_ms", "ms"),
    ("integrator.integrate_calls", "count"),
    ("integrator.integrate_self_ms", "ms"),
    ("integrator.step_calls", "count"),
    ("integrator.step_us", "us"),
    ("integrator.dense_evals_per_step", "count"),
    ("integrator.slide_calls", "count"),
    ("integrator.slide_ms", "ms"),
    ("integrator.switch_calls", "count"),
    ("integrator.trap_ms", "ms"),
    ("integrator.samples", "count"),
    ("model.accel_calls", "count"),
    ("model.accel_per_step", "count"),
    ("model.stiction_calls", "count"),
    ("model.limit_fields_calls", "count"),
    ("verification.grid_ms", "ms"),
    ("verification.jump_ms", "ms"),
    ("verification.lipschitz_ms", "ms"),
    ("verification.dependence_ms", "ms"),
    ("verification.semicontinuity_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)


class Tracer:
    def __init__(self):
        # (span id, parent id, op id, name, start, end); parent 0 is the op
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.op_id = 0
        self.op_counts: dict[int, collections.Counter] = {}
        self._ids = itertools.count(1)
        self._stacks = threading.local()
        self._counters = {
            name: itertools.count() for name in [*COUNTED, *COUNTED_METHODS]
        }
        self._samples: list[int] = []  # len(samples) of each integrate result
        self._undo: list[tuple[object, str, object]] = []
        self._before = (collections.Counter(), 0)

    # -- recording --------------------------------------------------------

    def counts(self) -> collections.Counter:
        """Calls counted since the tracer was made, over all threads."""
        # repr is "count(n)": the number of increments so far
        return collections.Counter(
            {name: int(repr(c)[6:-1]) for name, c in self._counters.items()}
        )

    def begin_op(self):
        self.op_id += 1
        self._before = (self.counts(), len(self._samples))

    def end_op(self):
        counts, n_samples = self._before
        delta = self.counts() - counts
        delta["integrator.samples"] = sum(self._samples[n_samples:])
        self.op_counts[self.op_id] = delta

    def _span_wrapper(self, name: str, fn):
        spans, stacks, ids, clock = self.spans, self._stacks, self._ids, time.perf_counter
        samples = self._samples if name == "integrator.integrate" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stacks.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.op_id, name, t0, t1))
            if samples is not None:
                samples.append(len(out.samples))
            return out

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tick = self._counters[name].__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _rebind(self, original, wrapper):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        for name, (mod, fn_name) in SPANNED.items():
            original = getattr(mod, fn_name)
            self._rebind(original, self._span_wrapper(name, original))
        for name, (mod, fn_name) in COUNTED.items():
            original = getattr(mod, fn_name)
            self._rebind(original, self._count_wrapper(name, original))
        for name, targets in COUNTED_METHODS.items():
            for cls, meth in targets:
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._count_wrapper(name, original))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output -----------------------------------------------------------

    def write(self, path: str):
        with open(path, "w") as fh:
            fh.write("span,parent,op,name,start,end\n")
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(f"{sid},{parent},{op},{name},{t0!r},{t1!r}\n")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, traced_ms, untraced_ms) -> dict:
    """Per-layer metrics from the spans and per-op counts of the traced ops.

    Times are medians, over the ops that enter a layer, of that op's total
    time in it; `classify_ms` and `sweep_ms` are medians per call and
    `step_us` a mean per call.  Counts are means per op, and the `_per_step`
    ratios are totals over totals, so they repeat exactly for one seed.
    """
    op_counts = tracer.op_counts
    n_ops = len(op_counts)
    child_time: dict[int, float] = collections.defaultdict(float)
    for sid, parent, op, name, t0, t1 in tracer.spans:
        child_time[parent] += t1 - t0
    per_op: dict[str, dict[int, float]] = collections.defaultdict(
        lambda: collections.defaultdict(float)
    )
    per_call: dict[str, list[float]] = collections.defaultdict(list)
    for sid, parent, op, name, t0, t1 in tracer.spans:
        if op not in op_counts:
            continue
        dur = t1 - t0
        per_call[name].append(dur)
        per_op[name][op] += dur
        if name.startswith("cli.cmd_"):
            per_op["cli.emit"][op] += dur - child_time[sid]
        elif name == "integrator.integrate":
            per_op["integrator.integrate_self"][op] += dur - child_time[sid]
    total = collections.Counter()
    for c in op_counts.values():
        total.update(c)
    steps = len(per_call["integrator.step"])

    def op_ms(name):
        return 1e3 * _median(list(per_op[name].values()))

    def per_op_count(n):
        return n / n_ops

    def per_step(n):
        return n / steps if steps else 0.0

    values = {
        "cli.load_ms": op_ms("cli.load"),
        "cli.emit_ms": op_ms("cli.emit"),
        "svgplot.render_ms": op_ms("svgplot.render"),
        "wazewski.classify_calls": per_op_count(len(per_call["wazewski.classify"])),
        "wazewski.classify_ms": 1e3 * _median(per_call["wazewski.classify"]),
        "wazewski.sweep_ms": 1e3 * _median(per_call["wazewski.sweep"]),
        "integrator.integrate_calls": per_op_count(len(per_call["integrator.integrate"])),
        "integrator.integrate_self_ms": op_ms("integrator.integrate_self"),
        "integrator.step_calls": per_op_count(steps),
        "integrator.step_us": 1e6 * sum(per_call["integrator.step"]) / steps if steps else 0.0,
        "integrator.dense_evals_per_step": per_step(total["integrator.dense_eval"]),
        "integrator.slide_calls": per_op_count(len(per_call["integrator.slide"])),
        "integrator.slide_ms": op_ms("integrator.slide"),
        "integrator.switch_calls": per_op_count(total["integrator.switch"]),
        "integrator.trap_ms": op_ms("integrator.trap"),
        "integrator.samples": per_op_count(total["integrator.samples"]),
        "model.accel_calls": per_op_count(total["model.accel"]),
        "model.accel_per_step": per_step(total["model.accel"]),
        "model.stiction_calls": per_op_count(total["model.stiction"]),
        "model.limit_fields_calls": per_op_count(total["model.limit_fields"]),
        "verification.grid_ms": op_ms("verification.grid"),
        "verification.jump_ms": op_ms("verification.jump"),
        "verification.lipschitz_ms": op_ms("verification.lipschitz"),
        "verification.dependence_ms": op_ms("verification.dependence"),
        "verification.semicontinuity_ms": op_ms("verification.semicontinuity"),
        "trace.overhead_ms": _median(traced_ms) - _median(untraced_ms),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

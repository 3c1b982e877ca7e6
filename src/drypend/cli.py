"""Command line front end: scenario files in, artifacts out.

Scenario files are single JSON documents.  Every command echoes the fully
defaulted scenario next to its outputs so runs are self-describing, and all
artifacts carry the scenario fingerprint.  Outputs are written atomically.

Exit codes: 0 success / witness found; 2 validation or integration failure;
3 shooting finished inconclusive (bracket at the width floor, no witness).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import count
from typing import NamedTuple

from .model import (
    PIVOT_KINDS,
    ConstantPivot,
    Params,
    PivotLaw,
    PolyPivot,
    SinePivot,
    State,
    energy,
    fingerprint_of,
    pivot_from_dict,
)
from .integrator import _MAX_STEPS, IntegrationError, Tolerances, integrate
from .wazewski import (
    CurveValidationError,
    PreconditionFailed,
    SigmaCurve,
    bisect_curve,
    check_disjoint,
    family_sweep,
    sweep_json,
)


class ParseError(ValueError):
    pass


class ValidationError(ValueError):
    pass


def _number(value, where: str) -> float:
    """`value` as a float; ValidationError naming `where` unless it is a finite
    JSON number (a numeric string such as "inf" is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{where} must be a finite number, got {value}")
    return number


def _numbers(values, where: str) -> list[float]:
    if not isinstance(values, list):
        raise ValidationError(f"{where} must be a list of numbers, got {values!r}")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(values)]


def _config(raw: dict, key: str, config):
    """The named tuple `config` (Params or Tolerances) built from the object
    raw[key], empty if absent; each value is checked by `_number` and kept as
    written, so that an integer stays one in the normalized scenario."""
    fields = raw.get(key, {})
    if not isinstance(fields, dict):
        raise ValidationError(f"{key} must be an object, got {fields!r}")
    for name, value in fields.items():
        _number(value, f"{key}.{name}")
        if name not in config._fields:
            raise ValidationError(f"{key}: unknown field {name!r}")
    try:
        return config(**fields)
    except ValueError as exc:
        raise ValidationError(f"{key}: {exc}") from exc


def _parse_pivot(spec) -> PivotLaw:
    if not isinstance(spec, dict):
        raise ValidationError(f"pivot must be an object, got {spec!r}")
    spec = dict(spec)
    kind = spec.get("kind")
    if isinstance(kind, str) and kind in PIVOT_KINDS:
        _, fields, lists = PIVOT_KINDS[kind]
        for name in fields:
            if name in spec:
                parse = _numbers if name in lists else _number
                spec[name] = parse(spec[name], f"pivot.{name}")
    try:
        return pivot_from_dict(spec)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"pivot: {exc}") from exc


def _check_horizon(pivot: PivotLaw, tolerances: Tolerances, t0: float, horizon: float):
    """The rules that tie fields together.  The run covers [t0, horizon], on
    which the step cap must advance time within the step budget, a sine
    pivot's period exceed the spacing of doubles, and the pivot's bounds,
    which the velocity trap relies on, hold."""
    if not (0 < horizon < math.inf):
        raise ValidationError("horizon must be positive and finite")
    if not (t0 < horizon):
        raise ValidationError(f"initial.t0 = {t0} must be below the horizon {horizon}")
    spacing = math.ulp(max(abs(t0), abs(horizon)))
    if not (tolerances.max_dt > spacing):
        raise ValidationError(
            f"tolerances.max_dt = {tolerances.max_dt} must exceed {spacing}, "
            f"the spacing of doubles near the times of the run"
        )
    if (horizon - t0) / tolerances.max_dt > _MAX_STEPS:
        raise ValidationError(
            f"tolerances.max_dt = {tolerances.max_dt} asks for more than {_MAX_STEPS} "
            f"steps over [{t0}, {horizon}], the most one integration may take"
        )
    if isinstance(pivot, SinePivot) and not abs(pivot.omega) < 2.0 * math.pi / spacing:
        raise ValidationError(
            f"pivot.omega = {pivot.omega} gives the period {2.0 * math.pi / abs(pivot.omega)}, "
            f"which must exceed {spacing}, the spacing of doubles near the times of the run"
        )
    if isinstance(pivot, PolyPivot):
        if t0 < 0:
            raise ValidationError(
                f"initial.t0 = {t0} must not be negative: "
                "a poly pivot's bounds hold only on [0, t_max]"
            )
        if horizon > pivot.t_max:
            raise ValidationError(
                f"pivot.t_max = {pivot.t_max} must cover the horizon {horizon}: "
                "a poly pivot's bounds hold only on [0, t_max]"
            )


class Scenario(NamedTuple):
    """One loaded scenario: its normalized fields and what they build."""

    name: str
    params: Params
    pivot: PivotLaw
    initial: dict  # normalized point or curve spec
    horizon: float
    tolerances: Tolerances
    mode: str  # "closed" | "strict"
    start: State | None = None  # built from a point spec
    family: list[SigmaCurve] | None = None  # built from a curve spec, one per shift

    @property
    def strict(self) -> bool:
        return self.mode == "strict"

    def normalized(self) -> dict:
        return {
            "name": self.name,
            "params": self.params.to_dict(),
            "pivot": self.pivot.to_dict(),
            "initial": self.initial,
            "horizon": self.horizon,
            "tolerances": self.tolerances.to_dict(),
            "mode": self.mode,
        }

    @property
    def fingerprint(self) -> str:
        return fingerprint_of(self.normalized())

    def initial_state(self) -> State:
        if self.start is None:
            raise ValidationError("this command needs a point initial condition")
        return self.start

    def curves(self) -> list[SigmaCurve]:
        if self.family is None:
            raise ValidationError("this command needs a curve initial condition")
        return self.family


_DEFAULT_SIGMA = {"kind": "line", "shift": 0.0}


def _build_curve(spec: dict, shift: float) -> SigmaCurve:
    kind = spec.get("kind")
    try:
        if kind == "line":
            base = _number(spec.get("shift", _DEFAULT_SIGMA["shift"]), "initial.sigma.shift")
            return SigmaCurve.line(shift=base + shift)
        if kind == "table":
            qs = _numbers(spec.get("q"), "initial.sigma.q")
            ps = [v + shift for v in _numbers(spec.get("p"), "initial.sigma.p")]
            name = "table" if shift == 0.0 else f"table{shift:+g}"
            return SigmaCurve.from_table(qs, ps, name=name)
    except CurveValidationError as exc:
        raise ValidationError(str(exc)) from exc
    raise ValidationError(f"unknown curve kind: {kind!r}")


def _build_family(initial: dict) -> tuple[dict, list[SigmaCurve]]:
    """The normalized curve spec and its curves, one per family shift."""
    sigma = initial.get("sigma", dict(_DEFAULT_SIGMA))
    if not isinstance(sigma, dict):
        raise ValidationError(f"initial.sigma must be an object, got {sigma!r}")
    shifts = _numbers(initial.get("family_shifts", [0.0]), "initial.family_shifts")
    if not shifts:
        raise ValidationError("initial.family_shifts must not be empty")
    family = [_build_curve(sigma, shift=s) for s in shifts]
    try:
        check_disjoint(family)
    except CurveValidationError as exc:
        raise ValidationError(f"initial.family_shifts: {exc}") from exc
    return {"kind": "curve", "sigma": sigma, "family_shifts": shifts}, family


def load_scenario(path: str, horizon: float | None = None) -> Scenario:
    """Read, default-fill and validate one scenario file, and build its start
    state or curves; `horizon`, if given, replaces the file's before the
    validation."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError("scenario must be a JSON object")

    name = raw.get("name", os.path.splitext(os.path.basename(path))[0])
    params = _config(raw, "params", Params)
    pivot = _parse_pivot(raw.get("pivot", {"kind": "constant", "a": 0.0}))
    tolerances = _config(raw, "tolerances", Tolerances)

    file_horizon = _number(raw.get("horizon", 50.0), "horizon")
    if horizon is None:
        horizon = file_horizon

    mode = raw.get("mode", "closed")
    if mode not in ("closed", "strict"):
        raise ValidationError(f"mode must be 'closed' or 'strict', got {mode!r}")

    initial = raw.get("initial")
    if not isinstance(initial, dict) or "kind" not in initial:
        raise ValidationError("initial must be an object with a 'kind'")
    start = family = None
    if initial["kind"] == "point":
        norm_initial = {
            "kind": "point",
            "q0": _number(initial.get("q0"), "initial.q0"),
            "p0": _number(initial.get("p0", 0.0), "initial.p0"),
            "t0": _number(initial.get("t0", 0.0), "initial.t0"),
        }
        start = State(q=norm_initial["q0"], p=norm_initial["p0"], t=norm_initial["t0"])
    elif initial["kind"] == "curve":
        norm_initial, family = _build_family(initial)
    else:
        raise ValidationError(f"initial kind must be 'point' or 'curve', got {initial['kind']!r}")

    _check_horizon(pivot, tolerances, start.t if start is not None else 0.0, horizon)
    return Scenario(
        name=name,
        params=params,
        pivot=pivot,
        initial=norm_initial,
        horizon=horizon,
        tolerances=tolerances,
        mode=mode,
        start=start,
        family=family,
    )


# numbers the temporary files of `_write_atomic` within this process
_tmp_ids = count()


def _write_atomic(path: str, data: str):
    """Write `data` to `path` by renaming a finished temporary file onto it.

    The temporary file is made with mode 0o666, so the umask sets the
    artifact's mode as it would for a file opened plainly.
    """
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    while True:
        tmp = os.path.join(d, f".tmp-{os.getpid()}-{next(_tmp_ids)}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:  # left by an earlier process of the same id
            continue
        break
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finite_json(obj):
    """`obj` with each non-finite float written as the string "NaN",
    "Infinity" or "-Infinity", which strict JSON can carry."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return "NaN" if obj != obj else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, dict):
        return {key: _finite_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(value) for value in obj]
    return obj


def _canonical_json(obj) -> str:
    return json.dumps(_finite_json(obj), indent=2, sort_keys=True, allow_nan=False)


def _emit_common(scen: Scenario, out_dir: str):
    _write_atomic(
        os.path.join(out_dir, "scenario.normalized.json"), _canonical_json(scen.normalized())
    )


def cmd_simulate(scen: Scenario, out_dir: str, svg: bool = False) -> int:
    state = scen.initial_state()
    try:
        traj = integrate(state, scen.params, scen.pivot, scen.horizon, scen.tolerances)
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 2
    _emit_common(scen, out_dir)
    _write_atomic(os.path.join(out_dir, "trajectory.csv"), traj.to_csv())
    events = {
        "scenario": scen.name,
        "fingerprint": scen.fingerprint,
        "events": [e.to_dict() for e in traj.events],
    }
    _write_atomic(os.path.join(out_dir, "events.json"), _canonical_json(events))
    if svg:
        from .svgplot import phase_portrait_svg  # loaded only for --svg

        _write_atomic(
            os.path.join(out_dir, "phase.svg"), phase_portrait_svg(traj, title=scen.name)
        )
    if scen.params.mu == 0.0 and isinstance(scen.pivot, ConstantPivot) and scen.pivot.a == 0.0:
        _, q0, p0, _ = traj.samples[0]
        try:
            e0 = energy(scen.params, q0, p0)
            drift = max(abs(energy(scen.params, q, p) - e0) for _, q, p, _ in traj.samples)
            rel = drift / max(abs(e0), 1e-30)
        except OverflowError:  # l ** 2 past the float range
            rel = math.inf
        print(f"energy drift (relative): {rel:.3e}")
    print(f"wrote {len(traj.samples)} samples, {len(traj.events)} events to {out_dir}")
    return 0


def _witness_payload(scen: Scenario, curve: SigmaCurve, result) -> dict:
    return {
        "scenario": scen.name,
        "fingerprint": scen.fingerprint,
        "curve": curve.name,
        **result.to_dict(),
    }


def cmd_shoot(scen: Scenario, out_dir: str) -> int:
    curves = scen.curves()
    if len(curves) > 1:  # a curve family is a sweep in disguise
        return cmd_sweep(scen, out_dir)
    curve = curves[0]
    try:
        result = bisect_curve(
            curve,
            scen.params,
            scen.pivot,
            scen.horizon,
            scen.tolerances,
            strict=scen.strict,
        )
    except (PreconditionFailed, IntegrationError) as exc:
        print(f"shooting failed: {exc}", file=sys.stderr)
        return 2
    _emit_common(scen, out_dir)
    _write_atomic(
        os.path.join(out_dir, "witness.json"), _canonical_json(_witness_payload(scen, curve, result))
    )
    if result.witness is not None:
        w = result.witness
        print(
            f"witness: {w.outcome} from q0={w.q0!r}, p0={w.p0!r} "
            f"over {w.horizon} s ({result.iterations} iterations)"
        )
        return 0
    print(
        f"inconclusive: bracket [{result.bracket[0]!r}, {result.bracket[1]!r}] "
        f"reached the width floor without a witness"
    )
    return 3


def cmd_sweep(scen: Scenario, out_dir: str) -> int:
    entries = family_sweep(
        scen.curves(), scen.params, scen.pivot, scen.horizon, scen.tolerances, strict=scen.strict
    )
    _emit_common(scen, out_dir)
    _write_atomic(os.path.join(out_dir, "sweep.json"), sweep_json(entries))
    found = sum(1 for e in entries if e.result is not None and e.result.witness is not None)
    print(f"{found}/{len(entries)} curves produced a witness")
    return 0 if found == len(entries) else 3


_CHECK_NAMES = ("jump", "lipschitz", "dependence", "semicontinuity")


def cmd_verify(scen: Scenario, out_dir: str, checks: list[str] | None = None) -> int:
    from .verification import run_checks, summary_table

    selected = checks or list(_CHECK_NAMES)
    unknown = [c for c in selected if c not in _CHECK_NAMES]
    if unknown:
        print(f"unknown checks: {', '.join(unknown)}", file=sys.stderr)
        return 2
    try:
        reports = run_checks(
            scen.params,
            scen.pivot,
            scen.start,
            scen.horizon,
            scen.tolerances,
            scen.fingerprint,
            selected,
        )
    except (ArithmeticError, ValueError, IntegrationError) as exc:
        # math.sin of an angle past the float range, an overflowing Lipschitz
        # bound, or an integration that failed
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    _emit_common(scen, out_dir)
    payload = {"scenario": scen.name, "fingerprint": scen.fingerprint}
    _write_atomic(
        os.path.join(out_dir, "verify.json"),
        _canonical_json({**payload, "reports": [r.to_dict() for r in reports]}),
    )
    print(summary_table(reports))
    failed = [r.name for r in reports if not r.passed]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it takes some
    20 times as long as parsing one command line with it."""
    parser = argparse.ArgumentParser(
        prog="drypend",
        description="Friction pendulum simulation, shooting and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "shoot", "sweep", "verify"):
        sp = sub.add_parser(name)
        sp.add_argument("scenario", help="path to a scenario JSON file")
        sp.add_argument("--out", default="out", help="output directory (default: ./out)")
        sp.add_argument("--horizon", type=float, default=None, help="override the horizon (s)")
        sp.add_argument("--strict", action="store_true", help="force strict (open-region) mode")
        if name == "simulate":
            sp.add_argument("--svg", action="store_true", help="also write a phase portrait")
        if name == "verify":
            sp.add_argument(
                "--checks", default=None, help="comma separated subset of: " + ",".join(_CHECK_NAMES)
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        scen = load_scenario(args.scenario, horizon=args.horizon)
    except (ParseError, ValidationError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    if args.strict:
        scen = scen._replace(mode="strict")

    try:
        if args.command == "simulate":
            return cmd_simulate(scen, args.out, svg=args.svg)
        if args.command == "shoot":
            return cmd_shoot(scen, args.out)
        if args.command == "sweep":
            return cmd_sweep(scen, args.out)
        if args.command == "verify":
            checks = args.checks.split(",") if args.checks else None
            return cmd_verify(scen, args.out, checks)
    except ValidationError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())

"""Topological shooting for never-falling trajectories.

The region of interest is G = {0 < q < pi}.  Initial conditions are taken
along a continuous curve p = sigma(q) with sigma(0) < 0 and sigma(pi) > 0,
so the curve's endpoints start on the two exit sets.  Bisection on the
curve parameter then traps an initial condition whose trajectory never
leaves the region: the exit side is a locally constant function of q0
wherever an exit happens, so a sign change of "which side" brackets a
non-exiting solution.

A trajectory that sticks at a boundary angle and never releases counts as
non-falling; a stick-release kicking it back inside resumes classification.
Certification is always over a finite horizon and is reported as such.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .model import (
    SLIPPING,
    STUCK,
    Params,
    PivotLaw,
    State,
    interp,
    linspace,
    real_list,
    stiction_holds,
)
from .integrator import (
    HORIZON,
    REGION_EXIT,
    SIDE_LOW,
    Event,
    IntegrationError,
    Tolerances,
    Trajectory,
    classify_switch,
    integrate,
    reseed,
    slide_until_release,
)

Q_LO = 0.0
Q_HI = math.pi

EXIT_LOW = "exit_low"
EXIT_HIGH = "exit_high"
NON_FALLING = "non_falling"  # the one outcome that certifies a witness


class PreconditionFailed(RuntimeError):
    """The shooting curve's endpoints did not classify to opposite exits."""


class CurveValidationError(ValueError):
    pass


@dataclass(frozen=True)
class SigmaCurve:
    """Continuous initial-condition curve p = sigma(q) over [0, pi].

    Endpoint signs are strict: sigma(0) < 0 and sigma(pi) > 0.  Continuity
    is probed on a uniform grid at construction; the observed slope bound is
    kept for reporting.
    """

    sigma: Callable[[float], float]
    name: str = "curve"
    lipschitz_estimate: float = field(default=0.0, compare=False)

    def __post_init__(self):
        lo = self.sigma(Q_LO)
        hi = self.sigma(Q_HI)
        if not (lo < 0.0):
            raise CurveValidationError(f"sigma endpoint sign: sigma(0) = {lo} must be < 0")
        if not (hi > 0.0):
            raise CurveValidationError(f"sigma endpoint sign: sigma(pi) = {hi} must be > 0")
        qs = linspace(Q_LO, Q_HI, 257)
        vals = [float(self.sigma(q)) for q in qs]
        if not all(math.isfinite(v) for v in vals):
            raise CurveValidationError("sigma must be finite on [0, pi]")
        slopes = [abs(v1 - v0) / (q1 - q0) for q0, q1, v0, v1 in zip(qs, qs[1:], vals, vals[1:])]
        object.__setattr__(self, "lipschitz_estimate", max(slopes))

    def __call__(self, q: float) -> float:
        return float(self.sigma(q))

    @staticmethod
    def line(shift: float = 0.0, name: str | None = None) -> "SigmaCurve":
        """The default curve q - pi/2 + shift; valid for |shift| < pi/2."""
        return SigmaCurve(
            sigma=lambda q, s=shift: q - math.pi / 2 + s,
            name=name or (f"line{shift:+g}" if shift else "line"),
        )

    @staticmethod
    def from_table(qs: Sequence[float], ps: Sequence[float], name: str = "table") -> "SigmaCurve":
        try:
            q_knots = real_list(qs, "curve table q")
            p_knots = real_list(ps, "curve table p")
        except ValueError as exc:
            raise CurveValidationError(str(exc)) from exc
        if len(q_knots) < 2 or len(q_knots) != len(p_knots):
            raise CurveValidationError("curve table needs matching 1-d q/p with >= 2 knots")
        if any(q1 - q0 <= 0 for q0, q1 in zip(q_knots, q_knots[1:])):
            raise CurveValidationError("curve table q values must be strictly increasing")
        if not (q_knots[0] <= Q_LO and q_knots[-1] >= Q_HI):
            raise CurveValidationError("curve table must cover [0, pi]")
        return SigmaCurve(sigma=lambda q: interp(q, q_knots, p_knots), name=name)


@dataclass
class ExitReport:
    """Classification of one trajectory against the region G."""

    outcome: str
    q0: float
    p0: float
    t0: float
    horizon: float
    strict: bool
    exit_event: Event | None
    trajectory: Trajectory
    stuck_q: float | None = None
    min_boundary_distance: float | None = None

    @property
    def trajectory_ref(self) -> str:
        return self.trajectory.params_fingerprint

    @property
    def is_witness(self) -> bool:
        return self.outcome == NON_FALLING

    def to_dict(self) -> dict:
        d = {
            "outcome": self.outcome,
            "q0": self.q0,
            "p0": self.p0,
            "t0": self.t0,
            "horizon": self.horizon,
            "strict": self.strict,
            "trajectory_ref": self.trajectory_ref,
        }
        if self.exit_event is not None:
            d["exit_event"] = self.exit_event.to_dict()
        if self.stuck_q is not None:
            d["stuck_q"] = self.stuck_q
        if self.min_boundary_distance is not None:
            d["min_boundary_distance"] = self.min_boundary_distance
        return d


def _merge(dst: Trajectory, src: Trajectory):
    if not dst.samples:
        dst.params_fingerprint = src.params_fingerprint
    dst.samples.extend(src.samples if not dst.samples else src.samples[1:])
    dst.events.extend(src.events)
    dst.recorded.extend(src.recorded)


def _survival_report(q0, p0, t0, horizon, strict, traj) -> ExitReport:
    final = traj.final
    stuck_q = final.q if final.mode == STUCK else None
    return ExitReport(
        outcome=NON_FALLING,
        q0=q0,
        p0=p0,
        t0=t0,
        horizon=horizon,
        strict=strict,
        exit_event=None,
        trajectory=traj,
        stuck_q=stuck_q,
        min_boundary_distance=min(min(q - Q_LO, Q_HI - q) for _, q, _, _ in traj.samples),
    )


def classify_exit(
    q0: float,
    curve: SigmaCurve,
    params: Params,
    pivot: PivotLaw,
    horizon: float,
    tol: Tolerances = Tolerances(),
    strict: bool = False,
    t0: float = 0.0,
) -> ExitReport:
    """Integrate from (q0, sigma(q0)) and classify how the region is left.

    In strict mode any contact with q = 0 or q = pi is an exit.  Otherwise
    the closed-region semantics apply: an exit at a boundary angle needs
    genuinely outward motion (p beyond the stick band, or a stick that
    releases outward); a boundary stick that holds to the horizon counts as
    non-falling, and an inward release resumes integration inside.
    """
    if not (Q_LO <= q0 <= Q_HI):
        raise ValueError(f"q0 = {q0} outside [0, pi]")
    p0 = curve(q0)
    merged = Trajectory()
    state = State(q=q0, p=p0, t=t0, mode=SLIPPING)

    def exited(side: str, event: Event) -> ExitReport:
        outcome = EXIT_LOW if side == SIDE_LOW else EXIT_HIGH
        return ExitReport(outcome, q0, p0, t0, horizon, strict, event, merged)

    for _ in range(64):  # corner re-entries are physically scarce
        traj = integrate(state, params, pivot, horizon, tol, region_guard=(Q_LO, Q_HI))
        _merge(merged, traj)
        last = traj.events[-1] if traj.events else None
        if last is None or last.kind != REGION_EXIT:
            return _survival_report(q0, p0, t0, horizon, strict, merged)

        side = last.side
        exit_state = traj.final
        # an exit, unless closed-region corner handling applies: p inside the stick band
        if strict or abs(exit_state.p) > tol.stick_band:
            return exited(side, last)
        q_b = Q_LO if side == SIDE_LOW else Q_HI
        t_b = exit_state.t
        outward = -1 if side == SIDE_LOW else 1
        if bool(stiction_holds(params, pivot, q_b, t_b)):
            stuck = State(q=q_b, p=0.0, t=t_b, mode=STUCK)
            released, ev = slide_until_release(stuck, params, pivot, horizon, tol)
            merged.append(released.t, q_b, 0.0, STUCK)
            merged.events.append(ev)
            if ev.kind == HORIZON:
                return _survival_report(q0, p0, t0, horizon, strict, merged)
            if ev.direction == outward:
                return exited(side, Event(t=released.t, q=q_b, kind=REGION_EXIT, side=side))
            state = reseed(q_b, released.t, ev.direction, tol)
        else:
            # no stiction at the corner: both limit fields point one way
            direction = classify_switch(params, pivot, q_b, t_b)
            if direction == outward:
                return exited(side, last)
            state = reseed(q_b, t_b, direction, tol)
        if state.t >= horizon:
            return _survival_report(q0, p0, t0, horizon, strict, merged)
    raise IntegrationError("corner re-entry count exceeded; tolerances suspect")


@dataclass(frozen=True)
class HistoryEntry:
    q0: float
    outcome: str
    exit_event: Event | None
    exit_p: float | None  # velocity at the exit sample, for corner audits


@dataclass
class BisectionResult:
    bracket: tuple[float, float]
    witness: ExitReport | None
    iterations: int
    history: list[HistoryEntry]
    low_report: ExitReport
    high_report: ExitReport

    @property
    def inconclusive(self) -> bool:
        return self.witness is None

    def to_dict(self) -> dict:
        return {
            "bracket": list(self.bracket),
            "iterations": self.iterations,
            "inconclusive": self.inconclusive,
            "witness": self.witness.to_dict() if self.witness else None,
        }


WIDTH_LIMIT = 1e-12  # rad; below this double precision cannot split the curve
MAX_BISECTIONS = 80  # halvings of the pi-wide bracket; 42 reach WIDTH_LIMIT


def bisect_curve(
    curve: SigmaCurve,
    params: Params,
    pivot: PivotLaw,
    horizon: float,
    tol: Tolerances = Tolerances(),
    strict: bool = False,
    t0: float = 0.0,
) -> BisectionResult:
    """Shrink an ExitLow/ExitHigh bracket on the curve until a witness shows.

    The endpoints are re-verified first (PreconditionFailed otherwise).  The
    bracket invariant - low end exits low, high end exits high - is kept at
    every iteration; the search stops at a non-falling witness, at the
    1e-12 rad width floor, or after MAX_BISECTIONS.  An empty witness with the
    floor reached is reported as inconclusive, never asserted: finite
    precision cannot certify membership at an isolated non-falling point.
    """

    def classify(q0: float) -> ExitReport:
        return classify_exit(q0, curve, params, pivot, horizon, tol, strict=strict, t0=t0)

    def entry(report: ExitReport) -> HistoryEntry:
        exit_p = report.trajectory.final.p if report.exit_event is not None else None
        return HistoryEntry(report.q0, report.outcome, report.exit_event, exit_p)

    low_report = classify(Q_LO)
    high_report = classify(Q_HI)
    history = [entry(low_report), entry(high_report)]
    if low_report.outcome != EXIT_LOW or high_report.outcome != EXIT_HIGH:
        raise PreconditionFailed(
            f"curve endpoints classify to ({low_report.outcome}, {high_report.outcome}); "
            "need (exit_low, exit_high)"
        )

    q_lo, q_hi = Q_LO, Q_HI
    witness = None
    iterations = 0
    for _ in range(MAX_BISECTIONS):
        if q_hi - q_lo <= WIDTH_LIMIT:
            break
        mid = 0.5 * (q_lo + q_hi)
        report = classify(mid)
        iterations += 1
        history.append(entry(report))
        if report.is_witness:
            witness = report
            break
        if report.outcome == EXIT_LOW:
            q_lo = mid
        else:
            q_hi = mid
    return BisectionResult(
        bracket=(q_lo, q_hi),
        witness=witness,
        iterations=iterations,
        history=history,
        low_report=low_report,
        high_report=high_report,
    )


def recheck_witness(
    result_or_report,
    curve: SigmaCurve,
    params: Params,
    pivot: PivotLaw,
    tol: Tolerances = Tolerances(),
    factor: float = 10.0,
) -> ExitReport:
    """Re-integrate a witness at tightened tolerances; the region membership
    must survive for the report to stand."""
    report = result_or_report.witness if isinstance(result_or_report, BisectionResult) else result_or_report
    if report is None or not report.is_witness:
        raise ValueError("no witness to recheck")
    tight = tol.scaled(factor)
    return classify_exit(
        report.q0, curve, params, pivot, report.horizon, tight, strict=report.strict, t0=report.t0
    )


def check_disjoint(curves: Sequence[SigmaCurve], n: int = 257) -> None:
    """CurveValidationError unless no two curves meet on n points of [0, pi]."""
    qs = linspace(Q_LO, Q_HI, n)
    tables = [[c(q) for q in qs] for c in curves]
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            diff = [a - b for a, b in zip(tables[i], tables[j])]
            if min(map(abs, diff)) == 0.0 or min(diff) < 0.0 < max(diff):
                raise CurveValidationError(
                    f"curves {curves[i].name!r} and {curves[j].name!r} intersect on [0, pi]"
                )


@dataclass
class SweepEntry:
    curve: SigmaCurve
    result: BisectionResult | None
    error: str | None = None


def family_sweep(
    curves: Sequence[SigmaCurve],
    params: Params,
    pivot: PivotLaw,
    horizon: float,
    tol: Tolerances = Tolerances(),
    strict: bool = False,
) -> list[SweepEntry]:
    """Run bisect_curve over a family of pairwise non-intersecting curves.

    Distinct curves yield distinct witnesses because a witness's (q0, p0)
    lies on its own curve.  Per-curve failures are collected, not raised, so
    one bad curve cannot abort the sweep.
    """
    check_disjoint(curves)

    entries = []
    for c in curves:
        try:
            result = bisect_curve(c, params, pivot, horizon, tol, strict=strict)
        except (PreconditionFailed, IntegrationError) as exc:
            entries.append(SweepEntry(curve=c, result=None, error=f"{type(exc).__name__}: {exc}"))
        else:
            entries.append(SweepEntry(curve=c, result=result))
    return entries


def sweep_json(entries: Sequence[SweepEntry]) -> str:
    out = []
    for e in entries:
        d = {"curve": e.curve.name}
        if e.result is not None:
            d.update(e.result.to_dict())
        if e.error is not None:
            d["error"] = e.error
        out.append(d)
    return json.dumps(out, indent=2)

"""Topological shooting for never-falling trajectories.

The region of interest is G = {0 < q < pi}.  Initial conditions are taken
along a continuous curve p = sigma(q) with sigma(0) < 0 and sigma(pi) > 0,
so the curve's endpoints start on the two exit sets.  Bisection on the
curve parameter then traps an initial condition whose trajectory never
leaves the region: the exit side is a locally constant function of q0
wherever an exit happens, so a sign change of "which side" brackets a
non-exiting solution.

A trajectory that sticks at a boundary angle and never releases counts as
non-falling; one that releases there falls.  Certification is always over a
finite horizon and is reported as such.
"""

from __future__ import annotations

import json
import math
from typing import Callable, NamedTuple, Sequence

from .model import (
    SLIPPING,
    STUCK,
    Params,
    PivotLaw,
    PolyPivot,
    State,
    interp,
    linspace,
    real_list,
)
from .integrator import (
    HORIZON,
    REGION_EXIT,
    SIDE_HIGH,
    SIDE_LOW,
    Event,
    IntegrationError,
    Tolerances,
    Trajectory,
    classify_switch,
    integrate,
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


class SigmaCurve:
    """Continuous initial-condition curve p = sigma(q) over [0, pi].

    Endpoint signs are strict: sigma(0) < 0 and sigma(pi) > 0, and sigma
    must be finite on a uniform grid of [0, pi], probed at construction.
    """

    __slots__ = ("sigma", "name")

    def __init__(self, sigma: Callable[[float], float], name: str = "curve"):
        lo = sigma(Q_LO)
        hi = sigma(Q_HI)
        if not (lo < 0.0):
            raise CurveValidationError(f"sigma endpoint sign: sigma(0) = {lo} must be < 0")
        if not (hi > 0.0):
            raise CurveValidationError(f"sigma endpoint sign: sigma(pi) = {hi} must be > 0")
        if not all(math.isfinite(float(sigma(q))) for q in linspace(Q_LO, Q_HI, 257)):
            raise CurveValidationError("sigma must be finite on [0, pi]")
        self.sigma = sigma
        self.name = name

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


class ExitReport(NamedTuple):
    """Classification of one trajectory against the region G.

    `exit_event` is the RegionExit event of an exit: on the boundary, or
    at the release time of a boundary stick, or, without friction, where
    the exit became certain (`_certain_exit`), inside G; the trajectory's
    last sample lies there too.
    """

    outcome: str
    q0: float
    p0: float
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
            "t0": 0.0,  # shooting starts every trajectory at t = 0
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


def _survival_report(q0, p0, horizon, strict, traj) -> ExitReport:
    final = traj.final
    stuck_q = final.q if final.mode == STUCK else None
    return ExitReport(
        outcome=NON_FALLING,
        q0=q0,
        p0=p0,
        horizon=horizon,
        strict=strict,
        exit_event=None,
        trajectory=traj,
        stuck_q=stuck_q,
        min_boundary_distance=min(min(q - Q_LO, Q_HI - q) for _, q, _, _ in traj.samples),
    )


# the certain-exit test's margin on p^2/2, relative to the size of its
# terms: it covers their rounding and the integrator's error on the rest
# of the descent
_CERTAIN_SLACK = 1e-6


def _certain_exit(params: Params, pivot: PivotLaw, horizon: float, tol: Tolerances):
    """The test `certain_exit(t, q, p)` that `integrate` asks at each step's
    end: the side on which the frictionless motion from (t, q, p) in G
    provably leaves G before the horizon, or None.  There is no test (None)
    with friction, which can stick the motion before the boundary, without a
    finite bound A of |a(t)|, or for a poly law, whose bound covers only
    [0, t_max], when the horizon lies past t_max.

    On G the field is p' = (a sin q - g cos q)/l <= (A sin q - g cos q)/l,
    and d(p^2/2)/dq = p'.  So along a descent (p < 0) from q down to 0,
    p^2/2 falls by at most F(q) - F(q_c) where q > q_c, and not at all
    where q <= q_c, with F(u) = -(A cos u + g sin u)/l and q_c = atan(g/A)
    its minimum; the worst case is the constant law a = A.  If p^2/2 less
    that loss and the slack `_CERTAIN_SLACK` leaves e > 0, |p| stays >= sqrt(2e) all
    the way down, and q reaches 0 by t + q/sqrt(2e).  The high side is the
    mirror image (q -> pi - q, p -> -p, worst case a = -A).  The test also
    asks sqrt(2e) > stick_band: the motion then reaches the boundary off
    the stick band, where the corner rule of `classify_exit` does not
    apply, so the exit counts on that side as it would on the boundary.
    """
    if params.mu != 0.0 or (isinstance(pivot, PolyPivot) and horizon > pivot.t_max):
        return None
    a_max = pivot.accel_bound
    if not math.isfinite(a_max):
        return None
    l, g = params.l, params.g
    f_c = math.hypot(a_max, g)  # -l F(q_c)
    q_c = math.atan2(g, a_max)
    scale = (a_max + g) / l
    floor = 0.5 * tol.stick_band ** 2
    cos, sin, sqrt = math.cos, math.sin, math.sqrt

    def certain_exit(t: float, q: float, p: float) -> str | None:
        if p < 0.0:
            u, side = q, SIDE_LOW
        elif p > 0.0:
            u, side = Q_HI - q, SIDE_HIGH
        else:
            return None
        e = 0.5 * p * p
        e -= _CERTAIN_SLACK * (e + scale)
        if u > q_c:
            e -= (f_c - a_max * cos(u) - g * sin(u)) / l
        if e > floor and t + u / sqrt(2.0 * e) < horizon:
            return side
        return None

    return certain_exit


def classify_exit(
    q0: float,
    curve: SigmaCurve,
    params: Params,
    pivot: PivotLaw,
    horizon: float,
    tol: Tolerances = Tolerances(),
    strict: bool = False,
) -> ExitReport:
    """Integrate from (q0, sigma(q0)) at t = 0 and classify how the region is left.

    In strict mode any contact with q = 0 or q = pi is an exit.  Otherwise
    the closed-region semantics apply: an exit at a boundary angle with p
    inside the stick band is decided by the stick/cross rule there.  A stick
    that holds to the horizon counts as non-falling, and one that releases
    is an exit at the release time.  Motion that turns back inside from the
    boundary raises IntegrationError: the drift points outward at q = 0,
    and at q = fl(pi) unless a < -g / sin(fl(pi)), about -8e16 for g = 9.8.

    Without friction the integration ends at the first step's end from
    which the motion provably leaves G on one side before the horizon
    (`_certain_exit`), with |p| off the stick band at the boundary, and
    that is the exit: its event and last sample lie there, inside G.  The
    outcome and the side are those the integration to the boundary gives.
    """
    if not (Q_LO <= q0 <= Q_HI):
        raise ValueError(f"q0 = {q0} outside [0, pi]")
    p0 = curve(q0)
    start = State(q=q0, p=p0, t=0.0, mode=SLIPPING)
    traj = integrate(
        start, params, pivot, horizon, tol, region_guard=(Q_LO, Q_HI),
        certain_exit=_certain_exit(params, pivot, horizon, tol),
    )
    last = traj.events[-1]
    if last.kind != REGION_EXIT:
        return _survival_report(q0, p0, horizon, strict, traj)

    side = last.side
    exit_state = traj.final
    # an exit, unless closed-region corner handling applies: p inside the stick band
    if not (strict or abs(exit_state.p) > tol.stick_band):
        q_b = Q_LO if side == SIDE_LOW else Q_HI
        t_b = exit_state.t
        direction = classify_switch(params, pivot, q_b, t_b)
        if direction == 0:
            stuck = State(q=q_b, p=0.0, t=t_b, mode=STUCK)
            ev = slide_until_release(stuck, params, pivot, horizon, tol)
            traj.append(ev.t, q_b, 0.0, STUCK)
            traj.events.append(ev)
            if ev.kind == HORIZON:
                return _survival_report(q0, p0, horizon, strict, traj)
            t_b, direction = ev.t, ev.direction
            last = Event(t=t_b, q=q_b, kind=REGION_EXIT, side=side)
        if direction != (-1 if side == SIDE_LOW else 1):
            raise IntegrationError(
                f"the motion turns back inside from the boundary q = {q_b!r} at t = {t_b!r}"
            )
    outcome = EXIT_LOW if side == SIDE_LOW else EXIT_HIGH
    return ExitReport(outcome, q0, p0, horizon, strict, last, traj)


class HistoryEntry(NamedTuple):
    q0: float
    outcome: str
    exit_event: Event | None
    # velocity at the exit sample, for corner audits: on the boundary, or
    # for a frictionless exit where it became certain, inside G
    exit_p: float | None


class BisectionResult(NamedTuple):
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
        return classify_exit(q0, curve, params, pivot, horizon, tol, strict=strict)

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
    report: ExitReport,
    curve: SigmaCurve,
    params: Params,
    pivot: PivotLaw,
    tol: Tolerances = Tolerances(),
) -> ExitReport:
    """Re-integrate a witness at tolerances 10 times tighter; the region
    membership must survive for the report to stand."""
    if not report.is_witness:
        raise ValueError("no witness to recheck")
    return classify_exit(
        report.q0, curve, params, pivot, report.horizon, tol.scaled(10.0), strict=report.strict
    )


def check_disjoint(curves: Sequence[SigmaCurve]) -> None:
    """CurveValidationError unless no two curves meet on 257 points of [0, pi]."""
    qs = linspace(Q_LO, Q_HI, 257)
    tables = [[c(q) for q in qs] for c in curves]
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            diff = [a - b for a, b in zip(tables[i], tables[j])]
            if min(map(abs, diff)) == 0.0 or min(diff) < 0.0 < max(diff):
                raise CurveValidationError(
                    f"curves {curves[i].name!r} and {curves[j].name!r} intersect on [0, pi]"
                )


class SweepEntry(NamedTuple):
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

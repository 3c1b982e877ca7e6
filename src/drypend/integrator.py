"""Event-driven time stepping for the friction pendulum.

Between events the slipping field is smooth, so it is advanced with an
embedded Dormand-Prince 5(4) pair whose quartic dense output doubles as the
event interpolant.  The friction sign is frozen per step (the smooth
extension of the current branch), steps are cut at roots of p so that no
accepted step straddles the switching surface, and the surface itself is
handled by classifying the one-sided limit fields: either the trajectory
crosses and is re-seeded on the far side, or it sticks and time is advanced
analytically at fixed angle until static friction is defeated.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple, Sequence

from .model import (
    SLIPPING,
    STUCK,
    Params,
    PivotLaw,
    State,
    branch_field,
    fingerprint_of,
    limit_fields,
    p_star,
    stiction_drift_and_bound,
    stiction_holds,
)

# Event kinds
CROSSING = "crossing"
STICK_ENTRY = "stick_entry"
STICK_RELEASE = "stick_release"
HORIZON = "horizon"
REGION_EXIT = "region_exit"

SIDE_LOW = "low"
SIDE_HIGH = "high"


class IntegrationError(RuntimeError):
    pass


class StepUnderflow(IntegrationError):
    """Required step fell below 1e-14 s; the problem is pathologically stiff
    for this explicit scheme or the tolerances are inconsistent."""


class ChatterLimit(IntegrationError):
    """More than the allowed number of events; tolerances almost certainly
    misconfigured (stick band too small relative to event width)."""


class TrapViolation(IntegrationError):
    """A produced trajectory violated the velocity trap |p| <= p_star."""


@dataclass(frozen=True)
class Tolerances:
    """Step-size and event-localization controls.

    stick_band is the |p| half-width inside which a state is considered to
    be on the switching surface; it must dominate abs_tol by a safe margin
    so that projection onto p = 0 never fights the error control.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    event_tol: float = 1e-10
    stick_band: float = 1e-8
    max_dt: float = 0.05

    def __post_init__(self):
        for name, value in self.to_dict().items():
            if not (value > 0):
                raise ValueError(f"{name} must be strictly positive")
        if self.stick_band < 10 * self.abs_tol:
            raise ValueError("stick_band must be at least 10 * abs_tol")

    def scaled(self, factor: float) -> "Tolerances":
        """Same controls with every tolerance but the step cap `max_dt`
        tightened by `factor`."""
        tightened = {name: value / factor for name, value in self.to_dict().items()}
        tightened["max_dt"] = self.max_dt
        return replace(self, **tightened)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Event:
    t: float
    q: float
    kind: str
    direction: int | None = None  # crossing / stick_release: sign of p after
    side: str | None = None  # region_exit: "low" | "high"

    def to_dict(self) -> dict:
        d = {"t": self.t, "q": self.q, "kind": self.kind}
        if self.direction is not None:
            d["direction"] = self.direction
        if self.side is not None:
            d["side"] = self.side
        return d


@dataclass
class Trajectory:
    """Time-ordered samples plus the switching events that separate them."""

    samples: list[tuple[float, float, float, str]] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    params_fingerprint: str = ""
    recorded: list[State] = field(default_factory=list)

    def append(self, t: float, q: float, p: float, mode: str):
        self.samples.append((t, q, p, mode))

    # numpy arrays, for array code; the commands read `samples`
    @property
    def t(self):
        import numpy as np

        return np.array([s[0] for s in self.samples])

    @property
    def q(self):
        import numpy as np

        return np.array([s[1] for s in self.samples])

    @property
    def p(self):
        import numpy as np

        return np.array([s[2] for s in self.samples])

    @property
    def final(self) -> State:
        t, q, p, mode = self.samples[-1]
        return State(q=q, p=p, t=t, mode=mode)

    def to_csv(self) -> str:
        rows = [f"{t!r},{q!r},{p!r},{mode}\n" for t, q, p, mode in self.samples]
        return "t,q,p,mode\n" + "".join(rows)

    @staticmethod
    def read_csv(fh) -> "Trajectory":
        header = fh.readline().strip()
        if header != "t,q,p,mode":
            raise ValueError(f"unexpected trajectory header: {header!r}")
        traj = Trajectory()
        for line in fh:
            if not line.strip():
                continue
            t, q, p, mode = line.strip().split(",")
            traj.append(float(t), float(q), float(p), mode)
        return traj

    def events_json(self) -> str:
        return json.dumps([e.to_dict() for e in self.events], indent=2)


# --- Dormand-Prince 5(4) tableau with quartic dense output -----------------

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# difference between the 5th and 4th order weights (7 entries; last is the
# FSAL stage evaluated at the step end)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

# the tableau entries by name, for the written-out stages below
(_A10,), (_A20, _A21), (_A30, _A31, _A32), (_A40, _A41, _A42, _A43), (
    _A50, _A51, _A52, _A53, _A54
) = _A[1:]
_C1, _C2, _C3, _C4, _C5 = _C[1:]
_B0, _B1, _B2, _B3, _B4, _B5 = _B
_E0, _E1, _E2, _E3, _E4, _E5, _E6 = _E
# the dense-output weights column by column (one column per power of theta)
_P_COLS = tuple(zip(*_P))

_MIN_STEP = 1e-14
_MAX_EVENTS = 10 ** 6

# An event scan is skipped only when the Bernstein coefficients of the
# interpolant clear the event level by this multiple of the summed term
# magnitudes.  That margin is about 1e4 times the rounding of both the
# coefficients and of any value the scan itself would compute, so a skipped
# scan is one that could not have found a sign change.  The absolute floor
# covers the rounding of subnormal terms.
_EXCLUSION_SLACK = 1e-12
_EXCLUSION_FLOOR = 1e-300


class DenseSegment(NamedTuple):
    """Quartic interpolant of one accepted step on [t0, t0 + h]."""

    t0: float
    h: float
    q0: float
    p0: float
    cq: tuple[float, float, float, float]
    cp: tuple[float, float, float, float]

    def eval(self, theta: float) -> tuple[float, float]:
        th = theta
        c0, c1, c2, c3 = self.cq
        d0, d1, d2, d3 = self.cp
        # Horner in theta, highest power first, from an accumulator of 0.0
        acc_q = (((0.0 * th + c3) * th + c2) * th + c1) * th + c0
        acc_p = (((0.0 * th + d3) * th + d2) * th + d1) * th + d0
        hth = self.h * th
        return self.q0 + hth * acc_q, self.p0 + hth * acc_p

    def eval_at(self, t: float) -> tuple[float, float]:
        return self.eval((t - self.t0) / self.h)


def _rk_step(f, t: float, q: float, p: float, h: float, kq0: float, kp0: float):
    """One DOPRI5 step from the first stage (kq0, kp0) = f(t, q, p).

    Returns (q1, p1, err_q, err_p, K).  The last stage of K is the field at
    the step end, which the next step may reuse as its first (FSAL).  Every
    sum is written out in the order of the tableau, zero weights included,
    so the arithmetic is that of a loop over the tableau.
    """
    w0 = h * _A10
    kq1, kp1 = f(t + _C1 * h, q + w0 * kq0, p + w0 * kp0)
    w0, w1 = h * _A20, h * _A21
    kq2, kp2 = f(t + _C2 * h, q + w0 * kq0 + w1 * kq1, p + w0 * kp0 + w1 * kp1)
    w0, w1, w2 = h * _A30, h * _A31, h * _A32
    kq3, kp3 = f(
        t + _C3 * h,
        q + w0 * kq0 + w1 * kq1 + w2 * kq2,
        p + w0 * kp0 + w1 * kp1 + w2 * kp2,
    )
    w0, w1, w2, w3 = h * _A40, h * _A41, h * _A42, h * _A43
    kq4, kp4 = f(
        t + _C4 * h,
        q + w0 * kq0 + w1 * kq1 + w2 * kq2 + w3 * kq3,
        p + w0 * kp0 + w1 * kp1 + w2 * kp2 + w3 * kp3,
    )
    w0, w1, w2, w3, w4 = h * _A50, h * _A51, h * _A52, h * _A53, h * _A54
    kq5, kp5 = f(
        t + _C5 * h,
        q + w0 * kq0 + w1 * kq1 + w2 * kq2 + w3 * kq3 + w4 * kq4,
        p + w0 * kp0 + w1 * kp1 + w2 * kp2 + w3 * kp3 + w4 * kp4,
    )
    w0, w1, w2, w3, w4, w5 = h * _B0, h * _B1, h * _B2, h * _B3, h * _B4, h * _B5
    q1 = q + w0 * kq0 + w1 * kq1 + w2 * kq2 + w3 * kq3 + w4 * kq4 + w5 * kq5
    p1 = p + w0 * kp0 + w1 * kp1 + w2 * kp2 + w3 * kp3 + w4 * kp4 + w5 * kp5
    kq6, kp6 = f(t + h, q1, p1)
    err_q = (
        0.0 + _E0 * kq0 + _E1 * kq1 + _E2 * kq2 + _E3 * kq3 + _E4 * kq4 + _E5 * kq5 + _E6 * kq6
    )
    err_p = (
        0.0 + _E0 * kp0 + _E1 * kp1 + _E2 * kp2 + _E3 * kp3 + _E4 * kp4 + _E5 * kp5 + _E6 * kp6
    )
    kq = (kq0, kq1, kq2, kq3, kq4, kq5, kq6)
    kp = (kp0, kp1, kp2, kp3, kp4, kp5, kp6)
    return q1, p1, h * err_q, h * err_p, (kq, kp)


def _dense_coeffs(kq, kp) -> tuple[tuple, tuple]:
    kq0, kq1, kq2, kq3, kq4, kq5, kq6 = kq
    kp0, kp1, kp2, kp3, kp4, kp5, kp6 = kp
    cq = []
    cp = []
    for w0, w1, w2, w3, w4, w5, w6 in _P_COLS:
        cq.append(
            0.0 + kq0 * w0 + kq1 * w1 + kq2 * w2 + kq3 * w3 + kq4 * w4 + kq5 * w5 + kq6 * w6
        )
        cp.append(
            0.0 + kp0 * w0 + kp1 * w1 + kp2 * w2 + kp3 * w3 + kp4 * w4 + kp5 * w5 + kp6 * w6
        )
    return tuple(cq), tuple(cp)


def _bernstein_bounds(x0: float, h: float, c, theta_max: float):
    """Enclosure of x(th) = x0 + h*th*(c0 + c1 th + c2 th^2 + c3 th^3) on [0, theta_max].

    Returns (lo, hi, mag): the least and the greatest Bernstein coefficient
    of the quartic on that interval, between which it stays (convex hull
    property), and the sum of the magnitudes of its power-basis terms there,
    which bounds the rounding error of both.
    """
    s = h * theta_max
    b1 = s * c[0]
    s *= theta_max
    b2 = s * c[1]
    s *= theta_max
    b3 = s * c[2]
    s *= theta_max
    b4 = s * c[3]
    x1 = x0 + 0.25 * b1
    x2 = x0 + 0.5 * b1 + b2 / 6.0
    x3 = x0 + 0.75 * b1 + 0.5 * b2 + 0.25 * b3
    x4 = x0 + b1 + b2 + b3 + b4
    mag = abs(x0) + abs(b1) + abs(b2) + abs(b3) + abs(b4)
    return min(x0, x1, x2, x3, x4), max(x0, x1, x2, x3, x4), mag


def _error_norm(err_q, err_p, q0, p0, q1, p1, tol: Tolerances) -> float:
    sq = tol.abs_tol + tol.rel_tol * max(abs(q0), abs(q1))
    sp = tol.abs_tol + tol.rel_tol * max(abs(p0), abs(p1))
    return math.sqrt(0.5 * ((err_q / sq) ** 2 + (err_p / sp) ** 2))


def _initial_step(q: float, p: float, dq: float, dp: float, tol: Tolerances) -> float:
    """Hairer-style starting step: scale off the field magnitude (dq, dp) at t0."""
    d0 = math.hypot(q, p)
    d1 = math.hypot(dq, dp)
    scale = tol.abs_tol + tol.rel_tol * max(d0, 1.0)
    if d1 <= 1e-12:
        h = tol.max_dt
    else:
        h = 0.01 * scale ** 0.2 / max(d1, 1e-12) ** 0.2
        h = min(h, 0.1 * (1.0 + d0) / d1)
    return max(min(h, tol.max_dt), _MIN_STEP * 10)


class StepResult(NamedTuple):
    state: State
    segment: DenseSegment
    h_used: float
    h_next: float
    hit_switch: bool
    # ((t, q, p, branch), (dq, dp)): the field at the end of a full step,
    # for step_smooth to reuse as the first stage of the next one
    fsal: tuple | None = None


def _poly_first_sign_change(seg: DenseSegment, theta_max: float = 1.0):
    """Smallest theta in (0, theta_max] where the dense p changes sign, or None.

    The quartic is scanned on a fixed subdivision; a transversal root cannot
    hide between scan points at the scales the step controller allows, and a
    grazing double root is caught later by the stick-band projection.  The
    scan is skipped when the Bernstein coefficients of p on [0, theta_max]
    all share one sign with room for rounding, since then no scan point can
    change sign.
    """
    lo, hi, mag = _bernstein_bounds(seg.p0, seg.h, seg.cp, theta_max)
    slack = _EXCLUSION_SLACK * mag + _EXCLUSION_FLOOR
    if lo > slack or hi < -slack:
        return None
    n = 16
    prev_theta = 0.0
    prev_p = seg.p0
    for i in range(1, n + 1):
        th = theta_max * i / n
        _, p = seg.eval(th)
        if p == 0.0 or (p > 0) != (prev_p > 0):
            return prev_theta, th
        prev_theta, prev_p = th, p
    return None


def _bisect_switch(seg: DenseSegment, tol: Tolerances, bracket) -> tuple[float, float, float]:
    """Bisect the dense interpolant for the p = 0 point inside `bracket`.

    Returns (t, q, p) with |p| <= stick_band / 10 and the time window
    narrowed below event_tol.
    """
    lo, hi = bracket
    _, p_lo = seg.eval(lo)
    target = tol.stick_band / 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        _, p_mid = seg.eval(mid)
        if (p_mid > 0) == (p_lo > 0) and p_mid != 0.0:
            lo, p_lo = mid, p_mid
        else:
            hi = mid
        if (hi - lo) * abs(seg.h) <= tol.event_tol:
            _, p_here = seg.eval(hi)
            if abs(p_here) <= target:
                break
    theta = hi
    q, p = seg.eval(theta)
    return seg.t0 + theta * seg.h, q, p


def step_smooth(
    state: State,
    params: Params,
    pivot: PivotLaw,
    tol: Tolerances,
    h: float | None = None,
    t_limit: float | None = None,
    fsal: tuple | None = None,
) -> StepResult:
    """One accepted adaptive step of the current smooth branch.

    The friction sign is frozen to sign(p) for the whole step.  If the dense
    polynomial of the accepted step brackets p = 0 the step is shortened to
    end on the surface (|p| <= stick_band / 10), so no returned step
    straddles a sign change.

    `fsal` is the `fsal` of the previous StepResult.  Its field value is
    used as the first stage when it was taken at exactly this (t, q, p,
    branch), which gives the same value the field would; the first stage is
    also shared by rejected attempts and by the starting-step estimate.
    """
    if state.mode != SLIPPING:
        raise ValueError("step_smooth requires a slipping state")
    branch = 1.0 if state.p > 0 else (-1.0 if state.p < 0 else 0.0)
    if branch == 0.0 and params.mu != 0.0:
        raise ValueError("step_smooth requires p != 0 when mu > 0")
    f = branch_field(params, pivot, branch)
    t, q, p = state.t, state.q, state.p
    start = (t, q, p, branch)
    # -0.0 == 0.0, so a start with a zero in it is not matched by value
    if fsal is not None and fsal[0] == start and t != 0.0 and q != 0.0 and p != 0.0:
        kq0, kp0 = fsal[1]
    else:
        kq0, kp0 = f(t, q, p)
    if h is None:
        h = _initial_step(q, p, kq0, kp0, tol)
    h = min(h, tol.max_dt)
    if t_limit is not None:
        h = min(h, t_limit - t)
    if h <= 0:
        raise ValueError("no room to step before t_limit")

    while True:
        q1, p1, err_q, err_p, (kq, kp) = _rk_step(f, t, q, p, h, kq0, kp0)
        err = _error_norm(err_q, err_p, q, p, q1, p1, tol)
        if err <= 1.0:
            break
        h *= max(0.2, 0.9 * err ** -0.2)
        if not h >= _MIN_STEP:  # also a NaN step
            raise StepUnderflow(f"step size underflow at t = {t}")
    factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
    h_next = min(h * factor, tol.max_dt)

    cq, cp = _dense_coeffs(kq, kp)
    seg = DenseSegment(t0=t, h=h, q0=q, p0=p, cq=cq, cp=cp)

    if params.mu != 0.0 and branch != 0.0:
        bracket = _poly_first_sign_change(seg)
        if bracket is not None:
            t_sw, q_sw, p_sw = _bisect_switch(seg, tol, bracket)
            if t_sw > t:  # guard against a root at the very start of the step
                new = State(q=q_sw, p=p_sw, t=t_sw, mode=SLIPPING)
                return StepResult(state=new, segment=seg, h_used=t_sw - t, h_next=h_next, hit_switch=True)
    t1 = t + h
    new = State(q=q1, p=p1, t=t1, mode=SLIPPING)
    end = ((t1, q1, p1, branch), (kq[6], kp[6]))
    return StepResult(
        state=new, segment=seg, h_used=h, h_next=h_next, hit_switch=False, fsal=end
    )


def classify_switch(params: Params, pivot: PivotLaw, q: float, t: float) -> int:
    """Stick/cross decision on the surface p = 0 from the limit fields: 0 to
    stick, else the sign of p on the far side of a crossing.

    Sticking iff 0 lies between the one-sided limits (boundary equality
    counts as sticking; release detection then acts immediately).  Otherwise
    both limits share a sign and the crossing is transversal in that
    direction.
    """
    f_plus, f_minus = limit_fields(params, pivot, q, t)
    if f_plus <= 0.0 <= f_minus:
        return 0
    return 1 if f_plus > 0 else -1


def reseed(q: float, t: float, direction: int, tol: Tolerances) -> State:
    """The slipping state a crossing or a release leaves on: half the stick
    band off the surface, on the side of `direction`."""
    return State(q=q, p=direction * tol.stick_band / 2, t=t, mode=SLIPPING)


def _release_scan_step(params: Params, pivot: PivotLaw, q: float, tol: Tolerances) -> float:
    # margin(t) inherits the pivot's Lipschitz constant; refine the scan when
    # the law wiggles fast so short release windows are not skipped over
    l_margin = (pivot.lipschitz_bound / params.l) * (abs(math.sin(q)) + params.mu * abs(math.cos(q)))
    return min(tol.max_dt, 0.5 / (1.0 + l_margin))


def slide_until_release(
    state: State,
    params: Params,
    pivot: PivotLaw,
    horizon: float,
    tol: Tolerances,
) -> tuple[State, Event]:
    """Advance a stuck state at fixed angle until static friction fails.

    Returns the state at the release time together with a StickRelease event
    whose direction is the sign of the unbalanced drift, or the state at
    `horizon` with a HorizonReached event if friction holds throughout.
    The release time is the first root of |drift| - bound, located to
    event_tol; a constant pivot law makes the margin time-invariant, so a
    stuck state then holds to the horizon outright.
    """
    if state.mode != STUCK:
        raise ValueError("slide_until_release requires a stuck state")
    q, t0 = state.q, state.t

    def margin(t: float) -> float:
        drift, bound = stiction_drift_and_bound(params, pivot, q, t)
        return abs(drift) - bound

    if margin(t0) > 0:
        raise ValueError("slide_until_release requires stiction to hold at entry")

    if pivot.lipschitz_bound == 0.0:
        return (
            State(q=q, p=0.0, t=horizon, mode=STUCK),
            Event(t=horizon, q=q, kind=HORIZON),
        )

    dt = _release_scan_step(params, pivot, q, tol)
    t_lo = t0
    while t_lo < horizon:
        t_hi = min(t_lo + dt, horizon)
        if margin(t_hi) > 0.0:
            # bisect the first sign change; keep the released side on top
            lo, hi = t_lo, t_hi
            while hi - lo > tol.event_tol:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:  # an event_tol below the spacing of doubles
                    break
                if margin(mid) > 0.0:
                    hi = mid
                else:
                    lo = mid
            drift, _ = stiction_drift_and_bound(params, pivot, q, hi)
            direction = 1 if drift > 0 else -1
            released = State(q=q, p=0.0, t=hi, mode=STUCK)
            return released, Event(t=hi, q=q, kind=STICK_RELEASE, direction=direction)
        t_lo = t_hi
    return (
        State(q=q, p=0.0, t=horizon, mode=STUCK),
        Event(t=horizon, q=q, kind=HORIZON),
    )


def _guard_exit(seg: DenseSegment, theta_end: float, q_lo: float, q_hi: float):
    """Earliest theta in (0, theta_end] where the dense q leaves [q_lo, q_hi].

    The scan is skipped when the Bernstein coefficients of q on
    [0, theta_end] lie inside (q_lo, q_hi) with room for rounding.
    """
    lo, hi, mag = _bernstein_bounds(seg.q0, seg.h, seg.cq, theta_end)
    slack = _EXCLUSION_SLACK * (mag + abs(q_lo) + abs(q_hi)) + _EXCLUSION_FLOOR
    if lo - q_lo > slack and q_hi - hi > slack:
        return None
    n = 16
    prev_theta = 0.0
    prev_q = seg.q0
    for i in range(1, n + 1):
        th = theta_end * i / n
        qv, _ = seg.eval(th)
        if qv <= q_lo or qv >= q_hi:
            side = SIDE_LOW if qv <= q_lo else SIDE_HIGH
            bound = q_lo if side == SIDE_LOW else q_hi
            lo, hi = prev_theta, th
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                qm, _ = seg.eval(mid)
                out = qm <= q_lo if side == SIDE_LOW else qm >= q_hi
                if out:
                    hi = mid
                else:
                    lo = mid
            return hi, side
        prev_theta, prev_q = th, qv
    return None


def integrate(
    initial: State,
    params: Params,
    pivot: PivotLaw,
    horizon: float,
    tol: Tolerances = Tolerances(),
    region_guard: tuple[float, float] | None = None,
    *,
    record_at: Sequence[float] | None = None,
    initial_dt: float | None = None,
) -> Trajectory:
    """Drive the mode machine from `initial` until `horizon` or a guard exit.

    Slipping stretches are advanced with `step_smooth`; each landing on
    p = 0 is classified into a crossing (re-seeded at half the stick band on
    the far side) or a stick entry (projected onto the surface and advanced
    with `slide_until_release`).  With a region guard set, integration stops
    with a RegionExit event the moment q leaves [q_lo, q_hi].

    The output is reproducible bit-for-bit for identical inputs.  When
    mu > 0, the velocity trap (|p| can never re-exceed p_star once below it)
    is asserted on the finished trajectory.  A motion that leaves the float
    range raises IntegrationError, as a step that underflows does.
    """
    if not (horizon > initial.t):
        raise ValueError("horizon must exceed the initial time")
    if region_guard is not None and not (region_guard[0] < region_guard[1]):
        raise ValueError("region_guard must be an ordered pair")

    traj = Trajectory(
        params_fingerprint=fingerprint_of(params.to_dict(), pivot.to_dict(), tol.to_dict())
    )
    rec_times = sorted(record_at) if record_at else []
    rec_idx = 0

    def record_upto(t_now: float, value_fn):
        nonlocal rec_idx
        while rec_idx < len(rec_times) and rec_times[rec_idx] <= t_now + 1e-18:
            rt = rec_times[rec_idx]
            q_r, p_r, mode_r = value_fn(rt)
            traj.recorded.append(State(q=q_r, p=p_r, t=rt, mode=mode_r))
            rec_idx += 1

    state = initial
    frictionless = params.mu == 0.0
    entry_event = None

    # normalize an on-surface start
    if not frictionless and state.mode == SLIPPING and abs(state.p) <= tol.stick_band:
        direction = classify_switch(params, pivot, state.q, state.t)
        if direction == 0:
            state = State(q=state.q, p=0.0, t=state.t, mode=STUCK)
            entry_event = Event(t=state.t, q=state.q, kind=STICK_ENTRY)
        else:
            state = reseed(state.q, state.t, direction, tol)
    if state.mode == STUCK and not bool(stiction_holds(params, pivot, state.q, state.t)):
        direction = classify_switch(params, pivot, state.q, state.t)
        state = reseed(state.q, state.t, direction, tol)
        entry_event = None

    traj.append(state.t, state.q, state.p, state.mode)
    record_upto(state.t, lambda rt: (state.q, state.p, state.mode))
    if entry_event is not None:
        traj.events.append(entry_event)

    # immediate guard violation; on the boundary itself only outward (or
    # resting) motion counts as already-out, since inward motion re-enters
    if region_guard is not None:
        q_lo, q_hi = region_guard
        out_low = state.q < q_lo or (state.q == q_lo and state.p <= 0.0)
        out_high = state.q > q_hi or (state.q == q_hi and state.p >= 0.0)
        if out_low or out_high:
            side = SIDE_LOW if out_low else SIDE_HIGH
            traj.events.append(Event(t=state.t, q=state.q, kind=REGION_EXIT, side=side))
            return traj

    h_next = initial_dt
    fsal = None
    n_events = 0

    def bump_events():
        nonlocal n_events
        n_events += 1
        if n_events > _MAX_EVENTS:
            raise ChatterLimit("event count exceeded 1e6")

    try:
        while state.t < horizon:
            if state.mode == STUCK:
                q_stuck = state.q
                t_entry = state.t
                released, ev = slide_until_release(state, params, pivot, horizon, tol)
                # dense samples across the stuck stretch so gaps stay <= max_dt
                t_next_sample = t_entry + tol.max_dt
                while t_next_sample < released.t:
                    traj.append(t_next_sample, q_stuck, 0.0, STUCK)
                    t_next_sample += tol.max_dt
                record_upto(released.t, lambda rt: (q_stuck, 0.0, STUCK))
                traj.append(released.t, q_stuck, 0.0, STUCK)
                traj.events.append(ev)
                bump_events()
                if ev.kind == HORIZON:
                    return _finish(traj, params, pivot, horizon)
                state = reseed(q_stuck, released.t, ev.direction, tol)
                traj.append(state.t, state.q, state.p, state.mode)
                h_next = None
                continue

            # slipping
            res = step_smooth(state, params, pivot, tol, h=h_next, t_limit=horizon, fsal=fsal)
            fsal = res.fsal
            seg = res.segment
            theta_end = res.h_used / seg.h if seg.h > 0 else 1.0

            exit_hit = None
            if region_guard is not None:
                exit_hit = _guard_exit(seg, theta_end, region_guard[0], region_guard[1])
            if exit_hit is not None:
                theta_x, side = exit_hit
                t_x = seg.t0 + theta_x * seg.h
                q_x, p_x = seg.eval(theta_x)
                record_upto(t_x, lambda rt: (*seg.eval_at(rt), SLIPPING))
                traj.append(t_x, q_x, p_x, SLIPPING)
                traj.events.append(Event(t=t_x, q=q_x, kind=REGION_EXIT, side=side))
                bump_events()
                return _finish(traj, params, pivot, horizon)

            record_upto(res.state.t, lambda rt: (*seg.eval_at(rt), SLIPPING))
            state = res.state
            h_next = res.h_next

            if res.hit_switch:
                direction = classify_switch(params, pivot, state.q, state.t)
                if direction == 0:
                    state = State(q=state.q, p=0.0, t=state.t, mode=STUCK)
                    traj.append(state.t, state.q, 0.0, STUCK)
                    traj.events.append(Event(t=state.t, q=state.q, kind=STICK_ENTRY))
                    bump_events()
                else:
                    traj.append(state.t, state.q, state.p, SLIPPING)
                    traj.events.append(
                        Event(t=state.t, q=state.q, kind=CROSSING, direction=direction)
                    )
                    bump_events()
                    state = reseed(state.q, state.t, direction, tol)
                    traj.append(state.t, state.q, state.p, state.mode)
                h_next = None
                continue

            traj.append(state.t, state.q, state.p, state.mode)
            if (
                not frictionless
                and abs(state.p) < tol.stick_band
                and bool(stiction_holds(params, pivot, state.q, state.t))
            ):
                state = State(q=state.q, p=0.0, t=state.t, mode=STUCK)
                traj.append(state.t, state.q, 0.0, STUCK)
                traj.events.append(Event(t=state.t, q=state.q, kind=STICK_ENTRY))
                bump_events()
                h_next = None

        traj.events.append(Event(t=state.t, q=state.q, kind=HORIZON))
        return _finish(traj, params, pivot, horizon)
    except (ArithmeticError, ValueError) as exc:
        # math.sin of an angle, or a float power, that left the float range
        raise IntegrationError(
            f"the motion left the float range near t = {state.t}: {exc}"
        ) from exc


def _finish(traj, params, pivot, horizon):
    if params.mu > 0.0:
        check_escape_trap(traj, params, pivot, horizon, raise_on_fail=True)
    return traj


def check_escape_trap(
    traj: Trajectory,
    params: Params,
    pivot: PivotLaw,
    horizon: float,
    slack: float = 1e-6,
    raise_on_fail: bool = False,
) -> bool:
    """Verify that |p| never re-exceeds p_star (+slack) once it dips below it."""
    if params.mu <= 0.0:
        return True
    t0 = traj.samples[0][0]
    if not (horizon > t0):
        return True
    cap = p_star(params, pivot, t0, horizon)
    below = False
    for t, q, p, mode in traj.samples:
        if abs(p) <= cap:
            below = True
        elif below and abs(p) > cap + slack:
            if raise_on_fail:
                raise TrapViolation(
                    f"|p| = {abs(p)} exceeded p_star = {cap} at t = {t} after entering the trap"
                )
            return False
    return True


def trajectory_residuals(traj: Trajectory, params: Params, pivot: PivotLaw) -> float:
    """Midpoint-rule residual of consecutive sample pairs between events.

    Samples straddling an event or inside stuck stretches are skipped; the
    rest must be consistent with the single smooth branch to O(dt^2).
    """
    event_times = sorted(e.t for e in traj.events)
    worst = 0.0
    for (t0, q0, p0, m0), (t1, q1, p1, m1) in zip(traj.samples, traj.samples[1:]):
        if m0 != SLIPPING or m1 != SLIPPING:
            continue
        dt = t1 - t0
        if dt <= 1e-12:
            continue
        if any(t0 < te < t1 for te in event_times):
            continue
        if (p0 > 0) != (p1 > 0):
            continue
        branch = 1.0 if p0 > 0 else -1.0
        tm = 0.5 * (t0 + t1)
        qm = 0.5 * (q0 + q1)
        pm = 0.5 * (p0 + p1)
        fq, fp = branch_field(params, pivot, branch)(tm, qm, pm)
        rq = abs((q1 - q0) / dt - fq)
        rp = abs((p1 - p0) / dt - fp)
        scale = dt * dt * (1.0 + abs(fp))
        worst = max(worst, max(rq, rp) / scale if scale > 0 else 0.0)
    return worst

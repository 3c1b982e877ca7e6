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

import math
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


class _TolerancesFields(NamedTuple):
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    event_tol: float = 1e-10
    stick_band: float = 1e-8
    max_dt: float = 0.05


class Tolerances(_TolerancesFields):
    """Step-size and event-localization controls.

    stick_band is the |p| half-width inside which a state is considered to
    be on the switching surface; it must dominate abs_tol by a safe margin
    so that projection onto p = 0 never fights the error control.  An
    immutable tuple, checked when built.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not (value > 0):
                raise ValueError(f"{name} must be strictly positive")
        if self.stick_band < 10 * self.abs_tol:
            raise ValueError("stick_band must be at least 10 * abs_tol")
        return self

    def scaled(self, factor: float) -> "Tolerances":
        """Same controls with every tolerance but the step cap `max_dt`
        tightened by `factor`."""
        return Tolerances(*(value / factor for value in self[:4]), self.max_dt)

    def to_dict(self) -> dict:
        return self._asdict()


class Event(NamedTuple):
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


class Trajectory:
    """Time-ordered samples plus the switching events that separate them."""

    __slots__ = ("samples", "events", "recorded", "setup")

    def __init__(self, setup: tuple = ()):
        self.samples: list[tuple[float, float, float, str]] = []
        self.events: list[Event] = []
        self.recorded: list[State] = []
        # (params, pivot, tol) of the run; `params_fingerprint` hashes them
        self.setup = setup

    @property
    def params_fingerprint(self) -> str:
        """Fingerprint of the run's params, pivot law and tolerances, hashed
        when read; "" for a trajectory read back from CSV."""
        return fingerprint_of(*(part.to_dict() for part in self.setup)) if self.setup else ""

    def append(self, t: float, q: float, p: float, mode: str):
        self.samples.append((t, q, p, mode))

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
# the dense-output weights by column (power of theta) and stage: _Wci = _P[i][c]
(
    (_W00, _W01, _W02, _W03, _W04, _W05, _W06),
    (_W10, _W11, _W12, _W13, _W14, _W15, _W16),
    (_W20, _W21, _W22, _W23, _W24, _W25, _W26),
    (_W30, _W31, _W32, _W33, _W34, _W35, _W36),
) = zip(*_P)

_MIN_STEP = 1e-14
_MAX_EVENTS = 10 ** 6

# The largest |b_i(theta)| on [0, 1], rounded up, of the dense-output weight
# polynomials b_i(theta) = theta * sum_k _P[i][k] theta^k.  The interpolant is
# x(theta) = x0 + h * sum_i k_i b_i(theta) for the stages k_i of x, so it
# stays within |h| * sum_i _BETA[i] |k_i| of x0 on the whole step.
_BETA = (0.1170, 0.0, 0.4732, 0.6511, 0.3224, 0.1310, 0.0699)
_BETA0, _BETA1, _BETA2, _BETA3, _BETA4, _BETA5, _BETA6 = _BETA

# An event scan is skipped only when a bound on the interpolant clears the
# event level by this multiple of the magnitudes involved.  For the Bernstein
# coefficients that margin is about 1e4 times the rounding of both the
# coefficients and of any value the scan itself would compute; for the stage
# bound it is at least five times the worst-case rounding of the formed
# coefficients and of their evaluation (each row of _P sums, in magnitude, to
# under 110 times its _BETA).  So a skipped scan is one that could not have
# found an event.  The absolute floor covers the rounding of subnormal terms.
_EXCLUSION_SLACK = 1e-12
_EXCLUSION_FLOOR = 1e-300
_INF = math.inf
_NEG_INF = -math.inf


class DenseSegment:
    """Quartic interpolant of one accepted step on [t0, t0 + h].  It forms
    the power-basis coefficients of the step's stages (kq, kp) when built:
    a segment is built only where an event scan, a bisection or a recorded
    time reads it."""

    __slots__ = ("t0", "h", "q0", "p0", "coeffs")

    def __init__(self, t0: float, h: float, q0: float, p0: float, kq: tuple, kp: tuple):
        self.t0 = t0
        self.h = h
        self.q0 = q0
        self.p0 = p0
        # (cq, cp): the dense coefficients of q and p, one per power of theta
        self.coeffs = _dense_coeffs(kq, kp)

    def eval(self, theta: float) -> tuple[float, float]:
        th = theta
        (c0, c1, c2, c3), (d0, d1, d2, d3) = self.coeffs
        # Horner in theta, highest power first, from an accumulator of 0.0
        acc_q = (((0.0 * th + c3) * th + c2) * th + c1) * th + c0
        acc_p = (((0.0 * th + d3) * th + d2) * th + d1) * th + d0
        hth = self.h * th
        return self.q0 + hth * acc_q, self.p0 + hth * acc_p


def _dense_coeffs(kq, kp) -> tuple[tuple, tuple]:
    """(cq, cp): the power-basis coefficients of the dense q and p, one per
    power of theta, each summed over the stages in the order of the tableau."""
    kq0, kq1, kq2, kq3, kq4, kq5, kq6 = kq
    kp0, kp1, kp2, kp3, kp4, kp5, kp6 = kp
    return (
        (
            0.0 + kq0 * _W00 + kq1 * _W01 + kq2 * _W02 + kq3 * _W03 + kq4 * _W04 + kq5 * _W05 + kq6 * _W06,
            0.0 + kq0 * _W10 + kq1 * _W11 + kq2 * _W12 + kq3 * _W13 + kq4 * _W14 + kq5 * _W15 + kq6 * _W16,
            0.0 + kq0 * _W20 + kq1 * _W21 + kq2 * _W22 + kq3 * _W23 + kq4 * _W24 + kq5 * _W25 + kq6 * _W26,
            0.0 + kq0 * _W30 + kq1 * _W31 + kq2 * _W32 + kq3 * _W33 + kq4 * _W34 + kq5 * _W35 + kq6 * _W36,
        ),
        (
            0.0 + kp0 * _W00 + kp1 * _W01 + kp2 * _W02 + kp3 * _W03 + kp4 * _W04 + kp5 * _W05 + kp6 * _W06,
            0.0 + kp0 * _W10 + kp1 * _W11 + kp2 * _W12 + kp3 * _W13 + kp4 * _W14 + kp5 * _W15 + kp6 * _W16,
            0.0 + kp0 * _W20 + kp1 * _W21 + kp2 * _W22 + kp3 * _W23 + kp4 * _W24 + kp5 * _W25 + kp6 * _W26,
            0.0 + kp0 * _W30 + kp1 * _W31 + kp2 * _W32 + kp3 * _W33 + kp4 * _W34 + kp5 * _W35 + kp6 * _W36,
        ),
    )


def _stage_clear(x0: float, h: float, k, lo: float, hi: float) -> bool:
    """Whether the stages k of x keep x(theta), 0 <= theta <= 1, inside
    (lo, hi) with room for rounding, so that no scan point of the step can
    reach an end.  An end may be infinite.

    The bound |x(theta) - x0| <= |h| * sum_i _BETA[i] |k_i| takes seven
    products and no dense coefficient; a non-finite stage gives NaN, which
    never clears.
    """
    k0, k1, k2, k3, k4, k5, k6 = k
    reach = abs(h) * (
        _BETA0 * abs(k0) + _BETA1 * abs(k1) + _BETA2 * abs(k2) + _BETA3 * abs(k3)
        + _BETA4 * abs(k4) + _BETA5 * abs(k5) + _BETA6 * abs(k6)
    )
    # the finite ends, whose magnitudes scale the rounding of x - end
    end_lo = 0.0 if lo == _NEG_INF else abs(lo)
    end_hi = 0.0 if hi == _INF else abs(hi)
    slack = _EXCLUSION_SLACK * (reach + abs(x0) + end_lo + end_hi) + _EXCLUSION_FLOOR
    return x0 - reach - lo > slack and hi - x0 - reach > slack


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
    # which the next step may reuse as its first stage
    fsal: tuple | None = None


def _first_exit(seg: DenseSegment, i: int, theta_end: float, lo: float, hi: float):
    """First scan point theta in (0, theta_end] where the dense q (i = 0) or
    p (i = 1) reaches x <= lo or x >= hi: (theta_a, theta_b, x) with theta_a
    the scan point before it, or None.  An end may be infinite.

    The quartic is scanned on a fixed subdivision; a transversal crossing
    cannot hide between scan points at the scales the step controller
    allows.  The scan is skipped when the Bernstein coefficients of x on
    [0, theta_end] lie inside (lo, hi) with room for rounding; then no scan
    point can reach an end.  The caller has already run the cheaper stage
    bound (`_stage_clear`) on the step.
    """
    x0 = seg.p0 if i else seg.q0
    end_lo = 0.0 if lo == _NEG_INF else abs(lo)
    end_hi = 0.0 if hi == _INF else abs(hi)
    b_lo, b_hi, mag = _bernstein_bounds(x0, seg.h, seg.coeffs[i], theta_end)
    slack = _EXCLUSION_SLACK * (mag + end_lo + end_hi) + _EXCLUSION_FLOOR
    if b_lo - lo > slack and hi - b_hi > slack:
        return None
    n = 16
    prev_theta = 0.0
    for k in range(1, n + 1):
        th = theta_end * k / n
        x = seg.eval(th)[i]
        if x <= lo or x >= hi:
            return prev_theta, th, x
        prev_theta = th
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


def _slip(f, branch, t, q, p, h, t_limit, tol, frictional, carried):
    """The accepted steps of one slipping stretch of the field `f`, which has
    the friction sign frozen to `branch`, from (t, q, p).

    Each step is yielded as (t, h, q, p, kq, kp, seg, t1, q1, p1, h_next,
    hit): its start, size and stages, the DenseSegment of them if the p = 0
    scan formed one (else None), where it ends, the step to try next, and
    whether it ends on p = 0.  When `frictional`, a step whose dense p
    brackets 0 is shortened to end on the surface (|p| <= stick_band / 10),
    so no step straddles a sign change; that step ends the stretch, as does
    one that reaches `t_limit` or leaves the branch.  The scan is skipped,
    and no segment is built, when the stage bound keeps p off 0; else the
    segment's Bernstein test and scan (`_first_exit`) look for the root.

    Each attempt is one DOPRI5 step to the end time t1, which is t + h or
    a time that t + h only rounds near.  Every stage sum is written out in
    the order of the tableau, zero weights included, so the arithmetic is
    that of a loop over the tableau.  A step that reaches `t_limit` is cut
    to end on it exactly, with its last stage evaluated there, and passes on
    as `h_next` no less than the step it was cut from, so a cut to a knot of
    the pivot law does not shrink the steps after it.  Inside the stretch
    each step's first stage is the last stage of the step before (FSAL).
    The first step's is the field value of `carried`, ((t, q, p, branch),
    (dq, dp)), when that was taken at exactly this start, else f(t, q, p);
    it is also shared by rejected attempts and by the starting-step
    estimate when `h` is None.
    """
    if frictional and branch == 0.0:
        raise ValueError("stepping requires p != 0 when mu > 0")
    # -0.0 == 0.0, so a start with a zero in it is not matched by value
    if carried is not None and carried[0] == (t, q, p, branch) and t != 0.0 and q != 0.0 and p != 0.0:
        kq0, kp0 = carried[1]
    else:
        kq0, kp0 = f(t, q, p)
    if h is None:
        h = _initial_step(q, p, kq0, kp0, tol)
    abs_tol, rel_tol, max_dt = tol.abs_tol, tol.rel_tol, tol.max_dt
    sqrt = math.sqrt
    # the p = 0 scan's ends: p keeps the sign of `branch` inside the stretch
    p_lo, p_hi = (0.0, _INF) if branch > 0 else (_NEG_INF, 0.0)
    while True:
        h = min(h, max_dt)
        h_uncut = h
        t1 = t + h
        landing = t_limit - t <= h
        if landing:
            h, t1 = t_limit - t, t_limit
        if h <= 0:
            raise ValueError("no room to step before t_limit")
        while True:
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
            kq6, kp6 = f(t1, q1, p1)
            # the error estimate: the 5th minus the 4th order solution
            err_q = h * (
                0.0 + _E0 * kq0 + _E1 * kq1 + _E2 * kq2 + _E3 * kq3 + _E4 * kq4 + _E5 * kq5 + _E6 * kq6
            )
            err_p = h * (
                0.0 + _E0 * kp0 + _E1 * kp1 + _E2 * kp2 + _E3 * kp3 + _E4 * kp4 + _E5 * kp5 + _E6 * kp6
            )
            sq = abs_tol + rel_tol * max(abs(q), abs(q1))
            sp = abs_tol + rel_tol * max(abs(p), abs(p1))
            err = sqrt(0.5 * ((err_q / sq) ** 2 + (err_p / sp) ** 2))
            if err <= 1.0:
                break
            h *= max(0.2, 0.9 * err ** -0.2)
            if not h >= _MIN_STEP:  # also a NaN step
                raise StepUnderflow(f"step size underflow at t = {t}")
            t1 = t + h
            landing = False
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        h_next = min(h * factor, max_dt)
        if landing:
            h_next = max(h_next, h_uncut)
        kq = (kq0, kq1, kq2, kq3, kq4, kq5, kq6)
        kp = (kp0, kp1, kp2, kp3, kp4, kp5, kp6)

        seg = None
        if frictional and not _stage_clear(p, h, kp, p_lo, p_hi):
            seg = DenseSegment(t, h, q, p, kq, kp)
            # a grazing double root that no scan point shows is caught later
            # by the stick-band projection
            root = _first_exit(seg, 1, 1.0, p_lo, p_hi)
            if root is not None:
                t_sw, q_sw, p_sw = _bisect_switch(seg, tol, root[:2])
                if t_sw > t:  # guard against a root at the very start of the step
                    yield t, h, q, p, kq, kp, seg, t_sw, q_sw, p_sw, h_next, True
                    return
        yield t, h, q, p, kq, kp, seg, t1, q1, p1, h_next, False
        if t1 >= t_limit or not p1 * branch > 0.0:
            return
        t, q, p, h, kq0, kp0 = t1, q1, p1, h_next, kq6, kp6


def step_smooth(
    state: State,
    params: Params,
    pivot: PivotLaw,
    tol: Tolerances,
    h: float | None = None,
    t_limit: float | None = None,
    fsal: tuple | None = None,
) -> StepResult:
    """One accepted adaptive step of the current smooth branch: the first
    step of the slipping stretch from `state` (see `_slip`), with the
    friction sign frozen to sign(p).

    `fsal` is the `fsal` of the previous StepResult, whose field value is
    the first stage when it was taken at exactly this (t, q, p, branch).
    """
    if state.mode != SLIPPING:
        raise ValueError("step_smooth requires a slipping state")
    t, p = state.t, state.p
    branch = 1.0 if p > 0 else (-1.0 if p < 0 else 0.0)
    f = branch_field(params, pivot, branch)
    stretch = _slip(
        f, branch, t, state.q, p, h, math.inf if t_limit is None else t_limit, tol,
        params.mu != 0.0, fsal,
    )
    t0, h, q0, p0, kq, kp, seg, t1, q1, p1, h_next, hit = next(stretch)
    return StepResult(
        state=State(q=q1, p=p1, t=t1, mode=SLIPPING),
        segment=seg or DenseSegment(t0, h, q0, p0, kq, kp),
        h_used=t1 - t if hit else h,
        h_next=h_next,
        hit_switch=hit,
        fsal=None if hit else ((t1, q1, p1, branch), (kq[6], kp[6])),
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
) -> Event:
    """Advance a stuck state at fixed angle until static friction fails.

    Returns a StickRelease event at the release time whose direction is the
    sign of the unbalanced drift, or a HorizonReached event at `horizon` if
    friction holds throughout; the state stays at the event's angle with
    p = 0 until then.  The release time is the first root of |drift| - bound,
    located to event_tol; a constant pivot law makes the margin
    time-invariant, so a stuck state then holds to the horizon outright.
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
        return Event(t=horizon, q=q, kind=HORIZON)

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
            return Event(t=hi, q=q, kind=STICK_RELEASE, direction=1 if drift > 0 else -1)
        t_lo = t_hi
    return Event(t=horizon, q=q, kind=HORIZON)


def _guard_exit(seg: DenseSegment, theta_end: float, q_lo: float, q_hi: float):
    """Earliest theta in (0, theta_end] where the dense q leaves (q_lo, q_hi),
    bisected from the first scan point outside, and the side it leaves by."""
    hit = _first_exit(seg, 0, theta_end, q_lo, q_hi)
    if hit is None:
        return None
    lo, hi, q_out = hit
    low = q_out <= q_lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        qm, _ = seg.eval(mid)
        if qm <= q_lo if low else qm >= q_hi:
            hi = mid
        else:
            lo = mid
    return hi, SIDE_LOW if low else SIDE_HIGH


def _record_due(recorded, times, i, t_now, seg, q=0.0, p=0.0, mode=SLIPPING) -> int:
    """Append to `recorded` the State at each time of times[i:] that is due
    by `t_now`, read off the segment `seg` or, without one, (q, p, mode).
    Returns the index of the first time not due; `times` ends in infinity."""
    while times[i] <= t_now + 1e-18:
        rt = times[i]
        if seg is not None:
            q, p = seg.eval((rt - seg.t0) / seg.h)
        recorded.append(State(q, p, rt, mode))
        i += 1
    return i


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

    Each slipping stretch, up to p = 0, the end of the pivot law's smooth
    piece or a change of friction branch, is stepped by one `_slip`
    generator, and a State is built only where it ends.  Each landing on
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

    traj = Trajectory(setup=(params, pivot, tol))
    recorded = traj.recorded
    # the times to record, then a sentinel that is never due
    rec_times = [*sorted(record_at or ()), math.inf]

    state = initial
    frictional = params.mu != 0.0
    entry_event = None

    # normalize an on-surface start
    if frictional and state.mode == SLIPPING and abs(state.p) <= tol.stick_band:
        direction = classify_switch(params, pivot, state.q, state.t)
        if direction == 0:
            state = State(q=state.q, p=0.0, t=state.t, mode=STUCK)
            entry_event = Event(t=state.t, q=state.q, kind=STICK_ENTRY)
        else:
            state = reseed(state.q, state.t, direction, tol)
    elif state.mode == STUCK:
        direction = classify_switch(params, pivot, state.q, state.t)
        if direction != 0:
            state = reseed(state.q, state.t, direction, tol)

    traj.append(state.t, state.q, state.p, state.mode)
    rec_idx = _record_due(recorded, rec_times, 0, state.t, None, state.q, state.p, state.mode)
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

    guarded = region_guard is not None
    stick_band = tol.stick_band
    add_sample = traj.samples.append
    h_next = initial_dt
    carried = None  # ((t, q, p, branch), stage) at the end of the last full step
    n_events = 0
    # the end of the pivot law's smooth piece being stepped; the piece and
    # its branch fields are read at the first slipping stretch past it
    piece_end = -math.inf

    def bump_events():
        nonlocal n_events
        n_events += 1
        if n_events > _MAX_EVENTS:
            raise ChatterLimit("event count exceeded 1e6")

    try:
        while state.t < horizon:
            t1 = state.t  # the start of the step or slide an error names; each step moves it
            if state.mode == STUCK:
                q_stuck = state.q
                t_entry = state.t
                ev = slide_until_release(state, params, pivot, horizon, tol)
                # dense samples across the stuck stretch so gaps stay <= max_dt
                t_next_sample = t_entry + tol.max_dt
                while t_next_sample < ev.t:
                    traj.append(t_next_sample, q_stuck, 0.0, STUCK)
                    t_next_sample += tol.max_dt
                rec_idx = _record_due(recorded, rec_times, rec_idx, ev.t, None, q_stuck, 0.0, STUCK)
                traj.append(ev.t, q_stuck, 0.0, STUCK)
                traj.events.append(ev)
                bump_events()
                if ev.kind == HORIZON:
                    check_escape_trap(traj, params, pivot, horizon)
                    return traj
                state = reseed(q_stuck, ev.t, ev.direction, tol)
                traj.append(state.t, state.q, state.p, state.mode)
                h_next = None
                continue

            # a slipping stretch, inside the pivot law's smooth piece
            if state.t >= piece_end:
                piece_end, piece_accel = pivot.piece(state.t)
                fields = {}
                t_limit = min(horizon, piece_end)
            branch = 1.0 if state.p > 0 else (-1.0 if state.p < 0 else 0.0)
            field = fields.get(branch)
            if field is None:
                field = fields[branch] = branch_field(params, pivot, branch, piece_accel)
            stretch = _slip(
                field, branch, state.t, state.q, state.p, h_next, t_limit, tol,
                frictional, carried,
            )
            direction = None  # how the stretch ends on p = 0: 0 sticks, else crosses
            for t0, h, q0, p0, kq, kp, seg, t1, q1, p1, h_next, hit in stretch:
                # the guard scan, unless the stage bound keeps q inside up to
                # the step's end; it holds for theta in [0, 1], so also on a
                # step cut on p = 0 whose end (t1 - t0) / h does not round past 1
                if guarded and not (
                    _stage_clear(q0, h, kq, q_lo, q_hi) and (not hit or (t1 - t0) / h <= 1.0)
                ):
                    seg = seg or DenseSegment(t0, h, q0, p0, kq, kp)
                    exit_hit = _guard_exit(seg, (t1 - t0) / h if hit else 1.0, q_lo, q_hi)
                    if exit_hit is not None:
                        theta_x, side = exit_hit
                        t_x = t0 + theta_x * h
                        q_x, p_x = seg.eval(theta_x)
                        rec_idx = _record_due(recorded, rec_times, rec_idx, t_x, seg)
                        traj.append(t_x, q_x, p_x, SLIPPING)
                        traj.events.append(Event(t=t_x, q=q_x, kind=REGION_EXIT, side=side))
                        bump_events()
                        check_escape_trap(traj, params, pivot, horizon)
                        return traj
                if rec_times[rec_idx] <= t1 + 1e-18:  # a recorded time is due
                    seg = seg or DenseSegment(t0, h, q0, p0, kq, kp)
                    rec_idx = _record_due(recorded, rec_times, rec_idx, t1, seg)
                if hit:
                    direction = classify_switch(params, pivot, q1, t1)
                    break
                add_sample((t1, q1, p1, SLIPPING))
                if frictional and abs(p1) < stick_band and classify_switch(params, pivot, q1, t1) == 0:
                    direction = 0
                    break
            carried = None if hit else ((t1, q1, p1, branch), (kq[6], kp[6]))
            if direction is None:  # the stretch ran to t_limit or off its branch
                state = State(q=q1, p=p1, t=t1, mode=SLIPPING)
            elif direction == 0:
                state = State(q=q1, p=0.0, t=t1, mode=STUCK)
                traj.append(t1, q1, 0.0, STUCK)
                traj.events.append(Event(t=t1, q=q1, kind=STICK_ENTRY))
                bump_events()
                h_next = None
            else:
                traj.append(t1, q1, p1, SLIPPING)
                traj.events.append(Event(t=t1, q=q1, kind=CROSSING, direction=direction))
                bump_events()
                state = reseed(q1, t1, direction, tol)
                traj.append(state.t, state.q, state.p, state.mode)
                h_next = None

        traj.events.append(Event(t=state.t, q=state.q, kind=HORIZON))
        check_escape_trap(traj, params, pivot, horizon)
        return traj
    except (ArithmeticError, ValueError) as exc:
        # math.sin of an angle, or a float power, that left the float range
        raise IntegrationError(
            f"the motion left the float range near t = {t1}: {exc}"
        ) from exc


# how far |p| may re-exceed p_star, for rounding, before the trap counts as broken
_TRAP_SLACK = 1e-6


def check_escape_trap(traj: Trajectory, params: Params, pivot: PivotLaw, horizon: float) -> None:
    """TrapViolation if |p| re-exceeds p_star (+_TRAP_SLACK) once it dips below it."""
    if params.mu <= 0.0:
        return
    t0 = traj.samples[0][0]
    if not (horizon > t0):
        return
    cap = p_star(params, pivot, t0, horizon)
    below = False
    for t, q, p, mode in traj.samples:
        if abs(p) <= cap:
            below = True
        elif below and abs(p) > cap + _TRAP_SLACK:
            raise TrapViolation(
                f"|p| = {abs(p)} exceeded p_star = {cap} at t = {t} after entering the trap"
            )


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

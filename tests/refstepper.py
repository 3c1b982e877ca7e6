"""Reference DOP853 stepper for the oracle tests: the looped forms.

The stage loop, error estimate and step-size control (`_accepted_step`),
the dense-output rows and their nested evaluation, and the 16-point event
scans, written as loops over the tableau.  The tableau is scipy's
(`scipy.integrate._ivp.dop853_coefficients`), converted to Python floats,
and the loops run over its nonzero entries in order.  The package's
written-out stepper must reproduce them bit for bit; nothing in `src/`
imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate._ivp import dop853_coefficients as _dop853

SIDE_LOW = "low"
SIDE_HIGH = "high"


def _nonzero(row) -> tuple:
    return tuple((j, float(w)) for j, w in enumerate(row) if w != 0.0)


_C = tuple(float(c) for c in _dop853.C)
# row i: the nonzero (j, a_ij); rows 1-11 are the step's stages, 13-15 the
# dense output's
_A = tuple(_nonzero(_dop853.A[i, :i]) for i in range(16))
_B = _nonzero(_dop853.B)
_E5 = _nonzero(_dop853.E5)
_E3 = _nonzero(_dop853.E3)
_D = tuple(_nonzero(row) for row in _dop853.D)

_MIN_STEP = 1e-14


@dataclass(frozen=True)
class DenseSegment:
    """DOP853's dense output of one accepted step on [t0, t0 + h], by rows."""

    t0: float
    h: float
    q0: float
    p0: float
    rq: tuple
    rp: tuple

    def eval(self, theta: float) -> tuple[float, float]:
        # scipy's loop: from the last row, alternately times theta and 1 - theta
        out = []
        for x0, rows in ((self.q0, self.rq), (self.p0, self.rp)):
            acc = 0.0
            for i, r in enumerate(reversed(rows)):
                acc += r
                acc *= theta if i % 2 == 0 else 1 - theta
            out.append(x0 + acc)
        return out[0], out[1]


def _field(params: Params, pivot: PivotLaw, branch: float) -> Callable:
    l, g, mu = params.l, params.g, params.mu

    def f(t: float, q: float, p: float) -> tuple[float, float]:
        a = pivot.accel(t)
        mag = abs(a * math.cos(q) - l * p * p + g * math.sin(q))
        return p, (a / l) * math.sin(q) - (mu / l) * mag * branch - (g / l) * math.cos(q)

    return f


def _stage(f, t, q, p, h, kq, kp, i):
    """Stage i from the stages before it."""
    aq = q
    ap = p
    for j, a_ij in _A[i]:
        aq += h * a_ij * kq[j]
        ap += h * a_ij * kp[j]
    return f(t + _C[i] * h, aq, ap)


def _rk_step(f, t: float, q: float, p: float, h: float):
    """One DOP853 attempt: (q1, p1, (kq, kp)) with stages 0-11 filled in."""
    kq = [0.0] * 13
    kp = [0.0] * 13
    kq[0], kp[0] = f(t, q, p)
    for i in range(1, 12):
        kq[i], kp[i] = _stage(f, t, q, p, h, kq, kp, i)
    q1 = q
    p1 = p
    for j, b in _B:
        q1 += h * b * kq[j]
        p1 += h * b * kp[j]
    return q1, p1, (kq, kp)


def _norms(kq, kp, sq, sp):
    """(err5, err3): the squared scaled 5th- and 3rd-order estimates."""
    norms = []
    for weights in (_E5, _E3):
        eq = 0.0
        ep = 0.0
        for j, e in weights:
            eq += e * kq[j]
            ep += e * kp[j]
        eq /= sq
        ep /= sp
        norms.append(eq * eq + ep * ep)
    return norms[0], norms[1]


def _error(kq, kp, sq, sp, h):
    """Hairer's combined error norm of the 5th- and 3rd-order estimates."""
    err5, err3 = _norms(kq, kp, sq, sp)
    if err5 == 0.0:
        return 0.0
    return h * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)


def _next_step(h: float, err: float, max_dt: float) -> float:
    """The step to try after an accepted step of size h with error err."""
    factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.125))
    return min(h * factor, max_dt)


class StepUnderflow(RuntimeError):
    pass


def _accepted_step(f, t: float, q: float, p: float, h: float, tol: Tolerances):
    """The first accepted step from (t, q, p) of a stepper that tries steps
    of size min(h, max_dt) and shrinks each rejected one by the error
    control: (h, q1, p1, kq, kp, h_next), with h the size of the step and
    kq, kp its stages 0-12.

    The scale of each component is abs_tol plus rel_tol times the larger
    magnitude at the two ends; an error up to 1 is accepted.  The factor
    applied to h is 0.9 * err ** -1/8 within [0.2, 5] (5 for a zero error).
    Stage 12, the field at the step's end, is evaluated once the step is
    accepted.  Nothing ends the step early here: no event and no end time.
    """
    h = min(h, tol.max_dt)
    while True:
        q1, p1, (kq, kp) = _rk_step(f, t, q, p, h)
        sq = tol.abs_tol + tol.rel_tol * max(abs(q), abs(q1))
        sp = tol.abs_tol + tol.rel_tol * max(abs(p), abs(p1))
        err = _error(kq, kp, sq, sp, h)
        if err <= 1.0:
            break
        h *= max(0.2, 0.9 * err ** -0.125)
        if not h >= _MIN_STEP:
            raise StepUnderflow(f"step size underflow at t = {t}")
    kq[12], kp[12] = f(t + h, q1, p1)
    return h, q1, p1, tuple(kq), tuple(kp), _next_step(h, err, tol.max_dt)


def _dense_rows(f, t: float, h: float, q: float, p: float, q1: float, p1: float, kq, kp):
    """The dense-output rows (rq, rp) of an accepted step with stages 0-12:
    stages 13-15 as the step's, then scipy's rows of q and of p."""
    kq = list(kq) + [0.0] * 3
    kp = list(kp) + [0.0] * 3
    for i in range(13, 16):
        kq[i], kp[i] = _stage(f, t, q, p, h, kq, kp, i)
    rows = []
    for x0, x1, k in ((q, q1, kq), (p, p1, kp)):
        d = x1 - x0
        row = [d, h * k[0] - d, 2.0 * d - h * (k[12] + k[0])]
        for weights in _D:
            s = 0.0
            for j, w in weights:
                s += w * k[j]
            row.append(h * s)
        rows.append(tuple(row))
    return rows[0], rows[1]


def _initial_step(f, t: float, q: float, p: float, tol: Tolerances) -> float:
    """Hairer-style starting step: scale off the field magnitude at t0."""
    dq, dp = f(t, q, p)
    d0 = math.hypot(q, p)
    d1 = math.hypot(dq, dp)
    scale = tol.abs_tol + tol.rel_tol * max(d0, 1.0)
    if d1 <= 1e-12:
        h = tol.max_dt
    else:
        h = 0.01 * scale ** 0.125 / max(d1, 1e-12) ** 0.125
        h = min(h, 0.1 * (1.0 + d0) / d1)
    return max(min(h, tol.max_dt), _MIN_STEP * 10)


def _poly_first_sign_change(seg: DenseSegment, sign0: float, theta_max: float = 1.0):
    """Smallest theta in (0, theta_max] where the dense p changes sign or is
    NaN, or None.

    The interpolant is scanned on a fixed subdivision; a transversal root
    cannot hide between scan points at the scales the step controller
    allows, and a grazing double root is caught later by the stick-band
    projection.
    """
    n = 16
    prev_theta = 0.0
    prev_p = seg.p0
    for i in range(1, n + 1):
        th = theta_max * i / n
        _, p = seg.eval(th)
        if p == 0.0 or p != p or (p > 0) != (prev_p > 0):
            return prev_theta, th
        prev_theta, prev_p = th, p
    return None


def _guard_exit(seg: DenseSegment, theta_end: float, q_lo: float, q_hi: float):
    """Earliest theta in (0, theta_end] where the dense q leaves [q_lo, q_hi],
    as (theta, q, p, side).  A scan point where q is NaN says nothing about
    where q went; the step's end, where every row but the first drops out,
    is then the first point known, and the exit is there if it is outside."""
    n = 16
    prev_theta = 0.0
    for i in range(1, n + 1):
        th = theta_end * i / n
        qv, _ = seg.eval(th)
        if math.isnan(qv):
            q_end, p_end = seg.q0 + seg.rq[0], seg.p0 + seg.rp[0]
            if q_end <= q_lo:
                return 1.0, q_end, p_end, SIDE_LOW
            if q_end >= q_hi:
                return 1.0, q_end, p_end, SIDE_HIGH
            return None
        if qv <= q_lo or qv >= q_hi:
            side = SIDE_LOW if qv <= q_lo else SIDE_HIGH
            lo, hi = prev_theta, th
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                qm, _ = seg.eval(mid)
                out = qm <= q_lo if side == SIDE_LOW else qm >= q_hi
                if out:
                    hi = mid
                else:
                    lo = mid
            return (hi, *seg.eval(hi), side)
        prev_theta = th
    return None

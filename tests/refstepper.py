"""Reference DOPRI5 stepper for the oracle tests: the looped forms.

These are the stage loop, dense-output coefficients, Horner evaluation and
16-point event scans as drypend had them before its stepper was written out
stage by stage, copied verbatim, and the step-size control around the stage
loop (`_accepted_step`).  The package's stepper must reproduce them bit for
bit; nothing in `src/` imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SIDE_LOW = "low"
SIDE_HIGH = "high"

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

_MIN_STEP = 1e-14


@dataclass(frozen=True)
class DenseSegment:
    """Quartic interpolant of one accepted step on [t0, t0 + h]."""

    t0: float
    h: float
    q0: float
    p0: float
    cq: tuple[float, float, float, float]
    cp: tuple[float, float, float, float]

    def eval(self, theta: float) -> tuple[float, float]:
        th = theta
        acc_q = 0.0
        acc_p = 0.0
        # Horner in theta, highest power first
        for cqi, cpi in zip(reversed(self.cq), reversed(self.cp)):
            acc_q = acc_q * th + cqi
            acc_p = acc_p * th + cpi
        q = self.q0 + self.h * th * acc_q
        p = self.p0 + self.h * th * acc_p
        return q, p

    def eval_at(self, t: float) -> tuple[float, float]:
        return self.eval((t - self.t0) / self.h)

    @property
    def t1(self) -> float:
        return self.t0 + self.h


def _field(params: Params, pivot: PivotLaw, branch: float) -> Callable:
    l, g, mu = params.l, params.g, params.mu

    def f(t: float, q: float, p: float) -> tuple[float, float]:
        a = pivot.accel(t)
        mag = abs(a * math.cos(q) - l * p * p + g * math.sin(q))
        return p, (a / l) * math.sin(q) - (mu / l) * mag * branch - (g / l) * math.cos(q)

    return f


def _rk_step(f, t: float, q: float, p: float, h: float):
    """One DOPRI5 step: returns (q1, p1, err_q, err_p, K)."""
    kq = [0.0] * 7
    kp = [0.0] * 7
    kq[0], kp[0] = f(t, q, p)
    for i in range(1, 6):
        aq = q
        ap = p
        row = _A[i]
        for j, a_ij in enumerate(row):
            aq += h * a_ij * kq[j]
            ap += h * a_ij * kp[j]
        kq[i], kp[i] = f(t + _C[i] * h, aq, ap)
    q1 = q
    p1 = p
    for i in range(6):
        q1 += h * _B[i] * kq[i]
        p1 += h * _B[i] * kp[i]
    kq[6], kp[6] = f(t + h, q1, p1)
    err_q = 0.0
    err_p = 0.0
    for i in range(7):
        err_q += _E[i] * kq[i]
        err_p += _E[i] * kp[i]
    return q1, p1, h * err_q, h * err_p, (kq, kp)


def _dense_coeffs(kq, kp) -> tuple[tuple, tuple]:
    cq = []
    cp = []
    for col in range(4):
        sq = 0.0
        sp = 0.0
        for i in range(7):
            sq += kq[i] * _P[i][col]
            sp += kp[i] * _P[i][col]
        cq.append(sq)
        cp.append(sp)
    return tuple(cq), tuple(cp)


class StepUnderflow(RuntimeError):
    pass


def _accepted_step(f, t: float, q: float, p: float, h: float, tol: Tolerances):
    """The first accepted step from (t, q, p) of a stepper that tries steps
    of size min(h, max_dt) and shrinks each rejected one by the error
    control: (h, q1, p1, kq, kp, h_next), with h the size of the step.

    The error of an attempt is the RMS of its two error estimates, each
    scaled by abs_tol plus rel_tol times the larger magnitude at the two
    ends; an error up to 1 is accepted.  The factor applied to h is
    0.9 * err ** -0.2 within [0.2, 5] (5 for a zero error).  Nothing ends
    the step early here: no event and no end time.
    """
    h = min(h, tol.max_dt)
    while True:
        q1, p1, err_q, err_p, (kq, kp) = _rk_step(f, t, q, p, h)
        sq = tol.abs_tol + tol.rel_tol * max(abs(q), abs(q1))
        sp = tol.abs_tol + tol.rel_tol * max(abs(p), abs(p1))
        err = math.sqrt(0.5 * ((err_q / sq) ** 2 + (err_p / sp) ** 2))
        if err <= 1.0:
            break
        h *= max(0.2, 0.9 * err ** -0.2)
        if not h >= _MIN_STEP:
            raise StepUnderflow(f"step size underflow at t = {t}")
    factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
    return h, q1, p1, tuple(kq), tuple(kp), min(h * factor, tol.max_dt)


def _initial_step(f, t: float, q: float, p: float, tol: Tolerances) -> float:
    """Hairer-style starting step: scale off the field magnitude at t0."""
    dq, dp = f(t, q, p)
    d0 = math.hypot(q, p)
    d1 = math.hypot(dq, dp)
    scale = tol.abs_tol + tol.rel_tol * max(d0, 1.0)
    if d1 <= 1e-12:
        h = tol.max_dt
    else:
        h = 0.01 * scale ** 0.2 / max(d1, 1e-12) ** 0.2
        h = min(h, 0.1 * (1.0 + d0) / d1)
    return max(min(h, tol.max_dt), _MIN_STEP * 10)


def _poly_first_sign_change(seg: DenseSegment, sign0: float, theta_max: float = 1.0):
    """Smallest theta in (0, theta_max] where the dense p changes sign, or None.

    The quartic is scanned on a fixed subdivision; a transversal root cannot
    hide between scan points at the scales the step controller allows, and a
    grazing double root is caught later by the stick-band projection.
    """
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


def _guard_exit(seg: DenseSegment, theta_end: float, q_lo: float, q_hi: float):
    """Earliest theta in (0, theta_end] where the dense q leaves [q_lo, q_hi]."""
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

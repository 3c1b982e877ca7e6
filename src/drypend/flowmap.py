"""The linearised flow map of a recorded run of the friction pendulum.

`flow_map` computes Phi(t) = dx(t)/dx(t0), the 2x2 variational matrix of a
trajectory that `integrator.integrate` recorded, from that run alone: the
closed-form Jacobian of the slipping field, stepped over the run's own step
ends and its recorded times, and the jump of each event, the saltation
matrix of a crossing (Leine & Nijmeijer, Dynamics and Bifurcations of
Non-Smooth Mechanical Systems, 2004; Hiskens & Pai, IEEE TCAS-I 47, 2000),
the loss of dp at a stick entry and the time shift of a release.
`verification`'s continuous-dependence check predicts its epsilon(delta)
with it.  Where an event grazes, the map has no derivative, and
`Unresolved` says so instead of dividing by a near-zero denominator.
"""

from __future__ import annotations

import math

from .model import STUCK, Params, PivotLaw, State, branch_field, branch_jacobian, limit_fields
from .integrator import (
    CROSSING,
    STICK_ENTRY,
    STICK_RELEASE,
    Tolerances,
    Trajectory,
    classify_switch,
)

# A one-sided field at a crossing, or the time rate of the stiction margin at
# a release, this small against the terms that form it marks a grazing
# contact, where the flow map has no derivative to predict with.
_GRAZING = 1e-9


class Unresolved(ValueError):
    """No flow map to predict with: the base run meets p = 0 or a release
    tangentially, or its variational matrix leaves the float range."""


def _rk_column(x, y, u, v, h, ja, jm, jb):
    """One step of h of the column (x, y)' = (y, jq x + jp y) of the
    variational equation, for (jq, jp) = J at the step's start, middle and
    end: (x, y) by the classical 4th-order Runge-Kutta method and (u, v) by
    Kutta's 3rd-order one.  Returns the four new values."""
    (qa, pa), (qm, pm), (qb, pb) = ja, jm, jb
    hh = 0.5 * h
    w = h / 6.0
    k1x, k1y = y, qa * x + pa * y
    x2, y2 = x + hh * k1x, y + hh * k1y
    k2x, k2y = y2, qm * x2 + pm * y2
    x3, y3 = x + hh * k2x, y + hh * k2y
    k3x, k3y = y3, qm * x3 + pm * y3
    x4, y4 = x + h * k3x, y + h * k3y
    x, y = (
        x + w * (k1x + 2.0 * k2x + 2.0 * k3x + y4),
        y + w * (k1y + 2.0 * k2y + 2.0 * k3y + qb * x4 + pb * y4),
    )
    k1x, k1y = v, qa * u + pa * v
    u2, v2 = u + hh * k1x, v + hh * k1y
    k2x, k2y = v2, qm * u2 + pm * v2
    u3, v3 = u - h * k1x + 2.0 * h * k2x, v - h * k1y + 2.0 * h * k2y
    u, v = u + w * (k1x + 4.0 * k2x + v3), v + w * (k1y + 4.0 * k2y + qb * u3 + pb * v3)
    return x, y, u, v


def _rk(phi, psi, h, ja, jm, jb):
    """One step of h of X' = J(t) X, for J = [[0, 1], [jq, jp]] with
    (jq, jp) at the step's start, middle and end: phi by the classical
    4th-order Runge-Kutta method, psi by Kutta's 3rd-order one, both 2x2
    matrices as row-major 4-tuples."""
    a, c, a3, c3 = _rk_column(phi[0], phi[2], psi[0], psi[2], h, ja, jm, jb)
    b, d, b3, d3 = _rk_column(phi[1], phi[3], psi[1], psi[3], h, ja, jm, jb)
    return (a, b, c, d), (a3, b3, c3, d3)


def _hermite(theta, h, qa, pa, fa, qb, pb, fb):
    """The cubic Hermite of (q, p) on a stretch of length h, with values and
    slopes (p, f = dp/dt) at both ends, at theta in [0, 1]."""
    t2 = theta * theta
    t3 = t2 * theta
    h00, h10, h01, h11 = 2.0 * t3 - 3.0 * t2 + 1.0, t3 - 2.0 * t2 + theta, 3.0 * t2 - 2.0 * t3, t3 - t2
    return (
        h00 * qa + h10 * h * pa + h01 * qb + h11 * h * pb,
        h00 * pa + h10 * h * fa + h01 * pb + h11 * h * fb,
    )


def _release_rate(params: Params, pivot: PivotLaw, q: float, t: float) -> float:
    """dt/dq of a release at (q, t): -(dm/dq)/(dm/dt) for the stiction margin
    m = |drift| - bound.  Unresolved where dm/dt is near zero: a tangential
    release."""
    l, g, mu = params.l, params.g, params.mu
    a, rate = pivot.accel(t), pivot.rate(t)
    s, c = math.sin(q), math.cos(q)
    sd = math.copysign(1.0, a * s - g * c)
    sn = math.copysign(1.0, a * c + g * s)
    m_q = (sd * (a * c + g * s) - mu * sn * (g * c - a * s)) / l
    m_t = rate * (sd * s - mu * sn * c) / l
    if not abs(m_t) > _GRAZING * pivot.lipschitz_bound * (1.0 + mu) / l:
        raise Unresolved(f"tangential release at t = {t!r}")
    return -m_q / m_t


def flow_map(params: Params, pivot: PivotLaw, traj: Trajectory) -> tuple[list, list]:
    """The variational matrix Phi(t) = dx(t)/dx(t0) of a trajectory at each
    of its recorded times, with a 3rd-order companion, as row-major 4-tuples.

    The trajectory must be recorded at its start and at its end.  Between
    the events, Phi' = J Phi is stepped by the classical Runge-Kutta method
    over the run's own step ends merged with its recorded times,
    with J the closed-form Jacobian of the slipping field
    (`model.branch_jacobian`) at each interval's ends and at the middle of
    the cubic Hermite through them.  The run ends a step on every knot of
    the pivot law and every sign change of the normal force N, where J has
    a kink, so no interval straddles one: J takes the side of N at the
    interval's middle, also at an end whose N rounds to the other side.  A
    step end at the time of an event is left out, as the event's jump
    covers it.  Stuck, Phi stays.  At each event Phi takes the event's jump:

    - a crossing the saltation matrix I + (f+ - f-) n^T / (n^T f-) with
      n = (0, 1), that is diag(1, f+/f-) for the one-sided dp/dt f- of the
      side left and f+ of the side entered;
    - a stick entry, and a stuck start, zero dp;
    - a release shifts the time by dt = -(dm/dq)/(dm/dt) dq, for the
      stiction margin m, which leaves dp = -f+ dt.

    Unresolved where a crossing's f- is near zero or does not share the sign
    of f+, where a release is tangential (`_release_rate`), and where p
    changes sign between two step ends with no event.  The companion is
    stepped alike by Kutta's 3rd-order method; its distance from Phi bounds
    Phi's own discretisation error.  The pass evaluates each kernel a few
    times per step end and recorded time, far fewer times than a run does.
    """
    mu = params.mu
    kernels = {
        b: (branch_field(params, pivot, b), branch_jacobian(params, pivot, b))
        for b in ((1.0, -1.0) if mu != 0.0 else (0.0,))
    }

    def node(f, jac, t, q, p):
        # (dp/dt, d(dp/dt)/dq, d(dp/dt)/dp, N) at an interval's end
        return (f(t, q, p)[1], *jac(t, q, p))

    def slipping(phi, psi, jac, ta, qa, pa, la, tb, qb, pb, lb):
        # one step from a to b, with la and lb node() at the ends
        h = tb - ta
        if not h > 0.0:
            return phi, psi
        jm = jac(ta + 0.5 * h, *_hermite(0.5, h, qa, pa, la[0], qb, pb, lb[0]))
        positive = jm[2] > 0.0
        side = 1.0 if positive else -1.0
        ja = la[1:3] if (la[3] > 0.0) == positive else jac(ta, qa, pa, side)[:2]
        jb = lb[1:3] if (lb[3] > 0.0) == positive else jac(tb, qb, pb, side)[:2]
        return _rk(phi, psi, h, ja, jm[:2], jb)

    rec = traj.recorded
    events = [
        e for e in traj.events
        if e.kind in (CROSSING, STICK_RELEASE) or (e.kind == STICK_ENTRY and e.t > rec[0].t)
    ]
    at_event = {e.t for e in traj.events}
    # (t, q, p, recorded?): the recorded times and the run's step ends
    points = sorted(
        [(s.t, s.q, s.p, True) for s in rec[1:]]
        + [(t, q, p, False) for t, q, p, _ in traj.samples[1:] if t not in at_event]
    )
    start = rec[0]
    branch = None if start.mode == STUCK else (math.copysign(1.0, start.p) if mu != 0.0 else 0.0)
    phi = psi = (1.0, 0.0, 0.0, 1.0)
    phis, psis = [phi], [psi]
    if branch is None:  # a stuck start zeroes dp right after t0
        phi = psi = (1.0, 0.0, 0.0, 0.0)
    ta, qa, pa = start.t, start.q, start.p
    f, jac = kernels.get(branch, (None, None))
    la = node(f, jac, ta, qa, pa) if f else None
    i = 0
    for t, q, p, recorded in points:
        while i < len(events) and events[i].t <= t:
            e = events[i]
            i += 1
            if branch is not None:
                lb = node(f, jac, e.t, e.q, 0.0)
                phi, psi = slipping(phi, psi, jac, ta, qa, pa, la, e.t, e.q, 0.0, lb)
            if e.kind == STICK_ENTRY:
                phi, psi, branch = (*phi[:2], 0.0, 0.0), (*psi[:2], 0.0, 0.0), None
            else:
                if e.kind == CROSSING:
                    r = _saltation(params, pivot, e.q, e.t, e.direction)
                    phi, psi = (*phi[:2], r * phi[2], r * phi[3]), (*psi[:2], r * psi[2], r * psi[3])
                else:
                    f_new = limit_fields(params, pivot, e.q, e.t)[0 if e.direction > 0 else 1]
                    r = -f_new * _release_rate(params, pivot, e.q, e.t)
                    phi, psi = (*phi[:2], r * phi[0], r * phi[1]), (*psi[:2], r * psi[0], r * psi[1])
                branch = float(e.direction)
                f, jac = kernels[branch]
                la = node(f, jac, e.t, e.q, 0.0)
            ta, qa, pa = e.t, e.q, 0.0
        if branch is not None:
            if p * branch < 0.0:
                raise Unresolved(f"p changes sign with no event by t = {t!r}")
            lb = node(f, jac, t, q, p)
            phi, psi = slipping(phi, psi, jac, ta, qa, pa, la, t, q, p, lb)
            la = lb
        if recorded:
            phis.append(phi)
            psis.append(psi)
        ta, qa, pa = t, q, p
    return phis, psis


def _saltation(params: Params, pivot: PivotLaw, q: float, t: float, d: int) -> float:
    """f+/f-, the dp entry of the saltation matrix of a crossing at (q, t)
    onto the side d, from the one-sided dp/dt f- of the side left and f+ of
    the side entered.  Unresolved, a grazing contact, unless f- clears zero
    and shares the sign of f+."""
    f_plus, f_minus = limit_fields(params, pivot, q, t)
    f_new, f_old = (f_plus, f_minus) if d > 0 else (f_minus, f_plus)
    scale = (abs(pivot.accel(t)) + params.g) * (1.0 + params.mu) / params.l
    if not (abs(f_old) > _GRAZING * scale and f_old * f_new > 0.0):
        raise Unresolved(f"grazing crossing at t = {t!r}")
    return f_new / f_old


def start_jump(params: Params, pivot: PivotLaw, start: State, tol: Tolerances):
    """(d, r) for a start on p = 0 that the run leaves by crossing onto the
    side d: a perturbation that puts p on the other side crosses there too,
    and its dp is scaled by the saltation r.  (0, 1.0) for any other start."""
    if params.mu == 0.0 or start.mode == STUCK or abs(start.p) > tol.stick_band:
        return 0, 1.0
    d = classify_switch(params, pivot, start.q, start.t)
    return (d, _saltation(params, pivot, start.q, start.t, d)) if d else (0, 1.0)

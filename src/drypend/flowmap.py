"""The linearised flow map of a recorded run of the friction pendulum.

`flow_map` computes Phi(t) = dx(t)/dx(t0), the 2x2 variational matrix of a
trajectory that `integrator.integrate` recorded, from that run alone: the
closed-form Jacobian of the slipping field between the recorded times, and
the jump of each event, the saltation matrix of a crossing (Leine &
Nijmeijer, Dynamics and Bifurcations of Non-Smooth Mechanical Systems,
2004; Hiskens & Pai, IEEE TCAS-I 47, 2000), the loss of dp at a stick
entry and the time shift of a release.  `verification`'s continuous-
dependence check predicts its epsilon(delta) with it.  Where an event
grazes, the map has no derivative, and `Unresolved` says so instead of
dividing by a near-zero denominator.
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


def _rk4_state(f, t, q, p, h):
    """(q, p) one classical Runge-Kutta step of h from (t, q, p) under the
    field f."""
    k1q, k1p = f(t, q, p)
    k2q, k2p = f(t + 0.5 * h, q + 0.5 * h * k1q, p + 0.5 * h * k1p)
    k3q, k3p = f(t + 0.5 * h, q + 0.5 * h * k2q, p + 0.5 * h * k2p)
    k4q, k4p = f(t + h, q + h * k3q, p + h * k3p)
    w = h / 6.0
    return q + w * (k1q + 2.0 * k2q + 2.0 * k3q + k4q), p + w * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)


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
    the recorded times and the events, Phi' = J Phi is stepped by the
    classical Runge-Kutta method, with J the closed-form Jacobian of the
    slipping field (`model.branch_jacobian`) at the ends and at the middle
    of the cubic Hermite through them.  Where the normal force N changes
    sign on that Hermite, J jumps: the stretch is split at the root of N,
    placed by Newton steps on states stepped from the stretch's start by
    Runge-Kutta (the Hermite of p, whose slope has a kink there, misplaces
    it), and J takes each part's side there.  Stuck, Phi stays.  At each
    event Phi takes the event's jump:

    - a crossing the saltation matrix I + (f+ - f-) n^T / (n^T f-) with
      n = (0, 1), that is diag(1, f+/f-) for the one-sided dp/dt f- of the
      side left and f+ of the side entered;
    - a stick entry, and a stuck start, zero dp;
    - a release shifts the time by dt = -(dm/dq)/(dm/dt) dq, for the
      stiction margin m, which leaves dp = -f+ dt.

    Unresolved where a crossing's f- is near zero or does not share the sign
    of f+, where a release is tangential (`_release_rate`), and where p
    changes sign between two recorded times with no event.  The companion
    is stepped alike by Kutta's 3rd-order method; its distance from Phi
    bounds Phi's own discretisation error.  The pass evaluates each kernel
    a few times per recorded time, far fewer times than a run does.
    """
    l, g, mu = params.l, params.g, params.mu
    kernels = {
        b: (branch_field(params, pivot, b), branch_jacobian(params, pivot, b))
        for b in ((1.0, -1.0) if mu != 0.0 else (0.0,))
    }

    def node(f, jac, t, q, p, side=0.0):
        # (dp/dt, d(dp/dt)/dq, d(dp/dt)/dp, N) at a stretch's end
        return (f(t, q, p)[1], *jac(t, q, p, side))

    def steps(phi, psi, jac, ta, qa, pa, la, tb, qb, pb, lb, jm=None):
        # one step from a to b, J in the middle at the Hermite's state
        h = tb - ta
        if jm is None:
            jm = jac(ta + 0.5 * h, *_hermite(0.5, h, qa, pa, la[0], qb, pb, lb[0]))
        return _rk(phi, psi, h, la[1:3], jm[:2], lb[1:3])

    def slipping(phi, psi, f, jac, ta, qa, pa, la, tb, qb, pb, lb):
        # la, lb: node() at the ends
        h = tb - ta
        if not h > 0.0:
            return phi, psi
        t_knot = pivot.piece(ta)[0]
        if t_knot < tb:
            # dJ/dt jumps at a knot of the pivot law: step to it and on
            qk, pk = _rk4_state(f, ta, qa, pa, t_knot - ta)
            lk = node(f, jac, t_knot, qk, pk)
            phi, psi = slipping(phi, psi, f, jac, ta, qa, pa, la, t_knot, qk, pk, lk)
            return slipping(phi, psi, f, jac, t_knot, qk, pk, lk, tb, qb, pb, lb)
        jm = jac(ta + 0.5 * h, *_hermite(0.5, h, qa, pa, la[0], qb, pb, lb[0]))
        na, nm = la[3] > 0.0, jm[2] > 0.0
        if mu == 0.0 or na == nm == (lb[3] > 0.0):
            return steps(phi, psi, jac, ta, qa, pa, la, tb, qb, pb, lb, jm)
        # bracket the first sign change of N on the Hermite, then place it
        # by Newton steps on Runge-Kutta states from a
        lo, hi = (0.0, 0.5) if na != nm else (0.5, 1.0)
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            q, p = _hermite(mid, h, qa, pa, la[0], qb, pb, lb[0])
            if (jac(ta + mid * h, q, p)[2] > 0.0) == na:
                lo = mid
            else:
                hi = mid
        tk = ta + hi * h
        for _ in range(3):
            qk, pk = _rk4_state(f, ta, qa, pa, tk - ta)
            dp, _, _, n = node(f, jac, tk, qk, pk)
            a, sk, ck = pivot.accel(tk), math.sin(qk), math.cos(qk)
            n_dot = pivot.rate(tk) * ck + (g * ck - a * sk) * pk - 2.0 * l * pk * dp
            if not n_dot:
                break
            tk = min(max(tk - n / n_dot, ta), tb)
        qk, pk = _rk4_state(f, ta, qa, pa, tk - ta)
        side = 1.0 if na else -1.0
        phi, psi = steps(phi, psi, jac, ta, qa, pa, la, tk, qk, pk, node(f, jac, tk, qk, pk, side))
        return steps(phi, psi, jac, tk, qk, pk, node(f, jac, tk, qk, pk, -side), tb, qb, pb, lb)

    rec = traj.recorded
    events = [
        e for e in traj.events
        if e.kind in (CROSSING, STICK_RELEASE) or (e.kind == STICK_ENTRY and e.t > rec[0].t)
    ]
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
    for s in rec[1:]:
        while i < len(events) and events[i].t <= s.t:
            e = events[i]
            i += 1
            if branch is not None:
                lb = node(f, jac, e.t, e.q, 0.0)
                phi, psi = slipping(phi, psi, f, jac, ta, qa, pa, la, e.t, e.q, 0.0, lb)
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
            if s.p * branch < 0.0:
                raise Unresolved(f"p changes sign with no event by t = {s.t!r}")
            lb = node(f, jac, s.t, s.q, s.p)
            phi, psi = slipping(phi, psi, f, jac, ta, qa, pa, la, s.t, s.q, s.p, lb)
            la = lb
        phis.append(phi)
        psis.append(psi)
        ta, qa, pa = s.t, s.q, s.p
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

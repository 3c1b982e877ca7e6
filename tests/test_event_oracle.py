"""Stick-slip runs against an event oracle that shares no code with the
integrator.

The oracle steps each slipping stretch with `scipy.integrate.solve_ivp`
(DOP853, its own step control), from knot to knot of a table law, and ends
it with `events=` on p = 0.  It decides stick or cross from the one-sided
limits written out again here, and finds each release on a fine grid of the
stiction margin, refined by `brentq`.  Its pivot laws are numpy's
arithmetic, not the laws' own `accel`.  On drawn stick-slip scenarios of all
four pivot kinds, the integrator's events must have the oracle's kinds in
the oracle's order, at times that agree within `TIME_TOL`.  A draw on which
some oracle decision is not clear (a grazing landing on p = 0, a stick/cross
rule or a release direction near 0, a margin the grid could step over, an
event near the horizon) is rejected rather than compared.

Every stuck row of a run must satisfy static friction up to rounding, but
for a release row: it lies at most one `event_tol` past the root of the
margin, so it may miss by the margin's Lipschitz constant times that.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from drypend import cli
from drypend.integrator import STICK_RELEASE, Tolerances, integrate
from drypend.model import STUCK, ConstantPivot, Params, PolyPivot, SinePivot, State, TablePivot

HERE = os.path.dirname(os.path.abspath(__file__))
FILES = (
    os.path.join(HERE, os.pardir, "perfbench", "scenarios", "release_window_fault.json"),
    os.path.join(HERE, "golden_inputs", "table_stickslip.json"),
)
TIGHT = Tolerances(rel_tol=1e-11, abs_tol=1e-13, event_tol=1e-12, stick_band=1e-10)
GRID = 2e-5  # the oracle's margin grid step (s)
CLEAR = 1e-3  # how far from 0 each quantity an oracle decision reads must be
TIME_TOL = 1e-6


class Unclear(Exception):
    """An oracle decision too close to call."""


def accel(pivot, t):
    """a(t) by numpy, for a float or an array of times."""
    if isinstance(pivot, ConstantPivot):
        return np.full_like(np.asarray(t, dtype=float), pivot.a)
    if isinstance(pivot, SinePivot):
        return pivot.amp * np.sin(pivot.omega * np.asarray(t) + pivot.phase)
    if isinstance(pivot, PolyPivot):
        return np.polynomial.polynomial.polyval(t, pivot.coeffs)
    return np.interp(t, pivot.times, pivot.values)


def limits(params, a, q):
    """(drift, bound) of dp/dt on p = 0."""
    l, g, mu = params.l, params.g, params.mu
    drift = (a * np.sin(q) - g * np.cos(q)) / l
    return drift, mu * np.abs(a * np.cos(q) + g * np.sin(q)) / l


def margin(params, pivot, q, t):
    drift, bound = limits(params, accel(pivot, t), q)
    return np.abs(drift) - bound


def margin_lipschitz(params, pivot, q):
    """A Lipschitz constant in t of the margin at the angle q."""
    return pivot.lipschitz_bound / params.l * (abs(math.sin(q)) + params.mu * abs(math.cos(q)))


def _slip(params, pivot, t, q, p, branch, horizon):
    """Step on the branch sign(p) = `branch` until p returns to 0: (t, q) of
    that landing, or None at the horizon.  A start on p = 0 starts 1e-12 off
    it, on the branch's side: p may turn back within the solver's first
    step, and a root there would otherwise be placed at the start."""
    l, g, mu = params.l, params.g, params.mu
    p = p or branch * 1e-12

    def rhs(t, y):
        q, p = y
        a = float(accel(pivot, t))
        normal = a * math.cos(q) - l * p * p + g * math.sin(q)
        return [p, (a * math.sin(q) - mu * abs(normal) * branch - g * math.cos(q)) / l]

    def landing(t, y):
        return y[1]

    landing.terminal, landing.direction = True, -branch
    knots = [k for k in getattr(pivot, "times", ()) if t < k < horizon]
    for t_end in [*knots, horizon]:
        sol = solve_ivp(rhs, (t, t_end), [q, p], "DOP853", events=landing, rtol=1e-12, atol=1e-13)
        if sol.t_events[0].size:
            t_hit, (q_hit, _) = sol.t_events[0][0], sol.y_events[0][0]
            if abs(rhs(t_hit, [q_hit, 0.0])[1]) < CLEAR:  # a grazing landing
                raise Unclear
            return t_hit, q_hit
        t, (q, p) = t_end, sol.y[:, -1]
    return None


def _first_root(params, pivot, q, a, b, lipschitz):
    """The first time in [a, b] at which the margin at q turns positive, or
    None.  A grid of 1,000 steps is refined in each step where the margin's
    Lipschitz constant lets it reach 0, down to steps of 1e-9 s, which is the
    oracle's resolution: a window of release shorter than that goes unseen."""
    grid = np.linspace(a, b, 1001)
    m = margin(params, pivot, q, grid)
    h = (b - a) / 1000
    for i in np.flatnonzero(m[:-1] + m[1:] + lipschitz * h > 0.0):
        if h > 1e-9:
            root = _first_root(params, pivot, q, grid[i], grid[i + 1], lipschitz)
            if root is not None:
                return root
        elif m[i + 1] > 0.0:
            return brentq(lambda s: float(margin(params, pivot, q, s)), grid[i], grid[i + 1], xtol=1e-15)
    return None


def _release(params, pivot, t, q, horizon):
    """The first time after t at which the margin at q turns positive, or None."""
    lipschitz = margin_lipschitz(params, pivot, q)
    for start in np.arange(t, horizon, GRID * 1000):
        root = _first_root(params, pivot, q, start, min(start + GRID * 1000, horizon), lipschitz)
        if root is not None:
            return root
    return None


def oracle_events(params, pivot, state, horizon):
    """[(kind, t), ...] of the motion from `state` up to the horizon."""
    events, q, p, t = [], state.q, state.p, state.t
    branch = math.copysign(1.0, p) if p else _decide(params, pivot, t, q, events, landing=False)
    while True:
        if branch == 0:
            t = _release(params, pivot, t, q, horizon)
            if t is None:
                break
            drift, _ = limits(params, float(accel(pivot, t)), q)
            if abs(drift) < CLEAR:
                raise Unclear
            events.append(("stick_release", t))
            branch = math.copysign(1.0, drift)
        hit = _slip(params, pivot, t, q, p, branch, horizon)
        if hit is None:
            break
        (t, q), p = hit, 0.0
        branch = _decide(params, pivot, t, q, events)
        if len(events) > 1000:  # chatter no run here comes near
            raise Unclear
    events.append(("horizon", horizon))
    if any(horizon - t_event < 1e-5 for _, t_event in events[:-1]):
        raise Unclear
    return events


def _decide(params, pivot, t, q, events, landing=True):
    """The stick/cross rule on p = 0: 0 to stick, else the sign of p after
    the crossing; a start on the surface that crosses is no event."""
    drift, bound = limits(params, float(accel(pivot, t)), q)
    f_plus, f_minus = drift - bound, drift + bound
    if min(abs(f_plus), abs(f_minus)) < CLEAR:
        raise Unclear
    if f_plus < 0.0 < f_minus:
        events.append(("stick_entry", t))
        return 0
    if landing:
        events.append(("crossing", t))
    return 1.0 if f_plus > 0.0 else -1.0


def check_stuck_rows(traj, params, pivot, event_tol):
    """Static friction on every stuck row up to rounding; a release row may
    miss by the margin's Lipschitz constant times event_tol."""
    releases = {e.t for e in traj.events if e.kind == STICK_RELEASE}
    for t, q, p, mode in traj.samples:
        if mode != STUCK:
            continue
        a = abs(float(accel(pivot, t)))
        rounding = 1e-12 * (a + params.g) * (1.0 + params.mu) / params.l
        allowed = rounding + (margin_lipschitz(params, pivot, q) * event_tol if t in releases else 0.0)
        assert margin(params, pivot, q, t) <= allowed, (t, q, t in releases, pivot.to_dict())


def compare(params, pivot, state, horizon, tol):
    traj = integrate(state, params, pivot, horizon, tol)
    check_stuck_rows(traj, params, pivot, tol.event_tol)
    try:
        expected = oracle_events(params, pivot, state, horizon)
    except Unclear:
        return None
    got = [(e.kind, e.t) for e in traj.events]
    assert [k for k, _ in got] == [k for k, _ in expected]
    for (kind, t), (_, t_ref) in zip(got, expected):
        assert t == pytest.approx(t_ref, abs=TIME_TOL), kind
    return got


@st.composite
def stick_slip(draw):
    """Strong friction and a strong pivot law, from a state that moves or,
    half the time, from one inside the stiction set at the start."""
    params = Params(l=draw(st.floats(0.5, 2.0)), mu=draw(st.floats(0.2, 0.9)))
    horizon = draw(st.floats(1.0, 5.0))
    kind = draw(st.sampled_from(["constant", "sine", "table", "poly"]))
    if kind == "constant":
        pivot = ConstantPivot(draw(st.floats(-15.0, 15.0)))
    elif kind == "sine":
        pivot = SinePivot(draw(st.floats(3.0, 25.0)), draw(st.floats(0.5, 6.0)), draw(st.floats(-3.0, 3.0)))
    elif kind == "table":
        gaps = draw(st.lists(st.floats(0.2, 1.0), min_size=2, max_size=8))
        times = np.cumsum([0.0, *gaps]).tolist()
        values = draw(st.lists(st.floats(-20.0, 20.0), min_size=len(times), max_size=len(times)))
        pivot = TablePivot(times, values)
    else:
        coeffs = [draw(st.floats(-15.0, 15.0)), draw(st.floats(-10.0, 10.0)), draw(st.floats(-3.0, 3.0))]
        pivot = PolyPivot(coeffs + [draw(st.floats(-1.0, 1.0))], t_max=horizon + 1.0)
    if draw(st.booleans()):
        # static friction holds where |tan(q - phi)| <= mu, phi = atan2(g, a(0))
        phi, half = math.atan2(params.g, float(accel(pivot, 0.0))), 0.9 * math.atan(params.mu)
        return params, pivot, State(q=draw(st.floats(phi - half, phi + half)), p=0.0, t=0.0), horizon
    p0 = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return params, pivot, State(q=draw(st.floats(0.4, 2.7)), p=p0, t=0.0), horizon


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stick_slip())
# releases through the upper level of a poly law, and through both levels of a sine law
@example((Params(l=0.5, mu=0.216), PolyPivot([0.0, 5.95, 0.0, 0.0], t_max=2.0), State(1.3793, 0.0, 0.0), 1.0))
@example((Params(mu=0.5), SinePivot(6.0, 1.0), State(math.pi / 2, 0.0, 0.0), 4.0))
# a negligible cubic term once hid the extremum a(1.5) = -4.5 from the
# poly law's bound, which then read 0: the state was held to the horizon
# and its stuck rows broke stiction from t = 1.05 on
@example(
    (
        Params(mu=0.5), PolyPivot([0.0, -6.0, 2.0, 1.3935687331406293e-200], t_max=3.0),
        State(1.5, 0.0, 0.0), 2.0,
    )
)
def test_events_match_the_oracle_on_drawn_stick_slip_runs(case):
    params, pivot, state, horizon = case
    got = compare(params, pivot, state, horizon, TIGHT)
    assume(got is not None)


@pytest.mark.parametrize("path", FILES, ids=os.path.basename)
def test_events_and_stuck_rows_of_the_stick_slip_files(path):
    scen = cli.load_scenario(path)
    got = compare(scen.params, scen.pivot, scen.start, scen.horizon, scen.tolerances)
    assert got is not None  # every oracle decision on these files is clear
    assert any(kind == STICK_RELEASE for kind, _ in got)

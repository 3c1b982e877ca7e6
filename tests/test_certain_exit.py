"""The frictionless certain-exit test of `classify_exit`.

Without friction, `classify_exit` ends an integration at the first step's
end from which the motion provably leaves G = (0, pi) on one side before the
horizon (`wazewski._certain_exit`).  The comparison argument behind it is
checked against the worst-case constant law and, on sine and table laws,
against scipy's event location; the shortcut is checked to change no
classification and to stay off wherever it does not apply.
"""

import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from drypend import wazewski
from drypend.integrator import REGION_EXIT, SIDE_HIGH, SIDE_LOW, Tolerances, integrate
from drypend.model import ConstantPivot, Params, PolyPivot, SinePivot, State, TablePivot
from drypend.wazewski import (
    EXIT_HIGH,
    EXIT_LOW,
    PreconditionFailed,
    SigmaCurve,
    bisect_curve,
    classify_exit,
)

TOL = Tolerances()
GUARD = (0.0, math.pi)
DRAWS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _least_speed(params: Params, a_max: float, u: float) -> float:
    """The speed toward the boundary below which the worst-case law a = a_max
    (in the mirror coordinate u) can stop the descent from u: the square
    root of twice the energy barrier over [0, u]."""
    l, g = params.l, params.g
    q_c = math.atan2(g, a_max)
    if u <= q_c:
        return 0.0
    return math.sqrt(2.0 * (math.hypot(a_max, g) - a_max * math.cos(u) - g * math.sin(u)) / l)


@st.composite
def descents(draw):
    """Frictionless params, a bound A, and a state moving toward one side
    with a speed at or above the barrier of the worst-case law, often only
    just above it, and a horizon."""
    params = Params(l=draw(st.floats(0.3, 3.0)), g=draw(st.floats(1.0, 20.0)), mu=0.0)
    a_max = draw(st.floats(0.0, 30.0))
    t = draw(st.floats(0.0, 5.0))
    u = draw(st.floats(1e-6, math.pi - 1e-6))
    low = draw(st.booleans())
    speed = _least_speed(params, a_max, u) + 10.0 ** draw(st.floats(-7.0, 1.0))
    q, p = (u, -speed) if low else (math.pi - u, speed)
    horizon = t + 10.0 ** draw(st.floats(-2.0, 1.3))
    return params, a_max, State(q=q, p=p, t=t, mode="slip"), horizon


@DRAWS
@given(descents())
def test_a_certain_exit_leaves_on_its_side_under_the_worst_case_law(case):
    params, a_max, state, horizon = case
    test = wazewski._certain_exit(params, ConstantPivot(a_max), horizon, TOL)
    side = test(state.t, state.q, state.p)
    assume(side is not None)
    assert side == (SIDE_LOW if state.p < 0 else SIDE_HIGH)
    # a = +A pulls a low descent back up, a = -A a high one
    worst = ConstantPivot(a_max if side == SIDE_LOW else -a_max)
    traj = integrate(state, params, worst, horizon, TOL, region_guard=GUARD)
    last = traj.events[-1]
    assert last.kind == REGION_EXIT and last.side == side
    assert last.t < horizon


def _laws(draw, a_max: float):
    """A sine or table law with |a| <= a_max that reaches it."""
    if draw(st.booleans()):
        return SinePivot(a_max, draw(st.floats(0.1, 10.0)), draw(st.floats(-3.0, 3.0)))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=8))
    values.append(1.0 if draw(st.booleans()) else -1.0)
    return TablePivot([0.7 * k for k in range(len(values))], [a_max * v for v in values])


@DRAWS
@given(descents(), st.data())
def test_a_certain_exit_leaves_on_its_side_under_scipy(case, data):
    from scipy.integrate import solve_ivp

    params, a_max, state, horizon = case
    pivot = _laws(data.draw, a_max)
    assert pivot.accel_bound == a_max
    side = wazewski._certain_exit(params, pivot, horizon, TOL)(state.t, state.q, state.p)
    assume(side is not None)
    l, g = params.l, params.g

    def field(t, y):
        return [y[1], (pivot.accel(t) * math.sin(y[0]) - g * math.cos(y[0])) / l]

    def low(t, y):
        return y[0]

    def high(t, y):
        return y[0] - math.pi

    low.terminal = high.terminal = True
    sol = solve_ivp(
        field, (state.t, horizon), [state.q, state.p], method="DOP853", rtol=1e-11,
        atol=1e-12, max_step=0.01, events=(low, high),
    )
    hits = sol.t_events[0 if side == SIDE_LOW else 1]
    assert sol.status == 1 and len(hits) == 1 and hits[0] < horizon
    assert len(sol.t_events[1 if side == SIDE_LOW else 0]) == 0


def _recording(monkeypatch):
    """Wrap `_certain_exit` so that every side its tests return is kept."""
    fired = []
    real = wazewski._certain_exit

    def wrapped(*args):
        test = real(*args)
        if test is None:
            return None

        def recording(t, q, p):
            side = test(t, q, p)
            if side is not None:
                fired.append((t, q, p, side))
            return side

        return recording

    monkeypatch.setattr(wazewski, "_certain_exit", wrapped)
    return fired


@st.composite
def frictionless_curves(draw):
    """A frictionless curve scenario of one of the four pivot kinds."""
    params = Params(l=draw(st.floats(0.5, 2.0)), mu=0.0)
    amp = draw(st.floats(0.0, 12.0))
    kind = draw(st.sampled_from(["constant", "sine", "table", "poly"]))
    if kind == "constant":
        pivot = ConstantPivot(draw(st.floats(-amp, amp)))
    elif kind == "sine":
        pivot = SinePivot(amp, draw(st.floats(0.1, 10.0)), draw(st.floats(-3.0, 3.0)))
    elif kind == "table":
        values = draw(st.lists(st.floats(-amp, amp), min_size=2, max_size=6))
        pivot = TablePivot([1.5 * k for k in range(len(values))], values)
    else:
        pivot = PolyPivot([amp / 2, draw(st.floats(-1.0, 1.0)), -amp / 50], t_max=20.0)
    curve = SigmaCurve.line(shift=draw(st.floats(-1.2, 1.2)))
    q0 = draw(st.floats(0.0, math.pi))
    return q0, curve, params, pivot, draw(st.floats(0.5, 15.0))


@DRAWS
@given(frictionless_curves())
def test_the_shortcut_changes_no_classification(case):
    q0, curve, params, pivot, horizon = case
    with pytest.MonkeyPatch.context() as patch:
        fired = _recording(patch)
        short = classify_exit(q0, curve, params, pivot, horizon, TOL)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wazewski, "_certain_exit", lambda *args: None)
        full = classify_exit(q0, curve, params, pivot, horizon, TOL)
    assert short.outcome == full.outcome
    if short.exit_event is not None:
        assert short.exit_event.side == full.exit_event.side
        assert short.exit_event.t <= full.exit_event.t
    # up to where the exit became certain, the two integrations are the same
    samples = short.trajectory.samples
    assert samples == full.trajectory.samples[: len(samples)]
    if fired:
        assert len(fired) == 1 and short.exit_event.t == fired[0][0]
        assert short.outcome == (EXIT_LOW if fired[0][3] == SIDE_LOW else EXIT_HIGH)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(frictionless_curves())
def test_the_shortcut_changes_no_bisection(case):
    _, curve, params, pivot, horizon = case

    def path():
        try:
            res = bisect_curve(curve, params, pivot, horizon, TOL)
        except PreconditionFailed as exc:
            return str(exc)
        return res.to_dict(), [(e.q0, e.outcome) for e in res.history]

    shortcut = path()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wazewski, "_certain_exit", lambda *args: None)
        assert path() == shortcut


def test_the_shortcut_fires_on_a_falling_frictionless_run(monkeypatch):
    fired = _recording(monkeypatch)
    r = classify_exit(0.4, SigmaCurve.line(), Params(mu=0.0), SinePivot(2.0, 1.0), 20.0, TOL)
    assert r.outcome == EXIT_LOW and len(fired) == 1
    assert 0.0 < r.exit_event.q < 0.4 and r.trajectory.final.t == r.exit_event.t


@pytest.mark.parametrize(
    "params, pivot, horizon",
    [
        (Params(mu=0.5), SinePivot(2.0, 1.0), 20.0),
        (Params(mu=1e-9), ConstantPivot(0.0), 20.0),
        # a bound past the float range: -A cos q would be NaN at q = pi/2
        (Params(mu=0.0), ConstantPivot(math.inf), 20.0),
        (Params(mu=0.0), ConstantPivot(math.nan), 20.0),
        (Params(mu=0.0), PolyPivot([1.0, 0.5], t_max=10.0), 10.5),
    ],
    ids=["friction", "tiny-friction", "infinite-bound", "nan-bound", "poly-past-t_max"],
)
def test_no_test_where_the_argument_does_not_hold(params, pivot, horizon):
    assert wazewski._certain_exit(params, pivot, horizon, TOL) is None


def test_a_poly_law_within_its_window_has_the_test():
    params = Params(mu=0.0)
    assert wazewski._certain_exit(params, PolyPivot([1.0, 0.5], t_max=10.0), 10.0, TOL) is not None


@pytest.mark.parametrize("q0", [0.0, math.pi])
def test_a_start_on_the_boundary_exits_before_any_test(monkeypatch, q0):
    fired = _recording(monkeypatch)
    r = classify_exit(q0, SigmaCurve.line(), Params(mu=0.0), SinePivot(3.0, 2.0), 10.0, TOL)
    assert r.outcome == (EXIT_LOW if q0 == 0.0 else EXIT_HIGH)
    assert r.exit_event.t == 0.0 and fired == []


"""Every run ends: a stuck state no reachable acceleration can release holds
to the horizon at once, and a step budget bounds each integration.

The reproducers run the real CLI in a subprocess under a time limit, so a
hang fails the test instead of stalling the suite; the step budget under
each curve command runs in-process, with the budget lowered.
"""

import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from drypend import cli, integrator
from drypend.integrator import HORIZON, StepLimit, Tolerances, integrate, slide_until_release
from drypend.model import ConstantPivot, Params, PolyPivot, SinePivot, State, TablePivot

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
# a curve whose ends leave the region at once and whose first midpoint, the
# apex at rest, leaves it after 27 steps; `verify` steps 100 from the apex
FALLING_CURVE = os.path.join(
    os.path.dirname(__file__), os.pardir, "scenarios", "frictionless_forced.json"
)


def run_cli(tmp_path, scenario, command="simulate", timeout=60):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "drypend.cli", command, str(path), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return proc, time.monotonic() - start


def test_unreleasable_stuck_state_holds_to_the_horizon_at_once(tmp_path):
    # at q = pi/2 static friction holds for |a| <= mu g = 4.9, and the law
    # never exceeds 1; its rate, 1e17, once made the release scan's step
    # fall below the spacing of doubles
    start = time.monotonic()
    traj = integrate(State(q=1.5707963267948966, p=0.0, t=0.0), Params(mu=0.5), SinePivot(1.0, 1e17), 2.0)
    assert time.monotonic() - start < 5
    assert [e.kind for e in traj.events] == ["stick_entry", "horizon"]
    # its period, 6.3e-17 s, lies below the spacing of doubles near t = 2,
    # so a scenario file with it is refused when loaded
    scenario = {
        "params": {"mu": 0.5},
        "pivot": {"kind": "sine", "amp": 1, "omega": 1e17},
        "initial": {"kind": "point", "q0": 1.5707963267948966, "p0": 0},
        "horizon": 2,
    }
    proc, seconds = run_cli(tmp_path, scenario)
    assert proc.returncode == 2
    assert "pivot.omega" in proc.stderr
    assert seconds < 5
    assert not (tmp_path / "out").exists()


def test_step_cap_over_the_budget_is_rejected(tmp_path):
    scenario = {
        "params": {"mu": 0.3},
        "pivot": {"kind": "sine", "amp": 2, "omega": 1},
        "initial": {"kind": "point", "q0": 1, "p0": 0.2},
        "horizon": 2,
        "tolerances": {"max_dt": 1e-15},
    }
    proc, seconds = run_cli(tmp_path, scenario)
    assert proc.returncode == 2
    assert "tolerances.max_dt" in proc.stderr
    assert seconds < 5


def test_a_law_too_fine_for_the_horizon_exhausts_the_step_budget(tmp_path):
    # the steps this law allows are about 1e-10 s, so the 2 s horizon would
    # take some 1e10 of them
    scenario = {
        "params": {"mu": 0.3},
        "pivot": {"kind": "sine", "amp": 2, "omega": 1e13},
        "initial": {"kind": "point", "q0": 1, "p0": 0.2},
        "horizon": 2,
    }
    proc, seconds = run_cli(tmp_path, scenario, timeout=120)
    assert proc.returncode == 2
    assert f"more than {integrator._MAX_STEPS} steps" in proc.stderr
    assert "t = " in proc.stderr and "h = " in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["shoot", "verify"])
def test_step_budget_fails_shoot_and_verify(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(integrator, "_MAX_STEPS", 20)
    out = tmp_path / "out"
    assert cli.main([command, FALLING_CURVE, "--out", str(out)]) == 2
    assert "more than 20 steps" in capsys.readouterr().err
    assert not out.exists()


def test_step_budget_is_recorded_in_the_sweep_entry_of_its_curve(tmp_path, monkeypatch):
    monkeypatch.setattr(integrator, "_MAX_STEPS", 20)
    out = tmp_path / "out"
    assert cli.main(["sweep", FALLING_CURVE, "--out", str(out)]) == 3
    (entry,) = json.loads((out / "sweep.json").read_text())
    assert entry["error"].startswith("StepLimit: more than 20 steps")


def test_step_limit_names_the_step_its_time_and_size(monkeypatch):
    monkeypatch.setattr(integrator, "_MAX_STEPS", 40)
    with pytest.raises(StepLimit, match=r"step 41 at t = [0-9.e-]+, h = [0-9.e-]+"):
        integrate(State(q=1.0, p=0.5, t=0.0), Params(mu=0.0), SinePivot(1.0, 1.0), 20.0)


def test_release_scan_is_bounded_by_the_step_budget(monkeypatch):
    # a stuck state that a strong law releases late: the law touches the
    # release level 45 times and crosses it only after, so the search
    # examines more intervals than a budget of 40 allows
    params, q = Params(mu=0.5), math.pi / 2
    stuck = State(q=q, p=0.0, t=0.0, mode="stuck")
    level = max(integrator._margin_breaks(params, q)[1])
    law = TablePivot(range(92), [0.0, level] * 45 + [0.0, 30.0])
    event = slide_until_release(stuck, params, law, 100.0, Tolerances())
    assert event.kind == "stick_release" and 90.0 < event.t < 91.0
    monkeypatch.setattr(integrator, "_MAX_STEPS", 40)
    with pytest.raises(StepLimit, match="release-scan points"):
        slide_until_release(stuck, params, law, 100.0, Tolerances())


@st.composite
def stuck_states(draw):
    """A stuck state, a pivot law and a horizon, with small accelerations
    near the apex so that the law often cannot release the state."""
    params = Params(l=draw(st.floats(0.5, 2.0)), mu=draw(st.floats(0.1, 1.5)))
    amp = draw(st.floats(0.0, 12.0))
    kind = draw(st.sampled_from(["sine", "table", "poly"]))
    if kind == "sine":
        pivot = SinePivot(amp, draw(st.floats(0.1, 20.0)), draw(st.floats(-3.0, 3.0)))
    elif kind == "table":
        values = draw(st.lists(st.floats(-amp, amp), min_size=2, max_size=6))
        pivot = TablePivot([1.5 * k for k in range(len(values))], values)
    else:
        pivot = PolyPivot([amp / 2, draw(st.floats(-1.0, 1.0)), -amp / 50], t_max=10.0)
    t0 = draw(st.floats(0.0, 3.0))
    # stiction holds at entry: with a = a(t0), |a sin q - g cos q| <=
    # mu |a cos q + g sin q| is |tan(q - phi)| <= mu, phi = atan2(g, a),
    # so q is drawn from the inner 99% of that interval, within [0.6, 2.5]
    phi, half = math.atan2(params.g, pivot.accel(t0)), 0.99 * math.atan(params.mu)
    q = draw(st.floats(max(0.6, phi - half), min(2.5, phi + half)))
    drift_bound = integrator.stiction_drift_and_bound(params, pivot, q, t0)
    assert abs(drift_bound[0]) - drift_bound[1] <= 0
    return State(q=q, p=0.0, t=t0, mode="stuck"), params, pivot, t0 + draw(st.floats(0.5, 6.0))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stuck_states())
def test_the_shortcut_fires_only_where_the_scan_finds_no_release(case):
    state, params, pivot, horizon = case
    tol = Tolerances()
    assume(integrator._never_releases(params, pivot.accel_bound, state.q))
    assert slide_until_release(state, params, pivot, horizon, tol).kind == HORIZON
    # the release search, with the shortcut taken away, finds no release either
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrator, "_never_releases", lambda *args: False)
        assert slide_until_release(state, params, pivot, horizon, tol).kind == HORIZON


def test_the_shortcut_fires_on_an_apex_stuck_under_a_weak_law():
    params, stuck_q = Params(mu=0.5), math.pi / 2
    assert integrator._never_releases(params, SinePivot(1.0, 1.0).accel_bound, stuck_q)
    # mu g = 4.9 at the apex: a law that reaches 5 may release it
    assert not integrator._never_releases(params, SinePivot(5.0, 1.0).accel_bound, stuck_q)
    # a constant law holds wherever it holds at entry, and is never scanned
    assert ConstantPivot(3.0).accel_bound == 3.0


def test_the_release_test_evaluates_the_on_surface_kernel(monkeypatch):
    # the equations on p = 0 are written once: the release test reads
    # `stiction_drift_and_bound` at each candidate acceleration, here the
    # ends of [-1, 1] and the kink g c / s inside it
    seen = []
    kernel = integrator.stiction_drift_and_bound

    def counting(params, pivot, q, t):
        seen.append(pivot.accel(t))
        return kernel(params, pivot, q, t)

    monkeypatch.setattr(integrator, "stiction_drift_and_bound", counting)
    params, q = Params(mu=0.5), math.pi / 2
    assert integrator._never_releases(params, 1.0, q)
    assert seen == [-1.0, 1.0, params.g * math.cos(q) / math.sin(q)]

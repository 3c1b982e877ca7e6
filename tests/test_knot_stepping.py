"""Stepping a table pivot law knot to knot.

A table law is linear between its knots and has a kink at each one, where
the step's error estimate, which assumes a smooth field, rejects step after
step.  `integrate` therefore ends a step on every knot and steps each
interval's line.  These tests check that every knot is a step end, that the
slipping stretches agree with scipy's DOP853 run piece by piece (an oracle
that shares no stepping code with drypend), and that the solver noise which
broke the continuous-dependence check on a table law stays small.
"""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from drypend import cli, integrator
from drypend.integrator import STICK_ENTRY, integrate
from drypend.model import SLIPPING, Params, State, TablePivot


def reals(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def table_runs(draw):
    """A point start under a table law whose knots lie inside the run.

    Knots at least 0.05 s apart keep the law's slope, and so the release
    scan's work, bounded.
    """
    horizon = draw(reals(1.0, 6.0))
    times = [draw(reals(-0.5, 0.5))]
    for gap in draw(st.lists(reals(0.05, 1.5), min_size=1, max_size=11)):
        times.append(times[-1] + gap)
    values = draw(st.lists(reals(-30.0, 30.0), min_size=len(times), max_size=len(times)))
    params = Params(mu=draw(st.sampled_from([0.0, 0.3, 0.6])))
    start = State(q=draw(reals(0.3, 2.8)), p=draw(reals(-2.0, 2.0)), t=0.0)
    return params, TablePivot(times, values), start, horizon


def _stuck_stretches(traj):
    """(entry, leave) times of each stuck stretch of a trajectory."""
    events = traj.events
    return [(e.t, nxt.t) for e, nxt in zip(events, events[1:]) if e.kind == STICK_ENTRY]


@contextlib.contextmanager
def recorded_steps():
    """The (start, end) times of every step `integrate` takes inside the block."""
    steps = []
    original = integrator._slip

    def recording(*args):
        for step in original(*args):
            t0, h, q0, p0, f, kq, kp, seg, t1, *_ = step
            steps.append((t0, t1))
            yield step

    integrator._slip = recording
    try:
        yield steps
    finally:
        integrator._slip = original


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table_runs())
def test_every_knot_ends_a_step(run):
    params, pivot, start, horizon = run
    with recorded_steps() as steps:
        traj = integrate(start, params, pivot, horizon)

    # a run that slips at all took steps, so the seam above saw them
    assert steps or all(s[3] != SLIPPING for s in traj.samples)
    knots = [k for k in pivot.times if start.t < k < horizon]
    for t0, t1 in steps:
        assert not any(t0 < k < t1 for k in knots), (t0, t1)
    sample_times = {s[0] for s in traj.samples}
    stuck = _stuck_stretches(traj)
    for k in knots:
        assert k in sample_times or any(a < k < b for a, b in stuck), k


# --- an oracle that shares no stepping code ---------------------------------

ORACLE_PARAMS = Params(mu=0.3)
# a sampled sine with knot noise, knots every 0.25 s, strong enough to stick
# and release several times
ORACLE_TIMES = [0.25 * k for k in range(34)]
ORACLE_VALUES = [
    9.0 * math.sin(1.3 * t + 0.4) * (1.0 + 0.1 * math.sin(7.1 * k))
    for k, t in enumerate(ORACLE_TIMES)
]


def _oracle(params, times, values, branch, t0, y0, t_eval):
    """(q, p) at each of t_eval from (t0, y0) on one friction branch, by
    scipy's DOP853 restarted on every knot, with a(t) from np.interp."""
    l, g, mu = params.l, params.g, params.mu

    def field(t, y):
        q, p = y
        a = float(np.interp(t, times, values))
        mag = abs(a * math.cos(q) - l * p * p + g * math.sin(q))
        return [p, (a / l) * math.sin(q) - (mu / l) * mag * branch - (g / l) * math.cos(q)]

    ends = sorted({k for k in times if t0 < k < t_eval[-1]} | {t_eval[-1]})
    out = {}
    t, y = t0, list(y0)
    for end in ends:
        ts = sorted({s for s in t_eval if t < s <= end} | {end})
        sol = solve_ivp(field, (t, end), y, method="DOP853", rtol=1e-12, atol=1e-14, t_eval=ts)
        assert sol.success
        out.update(zip(ts, sol.y.T))
        t, y = end, list(sol.y[:, -1])
    return [out[s] for s in t_eval]


def _slipping_stretches(samples):
    """Runs of consecutive slipping samples over increasing times: the
    stretches between a start, crossing or release and the next event."""
    runs, run = [], []
    for s in samples:
        if run and (s[3] != SLIPPING or s[0] <= run[-1][0]):
            if len(run) > 1:
                runs.append(run)
            run = []
        if s[3] == SLIPPING:
            run.append(s)
    if len(run) > 1:
        runs.append(run)
    return runs


def test_slipping_stretches_match_scipy_dop853_piece_by_piece():
    pivot = TablePivot(ORACLE_TIMES, ORACLE_VALUES)
    traj = integrate(State(q=1.1, p=0.6, t=0.0), ORACLE_PARAMS, pivot, 8.0)
    kinds = [e.kind for e in traj.events]
    assert kinds.count("stick_release") >= 2 and kinds.count("crossing") >= 1

    stretches = _slipping_stretches(traj.samples)
    assert len(stretches) >= 4
    worst = 0.0
    for run in stretches:
        t0, q0, p0, _ = run[0]
        branch = 1.0 if p0 > 0 else -1.0
        times = [s[0] for s in run[1:]]
        expected = _oracle(ORACLE_PARAMS, ORACLE_TIMES, ORACLE_VALUES, branch, t0, (q0, p0), times)
        for (_, q, p, _), (q_o, p_o) in zip(run[1:], expected):
            worst = max(worst, abs(q - q_o), abs(p - p_o))
    # 5.2e-7 while steps straddled the knots, 2.5e-8 with knot landing
    assert worst < 1e-7


# --- solver noise in the continuous-dependence check ------------------------

# `verify-checks` design 1, op 19 of the benchmark: a table law on which
# stepping across knots once put the solver's noise at eps(1e-10) = 9.79e-8
# and failed the check
NOISY_TABLE = {
    "name": "verify-19",
    "params": {"mu": 0.2361318521852845},
    "pivot": {
        "kind": "table",
        "times": [0.5 * k for k in range(41)],
        "values": [
            0.6695491022801907, -3.9239616832521564, -5.206284570418239, -2.0953468050663537,
            2.783724174589978, 5.313782971320866, 3.3598698821184, -1.4292290197383986,
            -5.012290193359932, -4.365790537631546, -0.035271015779876236, 4.325011528761822,
            5.035685083630194, 1.4970563122127514, -3.304845432875368, -5.3179930853805715,
            -2.843616197810891, 2.0303120365461567, 5.19098586426301, 3.971308668752641,
            -0.599509609703346, -4.664438910426317, -4.793337505550809, -0.8774358650087235,
            3.7788794829887107, 5.246432803349203, 2.2868468674354334, -2.6024673084832846,
            -5.295720729139539, -3.5202438698096783, 1.2257484639096454, 4.9374076904884125,
            4.482694787639047, 0.24531377254700615, -4.19907232071056, -5.100121711154554,
            -1.6974947017378592, 3.13754280697732, 5.325002532909672, 3.0190228807269026,
            -1.8345229391429707,
        ],
    },
    "initial": {"kind": "point", "q0": 0.4950211679723417, "p0": 0.5553861520351764},
    "horizon": 4.726400919367064,
    "tolerances": {"rel_tol": 1e-11, "abs_tol": 1e-13, "event_tol": 1e-12, "stick_band": 1e-10},
}


def test_dependence_on_a_table_law_is_not_solver_noise(tmp_path):
    path = tmp_path / "noisy_table.json"
    path.write_text(json.dumps(NOISY_TABLE))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", str(path), "--out", str(tmp_path / "out"), "--checks", "dependence"])
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert code == 0
    (check,) = [r for r in report["reports"] if r["name"] == "continuous_dependence"]
    # the solver's noise eta: 7.8e-11 with knot landing; straddled knots
    # once put the noise at eps(1e-10) = 9.79e-8
    assert check["details"]["eta"] < 1e-9
    assert check["details"]["deltas"] == [1e-6, 1e-8]

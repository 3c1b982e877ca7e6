"""Non-finite or non-numeric scenario numbers are rejected with exit 2, never run.

A NaN initial angle once made the first step size NaN, which no underflow
test caught, and an infinite horizon never ends; either hung `simulate`.  A
missing or non-numeric number ended in a traceback.  Each case runs the real
CLI in a subprocess under a time limit, so a hang fails the test instead of
stalling the suite.
"""

import json
import math
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
TIMEOUT_S = 60

BASE = {
    "params": {"mu": 0.3},
    "pivot": {"kind": "sine", "amp": 2.0, "omega": 1.0},
    "initial": {"kind": "point", "q0": 1.0, "p0": 0.2},
    "horizon": 2.0,
}
CURVE = {"kind": "curve", "sigma": {"kind": "line"}, "family_shifts": [0.0, 0.1]}


def _with(path, value, base=BASE):
    """A deep copy of `base` with the dotted `path` set to `value`."""
    scen = json.loads(json.dumps(base))
    *head, last = path.split(".")
    node = scen
    for key in head:
        node = node[key]
    node[last] = value
    return scen


def run_cli(tmp_path, command, scen, *flags):
    path = tmp_path / "scenario.json"
    # json.dumps writes NaN and Infinity, which json.load reads back
    path.write_text(json.dumps(scen))
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-m", "drypend.cli", command, str(path), "--out", str(tmp_path / "out"), *flags],
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        env=env,
    )


CASES = [
    ("initial.q0", math.nan, "initial.q0"),
    ("initial.p0", math.inf, "initial.p0"),
    ("initial.t0", -math.inf, "initial.t0"),
    ("horizon", math.inf, "horizon"),
    ("horizon", math.nan, "horizon"),
    ("params.mu", math.nan, "params.mu"),
    ("params.l", math.inf, "params.l"),
    ("pivot.amp", math.inf, "pivot.amp"),
    ("pivot.omega", math.nan, "pivot.omega"),
    ("tolerances", {"rel_tol": math.nan}, "tolerances.rel_tol"),
    ("tolerances", {"max_dt": math.inf}, "tolerances.max_dt"),
    ("initial.q0", 10 ** 400, "initial.q0"),
]


@pytest.mark.parametrize("path, value, field", CASES, ids=[f"{c[0]}={c[1]}" for c in CASES])
def test_non_finite_point_scenario_is_rejected(tmp_path, path, value, field):
    proc = run_cli(tmp_path, "simulate", _with(path, value))
    assert proc.returncode == 2, proc.stderr
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "pivot, field",
    [
        ({"kind": "poly", "coeffs": [1.0, math.nan], "t_max": 10.0}, "pivot.coeffs[1]"),
        ({"kind": "table", "times": [0.0, 1.0], "values": [0.0, math.inf]}, "pivot.values[1]"),
        ({"kind": "table", "times": [0.0, math.inf], "values": [0.0, 1.0]}, "pivot.times[1]"),
        ({"kind": "constant", "a": -math.inf}, "pivot.a"),
    ],
)
def test_non_finite_pivot_field_is_rejected(tmp_path, pivot, field):
    proc = run_cli(tmp_path, "verify", _with("pivot", pivot))
    assert proc.returncode == 2, proc.stderr
    assert field in proc.stderr


def test_non_finite_family_shift_is_rejected(tmp_path):
    scen = _with("initial", _with("family_shifts", [0.0, math.nan], base=CURVE))
    proc = run_cli(tmp_path, "sweep", scen)
    assert proc.returncode == 2, proc.stderr
    assert "initial.family_shifts[1]" in proc.stderr


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_horizon_override_must_be_positive_and_finite(tmp_path, value):
    proc = run_cli(tmp_path, "simulate", BASE, "--horizon", value)
    assert proc.returncode == 2, proc.stderr
    assert "horizon" in proc.stderr


def test_finite_scenario_still_runs(tmp_path):
    proc = run_cli(tmp_path, "simulate", BASE)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "trajectory.csv").exists()


def test_poly_with_a_negligible_leading_coefficient_runs(tmp_path):
    # numpy's root finder once raised LinAlgError on this law, a traceback
    pivot = {"kind": "poly", "coeffs": [0.0, 1.0, 1.0, 1e-320], "t_max": 100.0}
    proc = run_cli(tmp_path, "simulate", _with("pivot", pivot))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def _assert_rejected(proc, field):
    assert proc.returncode == 2, proc.stderr
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "path, value, field",
    [
        ("initial", {"kind": "point", "p0": 0.2}, "initial.q0"),
        ("initial.p0", "fast", "initial.p0"),
        ("initial.t0", [0.0], "initial.t0"),
        ("initial.q0", "1.0", "initial.q0"),
        ("horizon", "inf", "horizon"),  # float("inf") once ran forever
        ("pivot", {"kind": "constant", "a": "inf"}, "pivot.a"),  # once a math domain error
        ("pivot", {"kind": "table", "times": [0, "inf"], "values": [0, 1]}, "pivot.times[1]"),
        ("tolerances", {"max_dt": "0.05"}, "tolerances.max_dt"),
    ],
)
def test_non_numeric_point_scenario_is_rejected(tmp_path, path, value, field):
    _assert_rejected(run_cli(tmp_path, "simulate", _with(path, value)), field)


@pytest.mark.parametrize(
    "path, value, field",
    [
        ("sigma", {"kind": "table", "q": [0.0, 3.2], "p": ["x", 1]}, "initial.sigma.p[0]"),
        ("sigma", {"kind": "table", "q": [0.0, None], "p": [-1, 1]}, "initial.sigma.q[1]"),
        ("sigma", {"kind": "table", "p": [-1, 1]}, "initial.sigma.q"),
        ("sigma", {"kind": "line", "shift": "x"}, "initial.sigma.shift"),
        ("sigma", "line", "initial.sigma"),
        ("family_shifts", [0.0, "x"], "initial.family_shifts[1]"),
        ("family_shifts", 0.1, "initial.family_shifts"),
    ],
)
def test_non_numeric_curve_input_is_rejected(tmp_path, path, value, field):
    scen = _with("initial", _with(path, value, base=CURVE))
    _assert_rejected(run_cli(tmp_path, "sweep", scen), field)


POLY_T10 = {"kind": "poly", "coeffs": [0.5, -0.2, 0.01], "t_max": 10}


@pytest.mark.parametrize("horizon, flags", [(50.0, ()), (5.0, ("--horizon", "50"))])
def test_poly_pivot_must_cover_the_horizon(tmp_path, horizon, flags):
    # its Lipschitz and sup bounds, which the velocity trap relies on, hold
    # only on [0, t_max]; a --horizon override is validated like the file's
    scen = {**_with("pivot", POLY_T10), "horizon": horizon}
    _assert_rejected(run_cli(tmp_path, "simulate", scen, *flags), "pivot.t_max")
    assert run_cli(tmp_path, "simulate", scen, "--horizon", "10").returncode == 0


def _strict_json(path):
    def reject(token):
        raise ValueError(f"{token} is not strict JSON")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def test_artifacts_are_strict_json(tmp_path):
    # mu 1e308 makes the jump check's relative disagreement NaN; it is
    # written as the string "NaN", not as a bare NaN token
    proc = run_cli(tmp_path, "verify", _with("params.mu", 1e308), "--checks", "jump")
    assert proc.returncode == 1, proc.stderr
    report = _strict_json(tmp_path / "out" / "verify.json")["reports"][0]
    assert report["details"]["max_relative_disagreement"] == "NaN"
    _strict_json(tmp_path / "out" / "scenario.normalized.json")


def test_semicontinuity_counts_a_nan_excess_as_a_failure(tmp_path):
    # with l 1e-308 the limit fields are NaN; the check once dropped that
    # excess and passed with betas exactly |p_k|
    scen = _with("initial.p0", 0.0, base=_with("params", {"l": 1e-308}))
    proc = run_cli(tmp_path, "verify", scen, "--checks", "semicontinuity")
    assert proc.returncode == 1, proc.stderr
    report = _strict_json(tmp_path / "out" / "verify.json")["reports"][0]
    assert report["passed"] is False
    assert report["details"]["betas"] == ["NaN"] * len(report["details"]["betas"])


@pytest.mark.parametrize(
    "params, pivot, stderr",
    [
        # omega * t past the float range took math.sin(inf) in the law's own
        # accel; its period lies below the spacing of doubles near t = 2
        (
            {"mu": 0.3},
            {"kind": "sine", "amp": 2.0, "omega": 1e308},
            f"scenario error: pivot.omega = 1e+308 gives the period {2 * math.pi / 1e308}, "
            f"which must exceed {math.ulp(2.0)}, the spacing of doubles near the times of the run",
        ),
        # the jump check runs on both first; then the Lipschitz bound overflows
        ({"mu": 0.3, "g": 1e308}, {"kind": "sine", "amp": 1e308, "omega": 1.0},
         "verification failed: the field's Lipschitz bound overflows"),
        # the friction bound overflows in the jump check's arrays first
        ({"mu": 1e308}, BASE["pivot"], "verification failed: the field's Lipschitz bound overflows"),
    ],
    ids=["sine-omega", "lipschitz-bound", "friction-bound"],
)
def test_pointwise_checks_past_the_float_range_print_no_warnings(tmp_path, params, pivot, stderr):
    # the checks evaluate numpy arrays, whose overflow would print RuntimeWarnings
    scen = {**BASE, "params": params, "pivot": pivot}
    proc = run_cli(tmp_path, "verify", scen, "--checks", "jump,lipschitz")
    assert proc.returncode == 2
    assert proc.stderr == f"{stderr}\n"
    assert not (tmp_path / "out").exists()

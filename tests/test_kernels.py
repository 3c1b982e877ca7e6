"""The three field kernels of `drypend.model` against each other.

The scalar kernel (`branch_field`) and the array kernel (`accel_slipping`)
are written out apart, one on Python floats for the stepper and one on
numpy arrays for the checks, so they agree to rounding only.  The stick/cross
rule and the stiction test both read the on-surface kernel
(`stiction_drift_and_bound`), so they must agree exactly.
"""

import json
import math
import sys

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from drypend import verification
from drypend.cli import main
from drypend.integrator import classify_switch
from drypend.model import (
    ConstantPivot,
    Params,
    SinePivot,
    accel_slipping,
    branch_field,
    limit_fields,
    stiction_drift_and_bound,
    stiction_holds,
)
from drypend.verification import SampleGrid, check_jump_inequality

from test_stepper import PROPERTY, pivots, reals

# l = 0.7: the stick/cross rule and the stiction test once took the drift in
# two arithmetic orders, which here rounded to opposite sides of the bound
REPRO = {
    "params": {"l": 0.7, "mu": 0.5},
    "pivot": {"kind": "constant", "a": 17.913099482373973},
    "initial": {"kind": "point", "q0": 0.03695535796242692, "p0": 0.0},
    "horizon": 1.0,
}

params_st = st.builds(
    Params,
    l=st.one_of(reals(0.05, 5), st.just(0.7)),
    m=reals(0.1, 10),
    g=reals(1, 20),
    mu=st.one_of(reals(0, 2), st.just(0.0)),
)


@PROPERTY
@given(params=params_st, pivot=pivots(), q=reals(-4, 7), t=reals(0, 100))
@example(
    params=Params(l=0.7, mu=0.5),
    pivot=ConstantPivot(17.913099482373973),
    q=0.03695535796242692,
    t=0.0,
)
def test_stick_rule_and_stiction_test_agree_exactly(params, pivot, q, t):
    sticks = classify_switch(params, pivot, q, t).kind == "stick"
    assert sticks == bool(stiction_holds(params, pivot, q, t))


def test_stick_reproducer_simulates(tmp_path):
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(REPRO))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "trajectory.csv").exists()


def _term_size(params, a, q, p):
    """Sum of the magnitudes of the terms of dp/dt, the scale of its rounding."""
    l, g, mu = params.l, params.g, params.mu
    s, c = abs(math.sin(q)), abs(math.cos(q))
    return abs(a) / l * s + mu / l * (abs(a) * c + l * p * p + g * s) + g / l * c


# a few ulps per term: math.sin and np.sin, and the scalar and array paths
# of the pivot laws, may each round differently
ULPS = 8 * sys.float_info.epsilon


@PROPERTY
@given(params=params_st, pivot=pivots(), q=reals(-4, 7), p=reals(-10, 10), t=reals(0, 100))
def test_scalar_and_array_kernels_agree(params, pivot, q, p, t):
    tol = ULPS * _term_size(params, pivot.accel(t), q, p) + 1e-300
    if p != 0.0:
        branch = 1.0 if p > 0 else -1.0
        dq, dp = branch_field(params, pivot, branch)(t, q, p)
        arr = accel_slipping(params, pivot, np.array([q]), np.array([p]), np.array([t]))
        assert dq == p
        assert abs(dp - float(arr[0])) <= tol
    # on p = 0 the two branches are the one-sided limits
    f_plus, f_minus = limit_fields(params, pivot, np.array([q]), np.array([t]))
    tol = ULPS * _term_size(params, pivot.accel(t), q, 0.0) + 1e-300
    assert abs(branch_field(params, pivot, 1.0)(t, q, 0.0)[1] - float(f_plus[0])) <= tol
    assert abs(branch_field(params, pivot, -1.0)(t, q, 0.0)[1] - float(f_minus[0])) <= tol


def test_jump_check_rejects_a_wrong_bound(monkeypatch):
    params, pivot = Params(mu=0.5), SinePivot(3.0, 2.0)
    grid = SampleGrid.for_scenario("wrong-bound")
    assert check_jump_inequality(params, pivot, grid).passed

    def limits_with_a_tenth_less_friction(params, pivot, q, t):
        drift, bound = stiction_drift_and_bound(params, pivot, q, t)
        return drift - 0.9 * bound, drift + 0.9 * bound

    monkeypatch.setattr(verification, "limit_fields", limits_with_a_tenth_less_friction)
    report = check_jump_inequality(params, pivot, grid)
    assert not report.passed
    assert report.details["max_relative_disagreement"] > 1e-3

"""The two field kernels of `drypend.model`.

The slipping kernel (`branch_field`) is stepped on Python floats and
evaluated by the checks on numpy arrays, and the two must agree bit for bit.
The stick/cross rule and the stiction test both read the on-surface kernel
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
    branch_field,
    limit_fields,
    stiction_drift_and_bound,
    stiction_holds,
)
from drypend.verification import SampleGrid, check_jump_inequality

from test_stepper import PROPERTY, bits, pivots, reals

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
    sticks = classify_switch(params, pivot, q, t) == 0
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


# a few ulps per term: the slipping and the on-surface kernel take the
# terms in different orders
ULPS = 8 * sys.float_info.epsilon

points = st.lists(
    st.tuples(reals(-4, 7), st.one_of(reals(-10, 10), st.just(0.0)), reals(0, 100)),
    min_size=1,
    max_size=8,
)


@PROPERTY
@given(params=params_st, pivot=pivots(), qpt=points, branch=st.sampled_from([1.0, -1.0]))
def test_scalar_and_array_kernels_agree(params, pivot, qpt, branch):
    q, p, t = (np.array(axis) for axis in zip(*qpt))
    dqs, dps = branch_field(params, pivot, np.full(len(qpt), branch))(t, q, p)
    signed = branch_field(params, pivot, np.sign(p))(t, q, p)[1]
    for i, (qi, pi, ti) in enumerate(qpt):
        dq, dp = branch_field(params, pivot, branch)(ti, qi, pi)
        assert type(dp) is float
        assert bits(dq) == bits(float(dqs[i])) and bits(dp) == bits(float(dps[i]))
        if pi != 0.0:
            _, dp = branch_field(params, pivot, math.copysign(1.0, pi))(ti, qi, pi)
            assert bits(dp) == bits(float(signed[i]))


@PROPERTY
@given(params=params_st, pivot=pivots(), q=reals(-4, 7), t=reals(0, 100))
def test_branches_on_the_surface_are_the_one_sided_limits(params, pivot, q, t):
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

"""The two field kernels of `drypend.model`.

The slipping kernel (`branch_field`), which the integrator steps and the
checks sample, is compared with the equation of motion evaluated in exact
rational arithmetic.  The stick/cross rule and the stiction test on entry
to the release search both read the on-surface kernel
(`stiction_drift_and_bound`), so they must agree exactly.
"""

import json
import math
import sys
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from drypend import verification
from drypend.cli import main
from drypend.integrator import Tolerances, classify_switch, slide_until_release
from drypend.model import (
    STUCK,
    ConstantPivot,
    Params,
    SinePivot,
    State,
    branch_field,
    limit_fields,
    stiction_drift_and_bound,
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
    # the integrator sticks by the rule and then hands the stuck state to
    # the release search, whose entry test is |drift| - bound <= 0; with the
    # horizon at the stuck time only that test runs, not the search
    sticks = classify_switch(params, pivot, q, t) == 0
    drift, bound = stiction_drift_and_bound(params, pivot, q, t)
    assert sticks == (abs(drift) - bound <= 0)
    stuck = State(q=q, p=0.0, t=t, mode=STUCK)
    try:
        slide_until_release(stuck, params, pivot, t, Tolerances())
    except ValueError:
        assert not sticks
    else:
        assert sticks


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


def _exact_slipping_accel(params, a, q, p, branch):
    """dp/dt of the module's equation of motion, exact in rational arithmetic
    from the rounded a, sin q and cos q."""
    l, g, mu = (Fraction(v) for v in (params.l, params.g, params.mu))
    a, p = Fraction(a), Fraction(p)
    s, c = Fraction(math.sin(q)), Fraction(math.cos(q))
    return a / l * s - mu / l * abs(a * c - l * p * p + g * s) * int(branch) - g / l * c


@PROPERTY
@given(params=params_st, pivot=pivots(), qpt=points, branch=st.sampled_from([1.0, -1.0]))
def test_slipping_kernel_is_the_equation_of_motion(params, pivot, qpt, branch):
    for q, p, t in qpt:
        dq, dp = branch_field(params, pivot, branch)(t, q, p)
        assert type(dp) is float
        assert bits(dq) == bits(p)
        a = pivot.accel(t)
        exact = _exact_slipping_accel(params, a, q, p, branch)
        assert abs(Fraction(dp) - exact) <= ULPS * _term_size(params, a, q, p) + 1e-300


@PROPERTY
@given(params=params_st, pivot=pivots(), q=reals(-4, 7), t=reals(0, 100))
def test_branches_on_the_surface_are_the_one_sided_limits(params, pivot, q, t):
    f_plus, f_minus = limit_fields(params, pivot, q, t)
    tol = ULPS * _term_size(params, pivot.accel(t), q, 0.0) + 1e-300
    assert abs(branch_field(params, pivot, 1.0)(t, q, 0.0)[1] - f_plus) <= tol
    assert abs(branch_field(params, pivot, -1.0)(t, q, 0.0)[1] - f_minus) <= tol


def test_jump_check_rejects_a_wrong_bound(monkeypatch):
    params, pivot = Params(mu=0.5), SinePivot(3.0, 2.0)
    grid = SampleGrid.for_scenario("wrong-bound", verification.T_MAX)
    assert check_jump_inequality(params, pivot, grid).passed

    def limits_with_a_tenth_less_friction(params, pivot, q, t):
        drift, bound = stiction_drift_and_bound(params, pivot, q, t)
        return drift - 0.9 * bound, drift + 0.9 * bound

    monkeypatch.setattr(verification, "limit_fields", limits_with_a_tenth_less_friction)
    report = check_jump_inequality(params, pivot, grid)
    assert not report.passed
    assert report.details["max_relative_disagreement"] > 1e-3

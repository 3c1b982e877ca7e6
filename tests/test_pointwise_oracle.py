"""The array forms of the jump and one-sided Lipschitz checks against their
looped forms, bit for bit.

`refchecks` evaluates the model's float kernels one sample point at a time
and keeps the worst case as it goes; the package evaluates the same kernels
on whole arrays and reduces them with numpy.  The reports must serialise to
the same JSON, and a law that raises must raise the same error in both.
"""

import json
import math

import numpy as np
from hypothesis import HealthCheck, assume, example, given, reject, settings
from hypothesis import strategies as st

import refchecks
from drypend.model import ConstantPivot, Params, PolyPivot, SinePivot, TablePivot
from drypend.verification import (
    P_MAX,
    T_MAX,
    SampleGrid,
    check_jump_inequality,
    check_one_sided_lipschitz,
    smooth_lipschitz_bound,
)

# 5 cos q + 9.8 sin q = 0 at the first angle: the gap is exactly zero there
ZERO_GAP = SampleGrid(
    q_points=np.array([math.pi - math.atan(5.0 / 9.8), 1.0, 2.0]),
    p_points=np.array([1.0]),
    t_points=np.array([0.0, 1.0]),
    pair_count=16,
)


def reals(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


huge = st.sampled_from([1e154, 1e308])


@st.composite
def pivots(draw):
    kind = draw(st.sampled_from(["constant", "sine", "poly", "table"]))
    if kind == "constant":
        return ConstantPivot(draw(st.one_of(reals(-30, 30), huge)))
    if kind == "sine":
        # omega 1e308 takes math.sin past the float range: a math domain error
        omega = draw(st.one_of(reals(0, 10), huge))
        return SinePivot(draw(st.one_of(reals(-30, 30), huge)), omega, draw(reals(-4, 4)))
    if kind == "poly":
        return PolyPivot(draw(st.lists(reals(-5, 5), min_size=1, max_size=4)), t_max=200.0)
    times = sorted(set(draw(st.lists(reals(-1, 30), min_size=2, max_size=8))))
    assume(len(times) >= 2)
    values = draw(st.lists(reals(-30, 30), min_size=len(times), max_size=len(times)))
    try:
        return TablePivot(times, values)
    except ValueError:  # knots too close for their values: the slope overflows
        reject()


params = st.builds(
    Params,
    l=st.one_of(reals(0.2, 3), st.just(1e-308)),
    m=st.just(1.0),
    g=st.one_of(reals(1, 20), huge),
    mu=st.one_of(st.sampled_from([0.0, 0.3, 0.8]), reals(0, 2), huge),
)
grids = st.one_of(
    st.builds(SampleGrid.for_scenario, st.text(max_size=12), reals(0, T_MAX)),
    st.just(ZERO_GAP),
)


def outcome(check, *args):
    """A check's report as JSON, or the error it raised."""
    try:
        return json.dumps(check(*args).to_dict())
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def l_est_of(params, pivot, grid):
    try:
        return smooth_lipschitz_bound(params, pivot, P_MAX, 0.0, float(np.max(grid.t_points)))
    except OverflowError:
        return 1.0


ORACLE = settings(
    max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)


@ORACLE
@given(params=params, pivot=pivots(), grid=grids)
@example(params=Params(mu=0.5), pivot=ConstantPivot(5.0), grid=ZERO_GAP)
@example(params=Params(mu=0.0), pivot=SinePivot(2.0, 1.0), grid=ZERO_GAP)
@example(params=Params(mu=0.3), pivot=SinePivot(2.0, 1e308), grid=SampleGrid.for_scenario("x", T_MAX))
@example(params=Params(mu=1e308), pivot=ConstantPivot(0.0), grid=SampleGrid.for_scenario("y", T_MAX))
def test_jump_check_is_the_looped_check(params, pivot, grid):
    assert outcome(check_jump_inequality, params, pivot, grid) == outcome(
        refchecks.check_jump_inequality, params, pivot, grid
    )


@ORACLE
@given(
    params=params, pivot=pivots(), grid=grids, fingerprint=st.text(max_size=12),
    tight=st.booleans(),
)
@example(params=Params(mu=0.5), pivot=ConstantPivot(5.0), grid=ZERO_GAP, fingerprint="", tight=False)
@example(
    params=Params(mu=0.0), pivot=SinePivot(2.0, 1.0), grid=SampleGrid.for_scenario("z", 3.0),
    fingerprint="z", tight=True,
)
def test_lipschitz_check_is_the_looped_check(params, pivot, grid, fingerprint, tight):
    # a tight constant makes violations, and a worst pair that is one
    l_est = 1e-9 if tight else l_est_of(params, pivot, grid)
    assert outcome(check_one_sided_lipschitz, params, pivot, grid, l_est, fingerprint) == outcome(
        refchecks.check_one_sided_lipschitz, params, pivot, grid, l_est, fingerprint
    )

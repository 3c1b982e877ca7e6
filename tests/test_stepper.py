"""The written-out DOP853 stepper against its looped reference, bit for bit.

`refstepper` holds the looped stage sums, error estimate, step-size
control, dense-output rows, their nested evaluation and 16-point event
scans, over scipy's tableau.  The package's versions must give the same
bits (compared as IEEE 754 patterns, so -0.0 counts too), or raise the same
exception where the stages leave the float range; the steps that `_slip`
yields are compared with the reference's accepted steps, chained from one
to the next, and its shortcut at the step cap must only take steps that the
reference's norm passes with the cap as the next step.  The package's
tableau must be scipy's, and its pair must show order 8.  The
first-same-as-last reuse must not change an integration, `integrate` must
start one `_slip` generator per slipping stretch between events, and the
Hermite test that lets the event scans be skipped must only skip steps
whose Hermite has no point past the level, while skipping most of them on
ordinary runs.
"""

import contextlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, reject, settings
from hypothesis import strategies as st

from drypend import cli, integrator, model
from drypend.integrator import DenseSegment, Tolerances, integrate
from drypend.model import ConstantPivot, Params, PolyPivot, SinePivot, State, TablePivot

import refstepper

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCENARIOS = os.path.join(ROOT, "scenarios")
PROPERTY = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def bits(x):
    """Exact identity of a float or a nested tuple of floats: type and bits.

    All NaNs count as one: which operand's NaN a float operation passes on
    differs between CPython's generic and specialised float instructions,
    so the sign bit of a NaN depends on interpreter warm-up, and no output
    shows it.
    """
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    if x is None or isinstance(x, str):
        return x
    if x != x:
        return type(x).__name__, "nan"
    return type(x).__name__, struct.pack("<d", x)


finite = st.floats(allow_nan=False, allow_infinity=False)


def reals(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def pivots(draw):
    kind = draw(st.sampled_from(["constant", "sine", "poly", "table"]))
    if kind == "constant":
        return ConstantPivot(draw(reals(-30, 30)))
    if kind == "sine":
        return SinePivot(draw(reals(-30, 30)), draw(reals(0, 10)), draw(reals(-4, 4)))
    if kind == "poly":
        coeffs = draw(st.lists(reals(-5, 5), min_size=1, max_size=4))
        return PolyPivot(coeffs, t_max=200.0)
    times = sorted(set(draw(st.lists(reals(-1, 120), min_size=2, max_size=12))))
    assume(len(times) >= 2)
    values = draw(st.lists(reals(-30, 30), min_size=len(times), max_size=len(times)))
    try:
        return TablePivot(times, values)
    except ValueError:  # knots too close for their values: the slope overflows
        reject()


@st.composite
def stepper_cases(draw):
    params = Params(
        l=draw(reals(0.2, 3)), g=draw(reals(1, 20)), mu=draw(st.sampled_from([0.0, 0.3, 0.8]))
    )
    pivot = draw(pivots())
    branch = draw(st.sampled_from([1.0, -1.0, 0.0]))
    t = draw(st.one_of(reals(0, 100), st.sampled_from([0.0, -0.0])))
    q = draw(st.one_of(reals(-4, 7), st.sampled_from([0.0, -0.0, math.pi / 2])))
    p = draw(st.one_of(reals(-10, 10), st.sampled_from([0.0, -0.0, 1e-300, -5e-324])))
    h = draw(st.one_of(reals(1e-12, 0.5), st.sampled_from([1e-14, 0.05])))
    return params, pivot, branch, t, q, p, h


# --- the tableau -------------------------------------------------------------


def _tableau():
    """The package's coefficients by name: the step's and the dense
    output's, all named under one scheme."""
    pattern = r"_(C\d+|A\d+_\d+|B\d+|E[35]_\d+|D\d+_\d+)"
    return {n: getattr(integrator, n) for n in dir(integrator) if re.fullmatch(pattern, n)}


def test_tableau_is_scipys_dop853():
    from scipy.integrate._ivp import dop853_coefficients as ref

    expected = {f"_C{i}": ref.C[i] for i in range(1, 16) if i != 12}
    for i in [*range(1, 12), 13, 14, 15]:
        expected.update({f"_A{i}_{j}": ref.A[i, j] for j in range(i) if ref.A[i, j] != 0.0})
    expected.update({f"_B{j}": b for j, b in enumerate(ref.B) if b != 0.0})
    expected.update({f"_E5_{j}": e for j, e in enumerate(ref.E5) if e != 0.0})
    expected.update({f"_E3_{j}": e for j, e in enumerate(ref.E3) if e != 0.0})
    for k, row in enumerate(ref.D):
        expected.update({f"_D{k + 3}_{j}": d for j, d in enumerate(row) if d != 0.0})
    got = _tableau()
    # every nonzero entry is named, and nothing else
    assert sorted(got) == sorted(expected)
    for name, value in got.items():
        assert bits(value) == bits(float(expected[name])), name
    # the step's end: stage 11 and the first-same-as-last stage 12 at t + h,
    # stage 12 at the 8th-order solution, whose weights skip stages 1-4
    assert ref.C[11] == ref.C[12] == 1.0
    assert list(ref.A[12, :12]) == list(ref.B)
    assert not any(ref.B[1:5]) and not any(ref.E5[12:]) and not any(ref.E3[12:])


def _rows():
    """The package's tableau as exact rationals: (c, a, b, e5, e3) with
    a[i][j], each absent entry 0."""
    tab = {name: F(value) for name, value in _tableau().items()}
    c = [F(0)] + [tab.get(f"_C{i}", F(1)) for i in range(1, 16)]
    a = [[tab.get(f"_A{i}_{j}", F(0)) for j in range(16)] for i in range(16)]
    b = [tab.get(f"_B{j}", F(0)) for j in range(12)]
    a[12] = b + [F(0)] * 4
    e5 = [tab.get(f"_E5_{j}", F(0)) for j in range(12)]
    e3 = [tab.get(f"_E3_{j}", F(0)) for j in range(12)]
    return c, a, b, e5, e3


def test_stage_block_is_generated():
    # `_slip`'s inline stages are what tools/gen_stages.py writes from
    # `branch_field` and the tableau; an edit to either needs a rerun
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "gen_stages.py"), "--check"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_row_sums_and_quadrature_conditions():
    c, a, b, e5, e3 = _rows()
    # each to the rounding of coefficients up to about 40 in magnitude
    ulps = 2.0 ** -52 * 4
    # each stage sits at its node: sum_j a_ij = c_i
    for i in range(1, 16):
        assert abs(float(sum(a[i]) - c[i])) <= ulps * float(sum(map(abs, a[i]))), i
    # the weights integrate polynomials up to degree 7 exactly
    for k in range(8):
        quad = sum(bj * c[j] ** k for j, bj in enumerate(b))
        assert abs(float(quad - F(1, k + 1))) <= ulps * float(sum(map(abs, b))), k
    # the error weights are differences of two consistent rules
    assert abs(float(sum(e5))) <= ulps * float(sum(map(abs, e5)))
    assert abs(float(sum(e3))) <= ulps * float(sum(map(abs, e3)))


def kernel(params, pivot, branch, accel=None):
    """What `_slip` steps on the branch `branch`: (f, consts, accel), the
    field closure of `branch_field`, the constants its inline stages read
    and the a(t) they call, `pivot.accel` unless `accel` is given.  params
    needs only l, g and mu, so any floats can stand for them."""
    accel = pivot.accel if accel is None else accel
    return (
        model.branch_field(params, pivot, branch, accel), model.slip_constants(params, branch),
        accel,
    )


def slip_one_piece(field, branch, t, q, p, h, t_end, tol, normal=None):
    """The steps `_slip` yields for a `kernel` field that is smooth for all
    time, with its normal force, or None for no p = 0 test and no kink cut;
    the stages take the friction form of the field's constants either way."""
    f, consts, accel = field
    return integrator._slip(
        lambda _: (math.inf, f, normal, accel), consts, branch, t, q, p, h, t_end, tol
    )


def _fixed_step_end(h, t_end):
    """(q, p) at t_end of a frictionless, forced stretch stepped at fixed h:
    tolerances so loose that every attempt is accepted, and a cap of h."""
    params, pivot = Params(mu=0.0, l=2.0), SinePivot(2.0, 1.0)
    tol = Tolerances(rel_tol=1.0, abs_tol=1.0, event_tol=1.0, stick_band=10.0, max_dt=h)
    # without friction the stretch runs on where p changes sign
    for step in slip_one_piece(kernel(params, pivot, 1.0), 1.0, 0.0, 1.1, 0.7, h, t_end, tol):
        assert step[1] == h or step[8] == t_end
    assert step[8] == t_end
    return step[9:11], (params, pivot)


def test_global_order_is_about_eight():
    from scipy.integrate import solve_ivp

    # halving h divides the error by about 2^8; on this stretch, at these
    # steps, by 2^8.8 to 2^9.1 when this test was written
    t_end = 8.0
    ends = {}
    for h in (0.2, 0.1, 0.05):
        ends[h], (params, pivot) = _fixed_step_end(h, t_end)
    f = model.branch_field(params, pivot, 1.0)
    sol = solve_ivp(
        lambda t, y: f(t, y[0], y[1]), (0.0, t_end), [1.1, 0.7], method="Radau",
        rtol=1e-13, atol=1e-15,
    )
    exact = sol.y[:, -1]
    errors = [math.hypot(q - exact[0], p - exact[1]) for q, p in ends.values()]
    orders = [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
    assert errors[-1] > 1e-12  # still well above the oracle's error
    for order in orders:
        assert 7.5 < order < 9.5, (errors, orders)


@st.composite
def stretches(draw):
    """A frictionless or frictional slipping stretch under a sine law: the
    params, the pivot, the branch, its start and the time it may run to."""
    params = Params(l=draw(reals(0.5, 2.0)), mu=draw(st.sampled_from([0.0, 0.3, 0.8])))
    pivot = SinePivot(draw(reals(0, 10)), draw(reals(0, 3)), draw(reals(-3, 3)))
    p0 = draw(st.sampled_from([-1.0, 1.0])) * draw(reals(0.5, 4.0))
    branch = 1.0 if p0 > 0 else -1.0
    return params, pivot, branch, draw(reals(0.3, 2.8)), p0, draw(reals(0.5, 3.0))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stretches())
# a frictional stretch over which N changes sign: 1.24e-6 from the oracle
# when stepped across the kink, 6.9e-10 when cut on it as `integrate` does
@example((Params(l=1.3824561787596512, mu=0.3), SinePivot(0, 0, 0), -1.0, 2.796875, -3.875, 1.0))
def test_stretch_end_matches_radau(stretch):
    # at the default tolerances; over 80 such stretches the median error was
    # about 1e-12 and the largest 3e-8 when this test was written
    from scipy.integrate import solve_ivp

    params, pivot, branch, q0, p0, t_limit = stretch
    field = kernel(params, pivot, branch)
    f = field[0]
    # with friction, steps end where the normal force changes sign, as in `integrate`
    normal = model.normal_force(params, pivot) if params.mu > 0 else None
    for step in slip_one_piece(field, branch, 0.0, q0, p0, None, t_limit, Tolerances(), normal):
        pass
    # the stretch ends at t_limit or, with friction, where p changes sign
    t1, q1, p1 = step[8:11]
    sol = solve_ivp(
        lambda t, y: f(t, y[0], y[1]), (0.0, t1), [q0, p0], method="Radau", rtol=1e-13, atol=1e-15
    )
    assert math.hypot(q1 - sol.y[0, -1], p1 - sol.y[1, -1]) <= 1e-6


# --- the stepper against the looped reference ------------------------------


def outcome(fn, *args):
    """What fn(*args) does: the bits of its result, or the name of the type
    of what it raised."""
    try:
        return "returns", bits(fn(*args))
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return "raises", type(exc).__name__


def first_step(field, branch, t, q, p, h, tol):
    """The first step `_slip` yields from (t, q, p) for a `kernel` field
    with no end time and no event test, in the form of
    `refstepper._accepted_step`."""
    t0, h, q0, p0, f0, kq, kp, seg, t1, q1, p1, h_next, switch = next(
        slip_one_piece(field, branch, t, q, p, h, math.inf, tol)
    )
    assert (t0, q0, p0, f0, seg, switch) == (t, q, p, field[0], None, None)
    assert bits(t1) == bits(t + h)
    return h, q1, p1, kq, kp, h_next


@st.composite
def tolerances(draw):
    """Error controls from loose to tight, so that both accepted and
    rejected first attempts occur and the step factor is not always capped."""
    rel = draw(reals(1e-13, 1e-2))
    return Tolerances(
        rel_tol=rel,
        abs_tol=rel * draw(reals(1e-3, 1.0)),
        stick_band=10 * rel,
        max_dt=draw(st.sampled_from([0.05, 0.5, math.inf])),
    )


@PROPERTY
@given(stepper_cases(), tolerances())
# stages that overflow: both steppers reach math.cos(-inf) and raise
@example(
    (Params(l=1.0, g=1.0, mu=0.3), TablePivot([0.0, 1.0], [0.0, 1e300]), 1.0, 0.0, -1.0, 0.0, 0.5),
    Tolerances(),
)
# the frictionless kernel, which leaves out a friction term of 0.0 |N| branch,
# where that term and the terms around it are signed zeros or subnormal
@example((Params(mu=0.0), ConstantPivot(-3.0), 1.0, 0.0, 0.0, -5e-324, 0.05), Tolerances())
@example((Params(mu=0.0), ConstantPivot(-3.0), -1.0, 0.0, 0.0, -5e-324, 0.05), Tolerances())
@example((Params(mu=0.0), ConstantPivot(-3.0), 0.0, 0.0, 0.0, -5e-324, 0.05), Tolerances())
@example((Params(mu=0.0), ConstantPivot(-3.0), 1.0, 0.0, -0.0, -5e-324, 0.05), Tolerances())
@example((Params(mu=0.0), ConstantPivot(-3.0), -1.0, 0.0, -0.0, -5e-324, 0.05), Tolerances())
@example((Params(mu=0.0), ConstantPivot(-3.0), 0.0, 0.0, -0.0, -5e-324, 0.05), Tolerances())
def test_field_and_step_match_the_looped_reference(case, tol):
    params, pivot, branch, t, q, p, h = case
    f_ref = refstepper._field(params, pivot, branch)
    field = kernel(params, pivot, branch)
    f_new = field[0]
    assert bits(f_new(t, q, p)) == bits(f_ref(t, q, p))

    # the inline stages in the field's friction form, with friction and
    # branch 0 too, which `integrate` never steps
    ref = outcome(refstepper._accepted_step, f_ref, t, q, p, h, tol)
    new = outcome(first_step, field, branch, t, q, p, h, tol)
    assert new == ref
    if ref[0] == "raises":
        return

    h1, q1, p1, kq, kp, _ = refstepper._accepted_step(f_ref, t, q, p, h, tol)
    assert _segment_rows(f_new, t, h1, q, p, q1, p1, kq, kp) == outcome(
        refstepper._dense_rows, f_ref, t, h1, q, p, q1, p1, kq, kp
    )

    dq, dp = f_new(t, q, p)
    assert bits(integrator._initial_step(q, p, dq, dp, tol)) == bits(
        refstepper._initial_step(f_ref, t, q, p, tol)
    )


def _segment_rows(f, t, h, q, p, q1, p1, kq, kp):
    """What `DenseSegment.of_step` does: its rows, or what it raised."""

    def rows():
        seg = DenseSegment.of_step(f, t, h, q, p, q1, p1, kq, kp)
        return seg.rq, seg.rp

    return outcome(rows)


def far_field(spec):
    """The `kernel` field of constants far from a pendulum's: spec is (l, g,
    mu, alpha, beta, branch), any floats but l = 0, with a(t) = alpha t +
    beta."""
    l, g, mu, alpha, beta, branch = spec
    return kernel(SimpleNamespace(l=l, g=g, mu=mu), None, branch, lambda t: alpha * t + beta)


_any = st.one_of(finite, st.sampled_from([0.0, -0.0, 1.0, -1.0]))
far_specs = st.tuples(
    st.one_of(finite.filter(bool), st.sampled_from([1.0, -1.0, 5e-324])), _any,
    st.one_of(_any, st.just(0.0)),  # mu, 0 often: the frictionless form
    _any, _any, st.sampled_from([1.0, -1.0, 0.0]),
)


@PROPERTY
@given(
    spec=far_specs,
    t=st.one_of(finite, st.sampled_from([0.0, -0.0])),
    q=st.one_of(finite, st.sampled_from([0.0, -0.0])),
    p=st.one_of(finite, st.sampled_from([0.0, -0.0])),
    h=st.one_of(
        st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False),
        st.sampled_from([1e-14, 0.05]),
    ),
    tol=tolerances(),
)
# signed zeros in both friction forms
@example(spec=(1.0, -0.0, 0.0, 0.0, -0.0, 1.0), t=0.0, q=-0.0, p=-0.0, h=0.05, tol=Tolerances())
@example(spec=(-1.0, 0.0, -0.0, -0.0, 0.0, -1.0), t=-0.0, q=0.0, p=-0.0, h=0.05, tol=Tolerances())
@example(spec=(1.0, -0.0, 1.0, 0.0, -0.0, 0.0), t=0.0, q=-0.0, p=-0.0, h=0.05, tol=Tolerances())
def test_step_matches_the_looped_reference_far_from_the_pendulum(spec, t, q, p, h, tol):
    """The stages of both friction forms of `branch_field` for constants
    and pivot laws far from the pendulum's: signed zeros, huge and tiny
    slopes, negative lengths."""
    field = far_field(spec)
    f = field[0]
    ref = outcome(refstepper._accepted_step, f, t, q, p, h, tol)
    assert outcome(first_step, field, spec[-1], t, q, p, h, tol) == ref
    if ref[0] == "raises":
        return
    h1, q1, p1, kq, kp, _ = refstepper._accepted_step(f, t, q, p, h, tol)
    assert _segment_rows(f, t, h1, q, p, q1, p1, kq, kp) == outcome(
        refstepper._dense_rows, f, t, h1, q, p, q1, p1, kq, kp
    )


def _stretch_field(spec, branch):
    """(piece, consts, f, knots) of a stretch case: the pendulum of (params,
    pivot) on its pieces, with the p = 0 test and kink cuts where it has
    friction, and the knots of a table law; or the `far_field` of spec,
    with neither, on one piece."""
    if len(spec) == 2:
        params, pivot = spec
        f, consts, _ = kernel(params, pivot, branch)
        knots = pivot.times if isinstance(pivot, TablePivot) else ()
        return integrator._branch_pieces(params, pivot, branch), consts, f, knots
    f, consts, accel = far_field((*spec, branch))
    return (lambda _: (math.inf, f, None, accel)), consts, f, ()


@st.composite
def stretch_cases(draw):
    """A frictionless pendulum or a `far_field`, a start and a first step:
    stretches that run at the cap, change h, meet rejections and land on
    the knots of table laws."""
    if draw(st.booleans()):
        spec = (Params(l=draw(reals(0.2, 3)), g=draw(reals(1, 20)), mu=0.0), draw(pivots()))
    else:
        coef = st.one_of(reals(-10, 10), finite, st.sampled_from([0.0, -0.0, 1.0, -1.0]))
        length = draw(st.one_of(reals(0.2, 3), finite.filter(bool)))
        spec = (length, *(draw(coef) for _ in range(4)))
    t = draw(st.one_of(reals(0, 100), st.sampled_from([0.0, -0.0])))
    q = draw(st.one_of(reals(-4, 7), st.sampled_from([0.0, -0.0])))
    p = draw(st.one_of(reals(-10, 10), finite, st.sampled_from([1e-300, -5e-324])))
    h = draw(st.one_of(reals(1e-12, 2.0), st.sampled_from([1e-14, 0.05])))
    return spec, t, q, p, h


_STRETCH_STEPS = 40


def _stretch_steps(piece, consts, branch, t, q, p, h, tol):
    """The first steps `_slip` yields from (t, q, p) with no end time, as
    (t, h, q1, p1, kq, kp, h_next) bits, then the name of what it raised."""
    steps = []
    try:
        for t0, h, _, _, _, kq, kp, _, _, q1, p1, h_next, _ in integrator._slip(
            piece, consts, branch, t, q, p, h, math.inf, tol
        ):
            steps.append(bits((t0, h, q1, p1, kq, kp, h_next)))
            if len(steps) == _STRETCH_STEPS:
                break
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        steps.append(type(exc).__name__)
    return steps


def _chained_steps(f, t, q, p, h, tol, knots=()):
    """The same from chained `refstepper._accepted_step` calls, each from
    the last one's end and h_next; the stretch must not meet p = 0 or a kink
    where it has friction.  A step whose first try reaches a knot, the end
    of a piece, is cut to end on it: its last stage is evaluated on the
    knot, and the step after it is no shorter than the one that was cut."""
    steps = []
    while len(steps) < _STRETCH_STEPS:
        knot = min((k for k in knots if k > t), default=math.inf)
        h_uncut = min(h, tol.max_dt)
        landing = knot - t <= h_uncut
        try:
            h1, q1, p1, kq, kp, h = refstepper._accepted_step(
                f, t, q, p, knot - t if landing else h_uncut, tol
            )
            t1 = t + h1
            if landing and h1 == knot - t:
                t1, h = knot, max(h, h_uncut)
                kq, kp = kq[:12] + (p1,), kp[:12] + (f(t1, q1, p1)[1],)
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            steps.append(type(exc).__name__)
            break
        steps.append(bits((t, h1, q1, p1, kq, kp, h)))
        t, q, p = t1, q1, p1
    return steps


@PROPERTY
@given(case=stretch_cases(), tol=tolerances())
# a forced frictionless swing at the default tolerances: every step at the
# cap, where the shortcut decides
@example(case=((Params(mu=0.0), SinePivot(2.0, 1.0)), 0.0, 1.1, 3.0, 0.05), tol=Tolerances())
# a forced swing at tight tolerances: h changes at every step, and about
# every other step meets a rejection
@example(
    case=((Params(mu=0.0, l=0.5), SinePivot(20.0, 7.0)), 0.0, 0.3, 9.0, 0.5),
    tol=Tolerances(rel_tol=1e-12, abs_tol=1e-13, stick_band=1e-11, max_dt=0.5),
)
# a whirl at loose tolerances: steps at a cap of 0.5 that pass with a norm
# past 0.9^8, so the next step is shorter than the cap
@example(
    case=((Params(g=9.0, mu=0.0), ConstantPivot(0.0)), 0.0, 0.0, 6.0, 1.0),
    tol=Tolerances(rel_tol=1e-3, abs_tol=1e-4, stick_band=1e-2, max_dt=0.5),
)
# stages of 1e308 overflow the 3rd-order estimate's sums into NaN while the
# 5th-order one stays small: the norm is NaN, every attempt is rejected and
# the step underflows, also at the cap
@example(
    case=((Params(mu=0.0), SinePivot(2.0, 1.0)), 0.0, 1.1, 1e308, 0.01),
    tol=Tolerances(max_dt=0.01),
)
# a frictional whirl, on which the normal force stays negative: no step is
# cut at a kink, so every stage 12 must give N the sign it had at the start
@example(case=((Params(mu=0.1), SinePivot(2.0, 1.0)), 0.0, 1.0, 10.0, 0.05), tol=Tolerances())
# a frictional whirl under a table law: the steps land on four knots, the
# stages of each piece read its own line
@example(
    case=(
        (
            Params(mu=0.05),
            TablePivot([0.0, 0.13, 0.4, 0.9, 1.5, 2.5], [1.0, -3.0, 4.0, 0.5, 2.0, 0.0]),
        ),
        0.0, 1.1, 14.0, 0.05,
    ),
    tol=Tolerances(),
)
def test_stretch_matches_chained_reference_steps(case, tol):
    """Every step of a stretch, not only the first: each attempt must use
    the weights of its own h, and the cap's shortcut must decide as the
    norm would, across rejections, changes of h, runs at the cap and
    landings on the knots of a table law."""
    spec, t, q, p, h = case
    branch = -1.0 if p < 0 else 1.0
    piece, consts, f, knots = _stretch_field(spec, branch)
    assert _stretch_steps(piece, consts, branch, t, q, p, h, tol) == _chained_steps(
        f, t, q, p, h, tol, knots
    )


_stages = st.tuples(
    *[st.one_of(reals(-1e3, 1e3), finite, st.sampled_from([0.0, -0.0, 1.0]))] * 13
)


@st.composite
def scaled_error_cases(draw):
    """Stages 0-12 of q and p, scales sq, sp and a step h = max_dt, with the
    scales drawn so that h^2 err5 lands around 0.32."""
    kq, kp = draw(_stages), draw(_stages)
    max_dt = draw(st.one_of(reals(1e-14, 1e3), st.sampled_from([0.05, 0.5, 1.0])))
    ratio = draw(reals(1e-3, 1e3))
    err5 = refstepper._norms(kq, kp, 1.0, ratio)[0]
    # err5 scales as 1 / s^2 when both scales are multiplied by s
    s = math.sqrt(max_dt * max_dt * err5 / (0.32 * draw(reals(1e-3, 1.5))))
    if not 0.0 < s * ratio < math.inf:
        s, ratio = draw(reals(1e-300, 1e300)), 1.0
    return kq, kp, s, s * ratio, max_dt


@PROPERTY
@given(scaled_error_cases())
# h^2 err5 = 0.32 exactly, with err3 = 0: the norm is 0.39999999999999997
@example(
    (
        (23.44728773340198, 0.0, 0.0, 0.0, 0.0, 1.0) + (0.0,) * 7,
        (0.0,) * 13,
        0.08109869335987148,
        1.0,
        0.05,
    )
)
# err5 = 0: the factor is 5
@example(((0.0,) * 13, (0.0,) * 13, 1.0, 1.0, 0.05))
# a NaN err3 under a small err5 (see the chained test): not a skip
@example(((1e308,) * 13, (0.0,) * 13, 5e300, 1.0, 0.05))
def test_cap_shortcut_is_sound(case):
    """Where `_slip` takes a step at the cap without the norm (h = max_dt,
    h^2 err5 <= 0.32 and err3 not NaN), the reference's norm accepts it
    with room, err <= 0.9^8, and sets max_dt as the next step."""
    kq, kp, sq, sp, max_dt = case
    err5, err3 = refstepper._norms(kq, kp, sq, sp)
    err = refstepper._error(kq, kp, sq, sp, max_dt)
    if max_dt * max_dt * err5 <= 0.32 and err3 == err3:
        assert err <= 0.9 ** 8
        assert refstepper._next_step(max_dt, err, max_dt) == max_dt
    elif max_dt * max_dt * err5 <= 0.32:  # only a NaN err3 keeps it from the shortcut
        assert not err <= 1.0


def _segments(t0, h, q0, p0, rq, rp):
    """The package's segment of the rows (rq, rp), and the reference's."""
    return (
        integrator.DenseSegment(t0, h, q0, p0, tuple(rq), tuple(rp)),
        refstepper.DenseSegment(t0=t0, h=h, q0=q0, p0=p0, rq=tuple(rq), rp=tuple(rp)),
    )


rows7 = st.tuples(*[st.one_of(finite, st.sampled_from([0.0, -0.0, 1.0, -1.0]))] * 7)


@PROPERTY
@given(
    h=st.one_of(reals(1e-12, 1.0), finite),
    q0=finite,
    p0=finite,
    rq=rows7,
    rp=rows7,
    theta=st.one_of(reals(0, 1), st.sampled_from([0.0, -0.0, 1.0, 0.5, 1 / 16]), finite),
)
@example(h=0.1, q0=-0.0, p0=-0.0, rq=(-0.0,) * 7, rp=(-0.0,) * 7, theta=0.5)
def test_dense_eval_matches_the_looped_horner(h, q0, p0, rq, rp, theta):
    new, ref = _segments(0.0, h, q0, p0, rq, rp)
    assert bits(new.eval(theta)) == bits(ref.eval(theta))


def _basis_matrix():
    """Column i: the power-basis coefficients (theta^1 .. theta^7) of the
    i-th term of the dense output's nested form."""
    th, u = np.polynomial.Polynomial([0, 1]), np.polynomial.Polynomial([1, -1])
    terms = [th, th * u, th**2 * u, th**2 * u**2, th**3 * u**2, th**3 * u**3, th**4 * u**3]
    return np.array([[*t.coef[1:], *[0.0] * (8 - len(t.coef))] for t in terms]).T


_BASIS = _basis_matrix()


def _rows_for(power):
    """The dense-output rows of x(theta) - x0 = sum_k power[k-1] theta^k."""
    return tuple(float(r) for r in np.linalg.solve(_BASIS, np.array(power, dtype=float)))


def _stepped_segment(params, pivot, branch, t, q, p, h):
    """The dense segment of one step of size h of the field of (params,
    pivot, branch) from (t, q, p), as (t, h, q, p, rq, rp)."""
    f = refstepper._field(params, pivot, branch)
    q1, p1, (kq, kp) = refstepper._rk_step(f, t, q, p, h)
    kq[12], kp[12] = f(t + h, q1, p1)
    rq, rp = refstepper._dense_rows(f, t, h, q, p, q1, p1, kq, kp)
    return t, h, q, p, rq, rp


@st.composite
def stepped_segments(draw):
    """A dense segment built by one real step of a drawn field."""
    try:
        return _stepped_segment(*draw(stepper_cases()))
    except (ArithmeticError, ValueError):  # stages that leave the float range
        assume(False)


@st.composite
def adversarial_segments(draw):
    """Polynomials p(th) and q(th) that sit on or graze their event levels.

    The power-basis form p0 + a1 th + ... + a4 th^4 is drawn through its
    roots: a double root (a grazing touch of p = 0), p0 a few ulps from 0,
    or an arbitrary quartic, then written as dense-output rows (up to
    rounding, which moves a double root by about the square root of an ulp).
    """
    h = draw(reals(1e-6, 0.2))
    shape = draw(st.sampled_from(["double", "tiny_p0", "free"]))
    scale = draw(reals(1e-3, 50))
    if shape == "double":
        r = draw(reals(0, 1.2))
        s1, s2 = draw(reals(-3, 3)), draw(reals(-3, 3))
        # scale * (th - r)^2 * (th - s1) * (th - s2), expanded
        poly = np.polynomial.Polynomial.fromroots([r, r, s1, s2]) * scale
        a = list(poly.coef)
    elif shape == "tiny_p0":
        a = [draw(st.integers(-4, 4)) * 5e-324] + [draw(reals(-scale, scale)) for _ in range(4)]
    else:
        a = [draw(reals(-scale, scale)) for _ in range(5)]
    a = [float(x) for x in a] + [0.0] * (8 - len(a))
    rp = _rows_for(a[1:])
    q_span = draw(reals(0.01, 4))
    rq = _rows_for([draw(reals(-q_span, q_span)) for _ in range(4)] + [0.0] * 3)
    q0 = draw(st.one_of(reals(-0.5, math.pi + 0.5), st.sampled_from([0.0, math.pi, 1e-300])))
    return draw(reals(0, 50)), h, q0, a[0], rq, rp


def _root_scan(seg, theta_max=1.0):
    """The p = 0 scan that `_slip` runs on a step whose Hermite test did not
    clear: the scan-point bracket (theta_a, theta_b) of the first sign
    change of the dense p on [0, theta_max], or None."""
    lo, hi = (0.0, math.inf) if seg.p0 > 0 else (-math.inf, 0.0)
    hit = integrator._first_exit(seg, 1, theta_max, lo, hi)
    return None if hit is None else hit[:2]


theta_maxes = st.one_of(st.just(1.0), reals(1e-9, 1.0), st.sampled_from([1 - 2 ** -52, 0.5]))


@PROPERTY
@given(seg=st.one_of(stepped_segments(), adversarial_segments()), theta_max=theta_maxes)
# friction that speeds p up (branch -1 at p > 0) runs p to 2e49 in one step,
# and rows 3-6 overflow: q and p are NaN at every scan point, where both
# scans see an exit
@example(
    seg=_stepped_segment(
        Params(l=2.9171347163871633, g=19.002023398371318, mu=0.8),
        ConstantPivot(-12.545358093527156), -1.0, 80.00391285290084, 6.701939219668178,
        8.162858700554168, 0.48438939107559537,
    ),
    theta_max=1.0,
)
def test_event_scans_match_the_reference(seg, theta_max):
    new, ref = _segments(*seg)
    sign0 = 1.0 if new.p0 > 0 else -1.0
    assert bits(_root_scan(new, theta_max)) == bits(
        refstepper._poly_first_sign_change(ref, sign0, theta_max)
    )
    for q_lo, q_hi in ((0.0, math.pi), (-1.0, 0.5), (new.q0 - 1e-9, new.q0 + 1e-9)):
        assert bits(integrator._guard_exit(new, theta_max, q_lo, q_hi)) == bits(
            refstepper._guard_exit(ref, theta_max, q_lo, q_hi)
        )


@pytest.mark.parametrize("p0, side", [(1e306, "high"), (-1e306, "low")])
def test_a_guard_exit_on_overflowed_rows_is_not_missed(p0, side):
    # without friction, from |p| = 1e306, the stages of q all round to p, so
    # the step passes its error test while the sums of q's dense rows
    # overflow: q is NaN at every scan point.  q leaves the guard on the
    # first step, whose end, about 7.5e302 from the start, is the first
    # point known outside: the exit is there, on the side q went
    traj = integrate(
        State(q=1.1, p=p0, t=0.0), Params(mu=0.0), SinePivot(2.0, 1.0), 0.05,
        region_guard=(-10.0, 10.0),
    )
    (event,) = traj.events
    assert (event.kind, event.side) == ("region_exit", side)
    assert 0.0 < event.t < 1e-3
    assert math.isfinite(event.q) and abs(event.q) > 1e302 and event.q * p0 > 0.0
    assert traj.final.q == event.q and traj.final.t == event.t


# --- the Hermite exclusion: sound, and not vacuous --------------------------


def _exact_hermite(h, q0, p0, f0, q1, p1, f1):
    """The exact Bernstein coefficients of the quintic Hermite of q with
    value q, slope p and second derivative f at both ends of a step of size
    h, and those of its derivative in t, a quartic."""
    h, q0, p0, f0, q1, p1, f1 = (F(v) for v in (h, q0, p0, f0, q1, p1, f1))
    b = [
        q0, q0 + h * p0 / 5, q0 + 2 * h * p0 / 5 + h * h * f0 / 20,
        q1 - 2 * h * p1 / 5 + h * h * f1 / 20, q1 - h * p1 / 5, q1,
    ]
    return b, [5 * (b1 - b0) / h for b0, b1 in zip(b, b[1:])]


def _bernstein_value(b, th):
    n = len(b) - 1
    return sum(math.comb(n, i) * th**i * (1 - th) ** (n - i) * bi for i, bi in enumerate(b))


def test_bernstein_bounds_are_the_bernstein_coefficients():
    rng = np.random.default_rng(7)
    for _ in range(200):
        h = rng.uniform(0.01, 1)
        q0, q1 = rng.normal(size=2)
        p0, p1, f0, f1 = rng.normal(size=4) * 10
        args = (h, q0, p0, f0, q1, p1, f1)
        bq, bp = _exact_hermite(*args)
        # the coefficients are those of the Hermite: value, slope and second
        # derivative in t at both ends
        hh = F(h)
        assert (bq[0], 5 * (bq[1] - bq[0]) / hh, 20 * (bq[2] - 2 * bq[1] + bq[0]) / hh**2) == (
            F(q0), F(p0), F(f0),
        )
        assert (bq[5], 5 * (bq[5] - bq[4]) / hh, 20 * (bq[5] - 2 * bq[4] + bq[3]) / hh**2) == (
            F(q1), F(p1), F(f1),
        )
        assert (bp[0], bp[4], 4 * (bp[1] - bp[0]) / hh, 4 * (bp[4] - bp[3]) / hh) == (
            F(p0), F(p1), F(f0), F(f1),
        )
        for test, b in ((integrator._hermite_q_clear, bq), (integrator._hermite_p_clear, bp)):
            lo, hi, width = float(min(b)), float(max(b)), float(max(b) - min(b))
            # levels just outside the hull clear; levels inside it do not
            assert test(*args, lo - 1e-6 * (1 + width), hi + 1e-6 * (1 + width))
            assert not test(*args, lo + 1e-3 * width, hi + 1)
            assert not test(*args, lo - 1, hi - 1e-3 * width)


@pytest.mark.parametrize("eps, skipped", [(1e-14, False), (-1e-14, False), (1e-9, True)])
def test_exclusion_keeps_its_rounding_margin(eps, skipped):
    # a Hermite whose least Bernstein coefficient sits eps above the level,
    # with term magnitudes of at most about 40: only a margin well above
    # 40e-12 lets the test clear it
    h = 0.5
    # q: flat at q_lo + eps on the first half, rising to 3 (guard (1, 5))
    assert integrator._hermite_q_clear(h, 1.0 + eps, 0.0, 0.0, 3.0, 0.0, 0.0, 1.0, 5.0) == skipped
    # p: eps at the start, with slope 0 there, and 7 at the end
    q1 = 1.0 + h * 3.0
    assert integrator._hermite_p_clear(h, 1.0, eps, 0.0, q1, 7.0, 0.0, 0.0, math.inf) == skipped


@st.composite
def hermite_cases(draw):
    """The Hermite data (h, q0, p0, f0, q1, p1, f1) of a real step of a
    drawn field, or of a polynomial with a double root drawn in [0, 1.2]
    (a grazing touch of its level), rounded to floats."""
    if draw(st.booleans()):
        params, pivot, branch, t, q, p, h = draw(stepper_cases())
        f = refstepper._field(params, pivot, branch)
        try:
            q1, p1, (kq, kp) = refstepper._rk_step(f, t, q, p, h)
            _, f1 = f(t + h, q1, p1)
        except (ArithmeticError, ValueError):  # stages that leave the float range
            assume(False)
        return h, q, p, kp[0], q1, p1, f1
    h = draw(reals(1e-6, 0.5))
    r = draw(reals(0, 1.2))
    s1, s2, s3 = (draw(reals(-3, 3)) for _ in range(3))
    level = draw(st.sampled_from([0.0, 1.0, math.pi]))
    # q(th) = level + scale * (th - r)^2 (th - s1)(th - s2)(th - s3), in t
    poly = np.polynomial.Polynomial.fromroots([r, r, s1, s2, s3]) * draw(reals(1e-3, 10))
    poly = poly + level
    d1, d2 = poly.deriv(1), poly.deriv(2)
    return (
        h, float(poly(0)), float(d1(0)) / h, float(d2(0)) / h**2,
        float(poly(1)), float(d1(1)) / h, float(d2(1)) / h**2,
    )


@PROPERTY
@given(case=hermite_cases())
@example(case=(0.01, 1.0, 5e-324, -5e-324, 1.0, 5e-324, 0.0))
def test_exclusion_only_skips_scans_that_find_nothing(case):
    # a Hermite test that clears leaves no point of that Hermite past the
    # level: the exact Bernstein coefficients, whose hull holds it, and the
    # exact polynomial on a grid all stay strictly inside
    h, q0, p0, f0, q1, p1, f1 = case
    levels = [(0.0, math.pi), (-1.0, 0.5), (q0 - 1e-6, q0 + 1e-3), (q0 - 1e-12, math.inf)]
    if not all(map(math.isfinite, case)):  # a stage that left the float range
        assert not any(integrator._hermite_q_clear(*case, *lv) for lv in levels)
        assert not integrator._hermite_p_clear(*case, 0.0, math.inf)
        assert not integrator._hermite_p_clear(*case, -math.inf, 0.0)
        return
    bq, bp = _exact_hermite(*case)
    grid = [F(k, 64) for k in range(65)]
    for lo, hi in levels:
        if not lo < hi:
            continue
        if integrator._hermite_q_clear(*case, lo, hi):
            inside = lambda v: F(lo) < v and (hi == math.inf or v < F(hi))  # noqa: E731
            assert all(inside(b) for b in bq)
            assert all(inside(_bernstein_value(bq, th)) for th in grid)
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0)):
        if integrator._hermite_p_clear(*case, lo, hi):
            inside = (lambda v: v > 0) if hi == math.inf else (lambda v: v < 0)
            assert all(inside(b) for b in bp)
            assert all(inside(_bernstein_value(bp, th)) for th in grid)


@contextlib.contextmanager
def counted_steps():
    """Count the steps `integrate` takes inside the block."""
    steps = [0]
    original = integrator._slip

    def counting_stretch(*args):
        for step in original(*args):
            steps[0] += 1
            yield step

    integrator._slip = counting_stretch
    try:
        yield steps
    finally:
        integrator._slip = original


@contextlib.contextmanager
def counted_segments():
    """Count the DenseSegments built inside the block."""
    calls = [0]
    original = DenseSegment.__init__

    def counting(self, *args):
        calls[0] += 1
        original(self, *args)

    DenseSegment.__init__ = counting
    try:
        yield calls
    finally:
        DenseSegment.__init__ = original


def _scan_counts(scan_name, run):
    """(steps taken, calls of the scan `scan_name`) during run(): the scan
    runs only on a step whose Hermite test did not clear."""
    original = getattr(integrator, scan_name)
    ran = [0]

    def scan(*args):
        ran[0] += 1
        return original(*args)

    setattr(integrator, scan_name, scan)
    try:
        with counted_steps() as steps:
            run()
    finally:
        setattr(integrator, scan_name, original)
    return steps[0], ran[0]


def _load(name):
    with open(os.path.join(SCENARIOS, name)) as fh:
        return json.load(fh)


def test_exclusion_skips_most_root_scans_on_swing_capture():
    spec = _load("swing_capture.json")
    params = Params(**spec["params"])
    pivot = SinePivot(spec["pivot"]["amp"], spec["pivot"]["omega"], spec["pivot"]["phase"])
    start = State(q=spec["initial"]["q0"], p=spec["initial"]["p0"], t=0.0)
    # no region guard, so every `_first_exit` is a p = 0 scan
    steps, ran = _scan_counts(
        "_first_exit", lambda: integrate(start, params, pivot, spec["horizon"])
    )
    assert steps > 100
    assert ran < 0.1 * steps


def test_exclusion_skips_most_guard_scans():
    # a frictionless swing through the hanging position that stays inside
    # the guard interval for the whole run
    params = Params(mu=0.0)
    pivot = SinePivot(0.5, 1.5)
    start = State(q=1.2, p=0.4, t=0.0)
    steps, ran = _scan_counts(
        "_guard_exit",
        lambda: integrate(start, params, pivot, 40.0, region_guard=(-5.0, 2.0)),
    )
    assert steps > 100
    assert ran < 0.1 * steps


@pytest.mark.parametrize(
    "test, args, lo, hi",
    [
        # q is 1 throughout, one ulp below q_hi
        (integrator._hermite_q_clear, (1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0), 0.0, 1 + 2**-52),
        # subnormal p: every coefficient is a whole multiple of 2^-1074
        (integrator._hermite_p_clear, (1.0, 0.0, 2.5e-323, 0.0, 5e-323, 2.5e-323, 0.0), 0.0,
         math.inf),
    ],
    ids=["guard", "root"],
)
def test_stage_exclusion_keeps_its_rounding_margin(test, args, lo, hi):
    # each of these Hermites comes within rounding of its level: the bare
    # Bernstein test would clear it, and the test with its margin does not
    bq, bp = _exact_hermite(*args)
    coefficients = bq if test is integrator._hermite_q_clear else bp
    assert all(F(lo) < b for b in coefficients)
    assert all(b < F(hi) for b in coefficients if hi != math.inf)
    assert test(*args, lo, hi) is False


def test_each_step_runs_each_stage_test_once(monkeypatch):
    # a strongly forced frictional swing under a region guard that lands on
    # p = 0 again and again: the Hermite test of p runs once on every step
    # (in `_slip`), and that of q once on every step that ends where the
    # Hermite holds (in `integrate`), a step cut on p = 0 included
    steps = []  # ((h, q0, p0), theta_end, cut) of every accepted step
    original_slip = integrator._slip

    def slip(*args):
        for step in original_slip(*args):
            t0, h, q0, p0, *_, switch = step
            theta_end = 1.0 if switch is None else (switch[0] - t0) / h
            steps.append(((h, q0, p0), theta_end, switch is not None))
            yield step

    tested = {"p": Counter(), "q": Counter()}

    def counting(name, original):
        def test(h, q0, p0, *rest):
            tested[name][(h, q0, p0)] += 1
            return original(h, q0, p0, *rest)

        return test

    monkeypatch.setattr(integrator, "_slip", slip)
    monkeypatch.setattr(integrator, "_hermite_p_clear", counting("p", integrator._hermite_p_clear))
    monkeypatch.setattr(integrator, "_hermite_q_clear", counting("q", integrator._hermite_q_clear))
    integrate(
        State(q=1.0, p=0.5, t=0.0), Params(mu=0.3), SinePivot(10.0, 2.0), 15.0,
        region_guard=(-10.0, 10.0),
    )
    assert sum(cut for *_, cut in steps) >= 10
    assert len({key for key, *_ in steps}) == len(steps)  # (h, q0, p0) names the step
    for key, theta_end, _ in steps:
        assert tested["p"].pop(key) == 1
        assert tested["q"].pop(key, 0) == 1 or theta_end > 1.0
    assert not tested["p"] and not tested["q"]  # each test was of some step, and at most once


def test_stage_bound_skips_nearly_every_frictionless_shooting_step():
    # `shoot` bisects frictionless_forced.json's curve under the guard
    # 0 < q < pi; a segment, with its three extra stages, is built only on
    # the steps near an exit
    with counted_steps() as steps, counted_segments() as built:
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            cli.main(["shoot", os.path.join(SCENARIOS, "frictionless_forced.json"), "--out", out])
    assert steps[0] > 2000
    assert built[0] < 0.02 * steps[0]


# --- the kink of the friction term -----------------------------------------

# a weak-friction swing under a constant push whose normal force changes
# sign twice between p = 0 crossings; at the parent's step controller a
# step over the second kink lost 2e-7 in p, and the next crossing moved by
# 2.6e-8 s
KINK_PARAMS, KINK_PIVOT = Params(mu=0.029662235780833227), ConstantPivot(-1.9329393022157766)
KINK_START = State(q=1.8282973343832698 - 1e-10, p=1.9523234002927055, t=0.0)
KINK_TOL = Tolerances(rel_tol=1e-11, abs_tol=1e-13, event_tol=1e-12, stick_band=1e-10)


@PROPERTY
@given(stepper_cases())
def test_normal_force_is_the_argument_of_the_friction_term(case):
    params, pivot, branch, t, q, p, _ = case
    a, s, c = pivot.accel(t), math.sin(q), math.cos(q)
    n = model.normal_force(params, pivot)(t, q, p)
    expected = (a / params.l) * s - (params.mu / params.l) * abs(n) * branch - (params.g / params.l) * c
    assert bits(model.branch_field(params, pivot, branch)(t, q, p)) == bits((p, expected))


def test_no_step_crosses_a_kink_of_the_friction_term(monkeypatch):
    steps = []
    original = integrator._slip

    def slip(*args):
        for step in original(*args):
            steps.append(step)
            yield step

    monkeypatch.setattr(integrator, "_slip", slip)
    integrate(KINK_START, KINK_PARAMS, KINK_PIVOT, 4.5, KINK_TOL)
    normal = model.normal_force(KINK_PARAMS, KINK_PIVOT)
    kinks = 0
    for t0, h, q0, p0, _, _, _, _, t1, q1, p1, _, _ in steps:
        n0, n1 = normal(t0, q0, p0), normal(t1, q1, p1)
        # a step may start or end on a kink, located on the dense output to
        # within about 1e-9 of N (N itself runs to about 40 here)
        assert (n0 > 0) == (n1 > 0) or min(abs(n0), abs(n1)) < 1e-7, (t0, n0, n1)
        kinks += abs(n1) < 1e-7
    assert kinks >= 4


def test_crossings_after_kinks_match_the_oracle():
    from scipy.integrate import solve_ivp

    traj = integrate(KINK_START, KINK_PARAMS, KINK_PIVOT, 4.5, KINK_TOL)
    crossings = [e.t for e in traj.events if e.kind == "crossing"]
    # the oracle: scipy's DOP853 from each crossing to the next, re-seeded
    # as the integrator does, with p = 0 as its terminal event
    t, y, expected = 0.0, [KINK_START.q, KINK_START.p], []
    for _ in crossings:
        f = model.branch_field(KINK_PARAMS, KINK_PIVOT, 1.0 if y[1] > 0 else -1.0)

        def at_zero(t, y):
            return y[1]

        at_zero.terminal = True
        sol = solve_ivp(
            lambda t, y: f(t, y[0], y[1]), (t, 4.5), y, method="DOP853", rtol=1e-13,
            atol=1e-16, events=at_zero,
        )
        t, y = sol.t_events[0][0], [sol.y_events[0][0][0], -math.copysign(5e-11, y[1])]
        expected.append(t)
    assert len(crossings) == 3
    assert max(abs(a - b) for a, b in zip(crossings, expected)) < 1e-10


# --- first-same-as-last reuse ----------------------------------------------


def _without_fsal(monkeypatch):
    """Make every step evaluate its first stage afresh: each step of a
    stretch is the first step of a new `_slip` from where the one before
    ended, which reads the piece that holds that end."""
    original = integrator._slip

    def first_steps(piece, consts, branch, t, q, p, h, t_end, tol):
        while True:
            step = next(original(piece, consts, branch, t, q, p, h, t_end, tol))
            yield step
            *_, t, q, p, h, switch = step
            # where `_slip` ends a stretch: on p = 0, at t_end or, with
            # friction, off the branch
            if switch is not None or t >= t_end:
                return
            if piece(t)[2] is not None and not p * branch > 0.0:
                return

    monkeypatch.setattr(integrator, "_slip", first_steps)


FSAL_CASES = [
    (Params(mu=0.5), SinePivot(6.0, 1.0), State(q=math.pi / 2, p=0.0, t=0.0), 12.0, None),
    (Params(mu=0.4), SinePivot(20.0, 2.0, 0.3), State(q=1.0, p=-1.0, t=0.0), 30.0, None),
    (
        Params(mu=0.3),
        TablePivot([0.0, 0.5, 1.3, 2.0, 4.0], [3.0, -9.0, 12.0, 0.0, -4.0]),
        State(q=1.2, p=0.7, t=0.0),
        8.0,
        None,
    ),
    (Params(mu=0.2), PolyPivot([1.0, -0.5, 0.05], t_max=20.0), State(q=2.0, p=0.5, t=0.0), 6.0, None),
    (Params(mu=0.0), SinePivot(2.0, 1.5), State(q=1.2, p=0.4, t=0.0), 15.0, (0.0, math.pi)),
    (Params(mu=0.0), ConstantPivot(0.0), State(q=1.0, p=0.0, t=0.0), 10.0, None),
]


@pytest.mark.parametrize("params, pivot, start, horizon, guard", FSAL_CASES)
def test_fsal_reuse_leaves_the_integration_unchanged(monkeypatch, params, pivot, start, horizon, guard):
    record = [horizon * k / 37 for k in range(38)]

    def run():
        # count the calls of every field closure the integrator builds, for
        # the first stage of a `_slip` and the dense output's stages; for a
        # table law they read the piece's line and not `accel`
        calls = [0]
        original = integrator.branch_field

        def counting_field(*args):
            f = original(*args)

            def counted(t, q, p):
                calls[0] += 1
                return f(t, q, p)

            return counted

        monkeypatch.setattr(integrator, "branch_field", counting_field)
        traj = integrate(start, params, pivot, horizon, region_guard=guard, record_at=record)
        monkeypatch.setattr(integrator, "branch_field", original)
        return traj, calls[0]

    with_reuse, n_with = run()
    _without_fsal(monkeypatch)
    without_reuse, n_without = run()

    assert bits(with_reuse.samples) == bits(without_reuse.samples)
    assert [e.to_dict() for e in with_reuse.events] == [e.to_dict() for e in without_reuse.events]
    assert bits([(s.t, s.q, s.p, s.mode) for s in with_reuse.recorded]) == bits(
        [(s.t, s.q, s.p, s.mode) for s in without_reuse.recorded]
    )
    assert n_with < n_without


def test_fsal_stage_is_not_used_for_another_start():
    params, pivot, tol = Params(mu=0.5), SinePivot(3.0, 1.0), Tolerances()
    piece, consts = integrator._branch_pieces(params, pivot, 1.0), model.slip_constants(params, 1.0)
    stretch = integrator._slip(piece, consts, 1.0, 0.0, 1.0, 0.5, None, math.inf, tol)
    first, second = next(stretch), next(stretch)
    *_, t1, q1, p1, h_next, _ = first
    # the last stage of a step is the first stage of the step from its end
    assert second[0] == t1 and second[2:4] == (q1, p1)
    assert bits((second[5][0], second[6][0])) == bits((first[5][12], first[6][12]))
    # on its own start it is the field value there, so it gives the same step
    fresh = next(integrator._slip(piece, consts, 1.0, t1, q1, p1, h_next, math.inf, tol))
    assert bits(second[5:7] + second[8:12]) == bits(fresh[5:7] + fresh[8:12])


def test_nan_step_raises_instead_of_looping():
    with pytest.raises(integrator.StepUnderflow):
        integrator.step_smooth(State(q=math.nan, p=0.5, t=0.0), Params(), ConstantPivot(0.0), Tolerances())


# --- one generator per slipping stretch ------------------------------------

# a sampled sine with knot noise, knots every 0.25 s, that sticks, releases
# and crosses p = 0 within 8 s
STRETCH_TABLE = TablePivot(
    [0.25 * k for k in range(41)],
    [9.0 * math.sin(0.325 * k + 0.4) * (1.0 + 0.1 * math.sin(7.1 * k)) for k in range(41)],
)


@pytest.mark.parametrize(
    "params, pivot, start, horizon",
    [
        (Params(mu=0.3), STRETCH_TABLE, State(q=1.1, p=0.6, t=0.0), 8.0),
        (Params(mu=0.0), SinePivot(2.0, 1.5), State(q=1.2, p=0.4, t=0.0), 15.0),
    ],
    ids=["table-friction", "sine-frictionless"],
)
def test_one_slip_per_stretch_between_events(monkeypatch, params, pivot, start, horizon):
    # a stretch starts at the start, a crossing or a release, and `integrate`
    # steps it with one `_slip` generator through the knots of a table law
    # and, without friction, through the sign changes of p
    spans = []  # [start, end] of the steps of each generator
    original = integrator._slip

    def slip(*args):
        span = [args[3], args[3]]
        spans.append(span)
        for step in original(*args):
            switch = step[-1]
            span[1] = step[8] if switch is None else switch[0]
            yield step

    monkeypatch.setattr(integrator, "_slip", slip)
    traj = integrate(start, params, pivot, horizon)
    kinds = Counter(e.kind for e in traj.events)
    assert len(spans) == 1 + kinds["crossing"] + kinds["stick_release"]
    starts = [start.t] + [e.t for e in traj.events if e.kind in ("crossing", "stick_release")]
    assert [span[0] for span in spans] == starts
    if params.mu > 0:
        assert kinds["crossing"] >= 1 and kinds["stick_release"] >= 2
        knots_inside = sum(a < k < b for a, b in spans for k in pivot.times)
        assert knots_inside >= 10
    else:
        assert spans == [[start.t, horizon]]
        ps = [s[2] for s in traj.samples]
        assert sum((a > 0) != (b > 0) for a, b in zip(ps, ps[1:])) >= 4

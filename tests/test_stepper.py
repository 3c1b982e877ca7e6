"""The written-out DOPRI5 stepper against its looped reference, bit for bit.

`refstepper` holds the looped stage sums, step-size control, dense
coefficients, Horner evaluation and 16-point event scans.  The package's
versions must give the same bits (compared as IEEE 754 patterns, so -0.0
counts too), or raise the same exception where the stages leave the float
range; the first step that `_slip` yields is compared with the reference's
first accepted step.  The
first-same-as-last reuse must not change an integration, and the stage
bound and the Bernstein test that let the event scans be skipped must only
skip scans that find nothing, while skipping most of them on ordinary runs.
"""

import contextlib
import io
import json
import math
import os
import struct
import tempfile
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, reject, settings
from hypothesis import strategies as st

from drypend import cli, integrator, model
from drypend.integrator import DenseSegment, Tolerances, integrate
from drypend.model import ConstantPivot, Params, PolyPivot, SinePivot, State, TablePivot

import refstepper

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
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


# --- the stepper against the looped reference ------------------------------


def outcome(fn, *args):
    """What fn(*args) does: the bits of its result, or the name of the type
    of what it raised."""
    try:
        return "returns", bits(fn(*args))
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return "raises", type(exc).__name__


def first_step(f, branch, t, q, p, h, tol):
    """The first step `_slip` yields from (t, q, p) with no end time and no
    event scan, in the form of `refstepper._accepted_step`."""
    t0, h, q0, p0, kq, kp, seg, t1, q1, p1, h_next, hit = next(
        integrator._slip(f, branch, t, q, p, h, math.inf, tol, False, None)
    )
    assert (t0, q0, p0, seg, hit) == (t, q, p, None, False)
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
def test_field_and_step_match_the_looped_reference(case, tol):
    params, pivot, branch, t, q, p, h = case
    f_ref = refstepper._field(params, pivot, branch)
    f_new = model.branch_field(params, pivot, branch)
    assert bits(f_new(t, q, p)) == bits(f_ref(t, q, p))

    ref = outcome(refstepper._accepted_step, f_ref, t, q, p, h, tol)
    new = outcome(first_step, f_new, branch, t, q, p, h, tol)
    assert new == ref
    if ref[0] == "raises":
        return

    kq, kp = refstepper._rk_step(f_ref, t, q, p, h)[4]
    cq_ref, cp_ref = refstepper._dense_coeffs(kq, kp)
    cq_new, cp_new = integrator._dense_coeffs(tuple(kq), tuple(kp))
    assert bits((cq_new, cp_new)) == bits((cq_ref, cp_ref))

    dq, dp = f_new(t, q, p)
    assert bits(integrator._initial_step(q, p, dq, dp, tol)) == bits(
        refstepper._initial_step(f_ref, t, q, p, tol)
    )


@PROPERTY
@given(
    coef=st.tuples(*[st.one_of(finite, st.sampled_from([0.0, -0.0, 1.0, -1.0]))] * 4),
    t=st.one_of(finite, st.sampled_from([0.0, -0.0])),
    q=st.one_of(finite, st.sampled_from([0.0, -0.0])),
    p=st.one_of(finite, st.sampled_from([0.0, -0.0])),
    h=st.one_of(
        st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False),
        st.sampled_from([1e-14, 0.05]),
    ),
    tol=tolerances(),
)
@example(coef=(0.0, -0.0, 0.0, -0.0), t=0.0, q=-0.0, p=-0.0, h=0.05, tol=Tolerances())
def test_step_matches_the_looped_reference_on_linear_fields(coef, t, q, p, h, tol):
    """Fields far from the pendulum's: signed zeros, huge and tiny slopes."""
    alpha, beta, gamma, delta = coef

    def f(t, q, p):
        return alpha * p + beta * t, gamma * q + delta

    ref = outcome(refstepper._accepted_step, f, t, q, p, h, tol)
    assert outcome(first_step, f, 1.0, t, q, p, h, tol) == ref
    kq, kp = refstepper._rk_step(f, t, q, p, h)[4]
    assert bits(integrator._dense_coeffs(tuple(kq), tuple(kp))) == bits(
        refstepper._dense_coeffs(kq, kp)
    )


def _segments(t0, h, q0, p0, kq, kp):
    """The package's segment of the stages (kq, kp), and the reference's,
    built from the reference's dense coefficients of the same stages."""
    cq, cp = refstepper._dense_coeffs(kq, kp)
    return (
        integrator.DenseSegment(t0, h, q0, p0, tuple(kq), tuple(kp)),
        refstepper.DenseSegment(t0=t0, h=h, q0=q0, p0=p0, cq=cq, cp=cp),
    )


stages7 = st.tuples(*[st.one_of(finite, st.sampled_from([0.0, -0.0, 1.0, -1.0]))] * 7)


@PROPERTY
@given(
    h=st.one_of(reals(1e-12, 1.0), finite),
    q0=finite,
    p0=finite,
    kq=stages7,
    kp=stages7,
    theta=st.one_of(reals(0, 1), st.sampled_from([0.0, -0.0, 1.0, 0.5, 1 / 16]), finite),
)
@example(h=0.1, q0=-0.0, p0=-0.0, kq=(-0.0,) * 7, kp=(-0.0,) * 7, theta=0.5)
def test_dense_eval_matches_the_looped_horner(h, q0, p0, kq, kp, theta):
    new, ref = _segments(0.0, h, q0, p0, kq, kp)
    assert bits(new.eval(theta)) == bits(ref.eval(theta))


# the least-norm stages whose dense coefficients are the given ones, so that
# a quartic drawn in the power basis can be built as a segment
_STAGES_OF_COEFFS = np.linalg.pinv(np.array(integrator._P).T)


def _stages_for(coeffs):
    return tuple(float(k) for k in _STAGES_OF_COEFFS @ np.array(coeffs, dtype=float))


@st.composite
def stepped_segments(draw):
    """A dense segment built by one real step of a drawn field."""
    params, pivot, branch, t, q, p, h = draw(stepper_cases())
    f = refstepper._field(params, pivot, branch)
    try:
        _, _, _, _, (kq, kp) = refstepper._rk_step(f, t, q, p, h)
    except (ArithmeticError, ValueError):  # stages that leave the float range
        assume(False)
    return t, h, q, p, tuple(kq), tuple(kp)


@st.composite
def adversarial_segments(draw):
    """Quartics p(th) and q(th) that sit on or graze their event levels.

    The power-basis form p0 + a1 th + ... + a4 th^4 is drawn through its
    roots: a double root (a grazing touch of p = 0), p0 a few ulps from 0,
    or an arbitrary quartic, then written as dense coefficients a_k / h and
    built from the stages that have them (up to rounding, which moves a
    double root by about the square root of an ulp).
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
    a = [float(x) for x in a] + [0.0] * (5 - len(a))
    kp = _stages_for([ak / h for ak in a[1:]])
    q_span = draw(reals(0.01, 4))
    kq = _stages_for([draw(reals(-q_span, q_span)) / h for _ in range(4)])
    q0 = draw(st.one_of(reals(-0.5, math.pi + 0.5), st.sampled_from([0.0, math.pi, 1e-300])))
    return draw(reals(0, 50)), h, q0, a[0], kq, kp


@contextlib.contextmanager
def counted_evals():
    """Count DenseSegment.eval calls made inside the block."""
    calls = [0]
    original = DenseSegment.eval

    def counting(self, theta):
        calls[0] += 1
        return original(self, theta)

    DenseSegment.eval = counting
    try:
        yield calls
    finally:
        DenseSegment.eval = original


def _root_scan(seg, theta_max=1.0):
    """The p = 0 scan that `_slip` runs on a segment whose stage bound did
    not clear: the scan-point bracket (theta_a, theta_b) of the first sign
    change of the dense p on [0, theta_max], or None."""
    lo, hi = (0.0, math.inf) if seg.p0 > 0 else (-math.inf, 0.0)
    hit = integrator._first_exit(seg, 1, theta_max, lo, hi)
    return None if hit is None else hit[:2]


theta_maxes = st.one_of(st.just(1.0), reals(1e-9, 1.0), st.sampled_from([1 - 2 ** -52, 0.5]))


@PROPERTY
@given(seg=st.one_of(stepped_segments(), adversarial_segments()), theta_max=theta_maxes)
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


# --- the Bernstein exclusion: sound, and not vacuous ------------------------


def test_bernstein_bounds_are_the_bernstein_coefficients():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x0, h, theta_max = rng.normal(), rng.uniform(0.01, 1), rng.uniform(0.1, 1)
        c = tuple(rng.normal(size=4) * 10)
        b = [F(x0)] + [F(h) * F(c[k]) * F(theta_max) ** (k + 1) for k in range(4)]
        # degree-4 Bernstein coefficient i: sum over k <= i of C(i,k)/C(4,k) b_k
        binom = math.comb
        exact = [sum(F(binom(i, k), binom(4, k)) * b[k] for k in range(i + 1)) for i in range(5)]
        lo, hi, mag = integrator._bernstein_bounds(x0, h, c, theta_max)
        assert lo == pytest.approx(float(min(exact)), rel=1e-12, abs=1e-12)
        assert hi == pytest.approx(float(max(exact)), rel=1e-12, abs=1e-12)
        assert mag == pytest.approx(float(sum(abs(v) for v in b)), rel=1e-12)


@pytest.mark.parametrize("eps, skipped", [(1e-14, False), (-1e-14, False), (1e-9, True)])
def test_exclusion_keeps_its_rounding_margin(eps, skipped):
    # p(th) = eps + (1 - th)^4 stays within |eps| of zero at th = 1, and the
    # sum of its term magnitudes is 16: only a margin well above 16e-12
    # lets the scan be skipped
    h = 0.5
    k = _stages_for((-4.0 / h, 6.0 / h, -4.0 / h, 1.0 / h))
    seg = DenseSegment(0.0, h, 1.0, 1.0 + eps, (0.0,) * 7, k)
    with counted_evals() as calls:
        _root_scan(seg)
    assert (calls[0] == 0) == skipped
    # the same for the guard: q(th) = q_lo + eps + (1 - th)^4
    seg = DenseSegment(0.0, h, 2.0 + eps, 1.0, k, (0.0,) * 7)
    with counted_evals() as calls:
        integrator._guard_exit(seg, 1.0, 1.0, 5.0)
    assert (calls[0] == 0) == skipped


def _dense_sign_change(values, start):
    """Whether a sequence of computed values leaves the sign of `start`."""
    return any(v == 0.0 or (v > 0) != (start > 0) for v in values)


@PROPERTY
@given(seg=st.one_of(adversarial_segments(), stepped_segments()), theta_max=theta_maxes)
@example(seg=(0.0, 0.01, 1.0, 5e-324, (1.0,) + (0.0,) * 6, (-1.0,) + (0.0,) * 6), theta_max=1.0)
def test_exclusion_only_skips_scans_that_find_nothing(seg, theta_max):
    new, ref = _segments(*seg)
    grid = [theta_max * i / 1000 for i in range(1, 1001)]

    with counted_evals() as calls:
        found = _root_scan(new, theta_max)
    if calls[0] == 0:  # the Bernstein test excluded a root
        assert found is None
        assert refstepper._poly_first_sign_change(ref, 1.0, theta_max) is None
        assert not _dense_sign_change([ref.eval(th)[1] for th in grid], new.p0)

    for q_lo, q_hi in ((0.0, math.pi), (new.q0 - 1e-6, new.q0 + 1e-3)):
        if not q_lo < q_hi:
            continue
        with counted_evals() as calls:
            exit_hit = integrator._guard_exit(new, theta_max, q_lo, q_hi)
        if calls[0] == 0:
            assert exit_hit is None
            assert refstepper._guard_exit(ref, theta_max, q_lo, q_hi) is None
            qs = [ref.eval(th)[0] for th in grid]
            assert all(q_lo < qv < q_hi for qv in qs)


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


def _scan_counts(scan_name, run):
    """(steps taken, scans that evaluated the interpolant) during run().

    The stage bound is tested on each step before any scan is called, so a
    step whose scan is skipped may not call the scan function at all.
    """
    original = getattr(integrator, scan_name)
    ran = [0]

    def scan(*args):
        with counted_evals() as calls:
            out = original(*args)
        ran[0] += calls[0] > 0
        return out

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
        lambda: integrate(start, params, pivot, 15.0, region_guard=(-5.0, 2.0)),
    )
    assert steps > 100
    assert ran < 0.1 * steps


# --- the stage bound: sound, and skipping nearly every step ---------------


def _weight_polynomial(i):
    """Exact power-basis coefficients of b_i(th) = th * sum_k _P[i][k] th^k."""
    return [F(0)] + [F(w) for w in integrator._P[i]]


def _horner(c, x):
    acc = F(0)
    for ck in reversed(c):
        acc = acc * x + ck
    return acc


def _max_abs_on_unit_interval(c):
    """An upper bound, within 1e-20, on max |c(th)| over [0, 1], in exact arithmetic.

    An interval whose midpoint slope exceeds what the second derivative
    allows to change over it holds no critical point, so |c| peaks at one of
    its ends; the others are halved down to width 2^-40 and bounded by their
    ends plus the largest slope on them times the width.
    """
    d = [k * c[k] for k in range(1, len(c))]
    dd = [k * d[k] for k in range(1, len(d))]
    m2 = sum(abs(v) for v in dd)
    bound = F(0)
    stack = [(F(0), F(1))]
    while stack:
        a, b = stack.pop()
        w, mid = b - a, (a + b) / 2
        ends = max(abs(_horner(c, a)), abs(_horner(c, b)))
        slope = abs(_horner(d, mid))
        if slope > m2 * w / 2 or not any(c):
            bound = max(bound, ends)
        elif w < F(1, 2 ** 40):
            bound = max(bound, ends + (slope + m2 * w / 2) * w)
        else:
            stack += [(a, mid), (mid, b)]
    return bound


def test_stage_weights_bound_the_weight_polynomials():
    for i, beta in enumerate(integrator._BETA):
        c = _weight_polynomial(i)
        peak = _max_abs_on_unit_interval(c)
        # at or above the peak, and rounded up no further than the fourth decimal
        assert F(beta) >= peak
        assert F(beta) - peak <= F(1, 10 ** 4)
        # the rounding margin of the stage test assumes each row of _P sums,
        # in magnitude, to under 110 times its weight
        assert sum(abs(F(w)) for w in integrator._P[i]) <= 110 * F(beta)


@contextlib.contextmanager
def counted_coeffs():
    """Count the dense coefficients formed inside the block."""
    calls = [0]
    original = integrator._dense_coeffs

    def counting(kq, kp):
        calls[0] += 1
        return original(kq, kp)

    integrator._dense_coeffs = counting
    try:
        yield calls
    finally:
        integrator._dense_coeffs = original


@PROPERTY
@given(seg=st.one_of(stepped_segments(), adversarial_segments()), theta_max=theta_maxes)
def test_stage_bound_only_skips_steps_without_events(seg, theta_max):
    _, h, q0, p0, kq, kp = seg
    new, ref = _segments(*seg)
    grid = [theta_max * i / 1000 for i in range(1, 1001)]

    # the p = 0 test of `_slip`, whose ends follow the sign of p0
    p_lo, p_hi = (0.0, math.inf) if p0 > 0 else (-math.inf, 0.0)
    if integrator._stage_clear(p0, h, kp, p_lo, p_hi):  # the stage test excluded a root
        assert _root_scan(new, theta_max) is None
        assert refstepper._poly_first_sign_change(ref, 1.0, theta_max) is None
        assert not _dense_sign_change([ref.eval(th)[1] for th in grid], p0)

    # the stage bound of q, |h| * sum_i _BETA[i] |kq_i|
    reach = abs(h) * sum(b * abs(k) for b, k in zip(integrator._BETA, kq))
    guards = [(0.0, math.pi), (q0 - 1e-6, q0 + 1e-3)]
    # guards just outside the stage bound, where only its margin decides
    guards += [(q0 - f * reach, q0 + f * reach) for f in (1.5, 1 + 1e-11, 1 + 1e-13)]
    for q_lo, q_hi in guards:
        if not q_lo < q_hi:
            continue
        if integrator._stage_clear(q0, h, kq, q_lo, q_hi):
            assert integrator._guard_exit(new, theta_max, q_lo, q_hi) is None
            assert refstepper._guard_exit(ref, theta_max, q_lo, q_hi) is None
            assert all(q_lo < ref.eval(th)[0] < q_hi for th in grid)


@pytest.mark.parametrize(
    "i, x0, h, k, lo, hi",
    [
        # q(th) = 1 + 2.5e-16 b_3(th) rounds onto q_hi = 1 + 2^-52 near th = 1,
        # though the stage bound 0.6511 * 2.5e-16 stays under q_hi - q0 = 2^-52
        (0, 1.0, 1.0, (0.0, 0.0, 0.0, 2.5e-16, 0.0, 0.0, 0.0), 0.0, math.nextafter(1.0, 2.0)),
        # subnormal stages: the formed coefficients round to whole multiples
        # of 2^-1074, and p reaches 0 though |p0| exceeds the stage bound
        (1, 2.27e-322, 10.0, (-1.73e-322, 0.0, 0.0, 0.0, -5e-324, 0.0, 0.0), 0.0, math.inf),
    ],
    ids=["guard", "root"],
)
def test_stage_exclusion_keeps_its_rounding_margin(i, x0, h, k, lo, hi):
    # each of these steps has an event that the bare stage bound would
    # exclude: the stage test keeps it, and the scan finds it
    assert integrator._stage_clear(x0, h, k, lo, hi) is False
    zero = (0.0,) * 7
    seg = DenseSegment(0.0, h, 1.0, x0, zero, k) if i else DenseSegment(0.0, h, x0, 0.0, k, zero)
    assert integrator._first_exit(seg, i, 1.0, lo, hi) is not None


def test_each_step_runs_each_stage_test_once(monkeypatch):
    # a strongly forced frictional swing under a region guard that lands on
    # p = 0 again and again: the stage test of p runs once on every step (in
    # `_slip`), and that of q once on every step that ends where the stage
    # bound holds (in `integrate`), a step cut on p = 0 included
    steps = []  # (kq, kp, hit, theta_end) of every accepted step
    original_slip = integrator._slip

    def slip(*args):
        for step in original_slip(*args):
            t0, h, _, _, kq, kp, _, t1, _, _, _, hit = step
            steps.append((kq, kp, hit, (t1 - t0) / h))
            yield step

    tested = []  # the stage tuple of each stage test
    original_clear = integrator._stage_clear

    def stage_clear(x0, h, k, lo, hi):
        tested.append(k)
        return original_clear(x0, h, k, lo, hi)

    monkeypatch.setattr(integrator, "_slip", slip)
    monkeypatch.setattr(integrator, "_stage_clear", stage_clear)
    integrate(
        State(q=1.0, p=0.5, t=0.0), Params(mu=0.3), SinePivot(10.0, 2.0), 15.0,
        region_guard=(-10.0, 10.0),
    )
    # each step's stage tuples are built once, so identity names the step and
    # the quantity of a test; `steps` keeps them alive, so the ids stay unique
    times = {}
    for k in tested:
        times[id(k)] = times.get(id(k), 0) + 1
    assert sum(hit for *_, hit, _ in steps) >= 10
    for kq, kp, _, theta_end in steps:
        assert times.pop(id(kp)) == 1
        assert times.pop(id(kq), 0) == 1 or theta_end > 1.0
    assert times == {}  # each test was of some step's stages, and at most once


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


def test_stage_bound_skips_nearly_every_frictionless_shooting_step():
    # `shoot` bisects frictionless_forced.json's curve under the guard
    # 0 < q < pi; the coefficients are formed, and a segment is built, only
    # on the steps near an exit
    with counted_steps() as steps, counted_coeffs() as formed, counted_segments() as built:
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            cli.main(["shoot", os.path.join(SCENARIOS, "frictionless_forced.json"), "--out", out])
    assert steps[0] > 5000
    # 75 of 8,942 steps (0.8%) when this test was written
    assert formed[0] < 0.02 * steps[0]
    assert built[0] < 0.02 * steps[0]


# --- first-same-as-last reuse ----------------------------------------------


def _without_fsal(monkeypatch):
    """Make every step evaluate its first stage afresh: each step of a
    stretch is the first step of a new `_slip` from where the one before
    ended, with no stage carried in."""
    original = integrator._slip

    def slip(f, branch, t, q, p, h, t_limit, tol, frictional, carried):
        while True:
            step = next(original(f, branch, t, q, p, h, t_limit, tol, frictional, None))
            yield step
            *_, t, q, p, h, hit = step
            # where `_slip` ends a stretch: on p = 0, on t_limit or off the branch
            if hit or t >= t_limit or not p * branch > 0.0:
                return

    monkeypatch.setattr(integrator, "_slip", slip)


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
        # count the evaluations of every field the integrator steps, which
        # for a table law read the piece's line and not `accel`
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
    first = integrator.step_smooth(State(q=1.0, p=0.5, t=0.0), params, pivot, tol)
    (t1, q1, p1, branch), (dq, dp) = first.fsal
    assert (t1, q1, p1) == (first.state.t, first.state.q, first.state.p)
    # a stage taken at another point is ignored, so the step is unchanged
    wrong = ((t1, q1, p1, branch), (dq + 1.0, dp - 1.0))
    moved = State(q=q1, p=p1 * (1 + 2 ** -52), t=t1)
    assert bits(integrator.step_smooth(moved, params, pivot, tol, fsal=wrong).state.p) == bits(
        integrator.step_smooth(moved, params, pivot, tol).state.p
    )
    # -0.0 == 0.0, but a stage taken at q = 0.0 is not reused at q = -0.0
    zero = State(q=-0.0, p=0.5, t=1.0)
    at_plus_zero = ((1.0, 0.0, 0.5, 1.0), (dq + 1.0, dp - 1.0))
    assert bits(integrator.step_smooth(zero, params, pivot, tol, fsal=at_plus_zero).state.q) == bits(
        integrator.step_smooth(zero, params, pivot, tol).state.q
    )
    # on its own start it is the field value there, so it gives the same step
    same = integrator.step_smooth(first.state, params, pivot, tol, h=first.h_next, fsal=first.fsal)
    fresh = integrator.step_smooth(first.state, params, pivot, tol, h=first.h_next)
    assert bits((same.state.t, same.state.q, same.state.p)) == bits(
        (fresh.state.t, fresh.state.q, fresh.state.p)
    )


def test_nan_step_raises_instead_of_looping():
    with pytest.raises(integrator.StepUnderflow):
        integrator.step_smooth(State(q=math.nan, p=0.5, t=0.0), Params(), ConstantPivot(0.0), Tolerances())

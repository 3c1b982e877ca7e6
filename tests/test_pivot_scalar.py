"""Each pivot law's `accel` against numpy's own formula for it, bit for bit.

`accel` evaluates a float in pure Python.  The table and poly laws replay
numpy's arithmetic step for step (np.interp's clamping and fallbacks,
Polynomial's domain map and Horner loop), so numpy, evaluated on an array,
is their oracle: it shares no code with them.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from drypend.model import ConstantPivot, PolyPivot, SinePivot, TablePivot, interp

PROPERTY = settings(max_examples=400, deadline=None)

reals = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
specials = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e300])


def bits(x):
    x = float(x)
    return "nan" if x != x else struct.pack("<d", x)


def numpys(pivot, ts):
    """numpy's formula for the law, evaluated on the array ts."""
    if isinstance(pivot, ConstantPivot):
        return np.full(len(ts), pivot.a)
    if isinstance(pivot, SinePivot):
        return pivot.amp * np.sin(pivot.omega * ts + pivot.phase)
    if isinstance(pivot, PolyPivot):
        return np.polynomial.Polynomial(pivot.coeffs)(ts)
    return np.interp(ts, pivot.times, pivot.values)


def assert_is_numpys(pivot, t):
    expected = numpys(pivot, np.array([t]))[0]
    assert bits(pivot.accel(float(t))) == bits(expected)
    assert bits(pivot.accel(np.float64(t))) == bits(expected)


@PROPERTY
@given(a=reals, t=st.one_of(reals, specials))
def test_constant(a, t):
    assert_is_numpys(ConstantPivot(a), t)


@PROPERTY
@given(amp=reals, omega=reals, phase=reals, t=st.one_of(reals, specials))
def test_sine(amp, omega, phase, t):
    assume(math.isfinite(omega * t))
    assert_is_numpys(SinePivot(amp, omega, phase), t)


@PROPERTY
@given(coeffs=st.lists(reals, min_size=1, max_size=4), t=st.one_of(reals, specials))
@example(coeffs=[2.5], t=-0.0)
@example(coeffs=[1.0, -3.0, 0.5, 0.25], t=-0.0)
@example(coeffs=[-0.0], t=1.0)
def test_poly(coeffs, t):
    pivot = PolyPivot(coeffs)
    with np.errstate(all="ignore"):
        assert_is_numpys(pivot, t)
        # the scalar path returns a Python float, as the other laws do
        assert type(pivot.accel(float(t))) is float


@pytest.mark.parametrize("coeffs", [[2.5], [1.0, -3.0, 0.5, 0.25]])
def test_poly_degrees_zero_and_three(coeffs):
    pivot = PolyPivot(coeffs)
    for t in (-0.0, 0.0, 0.3, 1.0, 7.5, 999.0):
        assert_is_numpys(pivot, t)


@st.composite
def tables(draw):
    times = sorted(set(draw(st.lists(reals, min_size=2, max_size=10))))
    assume(len(times) >= 2)
    values = draw(st.lists(reals, min_size=len(times), max_size=len(times)))
    try:
        return TablePivot(times, values)
    except ValueError:  # knots too close for their values: the slope overflows
        reject()


def assert_table_agrees(pivot, t):
    assert_is_numpys(pivot, t)
    # the replica itself, which SigmaCurve.from_table shares with the table law
    expected = np.interp(t, pivot.times, pivot.values)
    assert bits(interp(t, pivot.times, pivot.values)) == bits(expected)


@PROPERTY
@given(pivot=tables(), t=st.one_of(reals, specials), knot=st.integers(0, 9))
def test_table(pivot, t, knot):
    assert_table_agrees(pivot, t)
    # on a knot, at both clamped ends and just outside them
    times = list(pivot.times)
    assert_table_agrees(pivot, times[knot % len(times)])
    for end in (times[0], times[-1]):
        assert_table_agrees(pivot, end)
        assert_table_agrees(pivot, math.nextafter(end, -math.inf))
        assert_table_agrees(pivot, math.nextafter(end, math.inf))


def test_table_knots_clamping_and_signed_zero():
    pivot = TablePivot([-1.0, 0.0, 0.5, 2.0], [4.0, -2.0, 1e-300, 3.0])
    for t in (-0.0, 0.0, -1.0, 2.0, -5.0, 9.0, 0.25, 1.999, math.inf, -math.inf):
        assert_is_numpys(pivot, t)
    assert pivot.accel(-5.0) == 4.0 and pivot.accel(9.0) == 3.0
    assert pivot.accel(-0.0) == -2.0
    assert math.isnan(pivot.accel(math.nan))


def test_table_with_infinite_values_takes_numpys_fallbacks():
    # an infinite knot value makes the interpolation NaN one way; numpy then
    # interpolates from the other end, and returns the flat value when the
    # interval is flat
    pivot = TablePivot([0.0, 1.0, 2.0, 3.0], [math.inf, math.inf, 1.0, -math.inf])
    with np.errstate(all="ignore"):
        for t in (0.25, 0.5, 1.5, 2.5, 3.0):
            assert_is_numpys(pivot, t)


# --- smooth pieces ----------------------------------------------------------


@pytest.mark.parametrize(
    "pivot", [ConstantPivot(2.0), SinePivot(3.0, 1.5, 0.2), PolyPivot([1.0, -0.5, 0.05])]
)
def test_smooth_laws_are_one_piece(pivot):
    for t in (-3.0, 0.0, 7.5):
        assert pivot.piece(t) == (math.inf, pivot.accel)


def assert_piece_is_accel(pivot, t):
    """pivot.piece(t) ends on the first knot after t, and its accel has the
    bits of pivot.accel on the closed interval that holds t."""
    t_end, accel = pivot.piece(t)
    later = [k for k in pivot.times if k > t]
    assert t_end == (later[0] if later else math.inf)
    start = max([k for k in pivot.times if k <= t], default=t)
    xs = [start, t, math.nextafter(t, -math.inf)]
    if later:
        xs += [t_end, math.nextafter(t_end, -math.inf)]
        xs += [start + f * (t_end - start) for f in (1e-9, 0.25, 0.5, 0.999)]
    for x in xs:
        if start <= x <= t_end:
            assert bits(accel(x)) == bits(pivot.accel(x)), x


@PROPERTY
@given(pivot=tables(), t=reals, knot=st.integers(0, 9))
# an infinite slope (up to an infinite knot value; between finite values an
# overflowing slope is refused), and one whose line gives NaN
@example(pivot=TablePivot([0.0, 1e-300], [0.0, math.inf]), t=0.0, knot=0)
@example(pivot=TablePivot([0.0, 1e-300], [0.0, math.inf]), t=5e-301, knot=1)
@example(pivot=TablePivot([0.0, 1.0, 2.0, 3.0], [math.inf, math.inf, 1.0, -math.inf]), t=0.5, knot=2)
def test_table_piece_has_the_bits_of_accel(pivot, t, knot):
    times = list(pivot.times)
    # from a drawn time, from a knot, and from both clamped ends
    for start in (t, times[knot % len(times)], times[0], times[-1], times[0] - 1.0):
        assert_piece_is_accel(pivot, start)

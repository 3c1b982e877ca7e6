"""math's sin and cos against numpy's, bit for bit, and the kernels that rely on it.

On Python floats `drypend.model` takes `math.sin`/`math.cos`, on arrays
numpy's, and the stiction kernel and `energy` write one expression for both.
Scalar and array results are then equal only if the two libraries round alike
on the arguments the kernels see: angles q of a few turns, and the phase
`omega * t + phase` of a sine pivot over long horizons.  Nothing in either
library promises that, so this file pins it instead of assuming it.
"""

import math
import struct

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from drypend.model import Params, energy, linspace, stiction_drift_and_bound

from test_stepper import PROPERTY, pivots, reals

# angles q, pivot phases up to omega * t ~ 10 * 1000, and tiny arguments
angles = st.one_of(
    reals(-20.0, 20.0),
    reals(-1e4, 1e4),
    reals(-1e-8, 1e-8),
    st.sampled_from([0.0, -0.0, math.pi / 2, math.pi, -math.pi, 2 * math.pi, 5e-324]),
)


def bits(x):
    x = float(x)
    return "nan" if x != x else struct.pack("<d", x)


@PROPERTY
@given(xs=st.lists(angles, min_size=1, max_size=64))
def test_math_and_numpy_agree_bit_for_bit(xs):
    arr = np.array(xs)
    for name in ("sin", "cos"):
        exact, vectorised = getattr(math, name), getattr(np, name)
        loop = vectorised(arr)  # numpy's array loop, as the checks call it
        for x, y in zip(xs, loop):
            assert bits(exact(x)) == bits(y) == bits(vectorised(x)), (name, x)


@PROPERTY
@given(
    pivot=pivots(),
    q=angles,
    t=st.one_of(reals(0, 100), st.sampled_from([0.0, -0.0])),
    p=reals(-10, 10),
    l=reals(0.2, 3),
    mu=st.sampled_from([0.0, 0.3, 0.8]),
)
def test_kernels_take_the_same_value_on_floats_and_arrays(pivot, q, t, p, l, mu):
    params = Params(l=l, mu=mu)
    with np.errstate(all="ignore"):
        drift, bound = stiction_drift_and_bound(params, pivot, q, t)
        drifts, bounds = stiction_drift_and_bound(params, pivot, np.array([q]), np.array([t]))
        assert type(drift) is float and type(bound) is float
        assert bits(drift) == bits(drifts[0]) and bits(bound) == bits(bounds[0])
        e = energy(params, q, p)
        assert type(e) is float
        assert bits(e) == bits(energy(params, np.array([q]), np.array([p]))[0])


@PROPERTY
@given(
    start=st.one_of(reals(-1e3, 1e3), st.sampled_from([0.0, -0.0, 5e-324])),
    stop=st.one_of(reals(-1e3, 1e3), st.sampled_from([0.0, 5e-324, 1e-320])),
    num=st.one_of(st.integers(2, 1100), st.sampled_from([257, 1001])),
)
def test_linspace_is_numpys_bit_for_bit(start, stop, num):
    # the sup-bound check and the sigma-curve grids sample on it; a step that
    # underflows to zero takes numpy's other formula
    expected = np.linspace(start, stop, num)
    assert [bits(v) for v in linspace(start, stop, num)] == [bits(v) for v in expected]

"""`drypend.model.linspace` against numpy's, bit for bit.

The model runs on Python floats without numpy, and builds the shooting
curves' sample grids with its own `linspace`; they must be numpy's, point for
point.
"""

import struct

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from drypend.model import linspace

from test_stepper import PROPERTY, reals


def bits(x):
    x = float(x)
    return "nan" if x != x else struct.pack("<d", x)


@PROPERTY
@given(
    start=st.one_of(reals(-1e3, 1e3), st.sampled_from([0.0, -0.0, 5e-324])),
    stop=st.one_of(reals(-1e3, 1e3), st.sampled_from([0.0, 5e-324, 1e-320])),
    num=st.one_of(st.integers(2, 1100), st.sampled_from([257, 1001])),
)
def test_linspace_is_numpys_bit_for_bit(start, stop, num):
    # the sigma-curve grids and the disjointness check sample on it; a step
    # that underflows to zero takes numpy's other formula
    expected = np.linspace(start, stop, num)
    assert [bits(v) for v in linspace(start, stop, num)] == [bits(v) for v in expected]

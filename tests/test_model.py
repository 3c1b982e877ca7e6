import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from drypend import model
from drypend.model import (
    ConstantPivot,
    Params,
    PolyPivot,
    SinePivot,
    State,
    TablePivot,
    branch_field,
    limit_fields,
    p_star,
    pivot_from_dict,
)
from drypend.integrator import classify_switch

from test_stepper import PROPERTY, pivots, reals

P = Params(l=1.0, m=1.0, g=9.8, mu=0.5)
ZERO = ConstantPivot(0.0)


def slipping_accel(params, pivot, q, p, t):
    """dp/dt off the surface, on the branch of sign(p)."""
    return branch_field(params, pivot, math.copysign(1.0, p))(t, q, p)[1]


def horner(coeffs, ts):
    """sum_k coeffs[k] t^k at each of the array `ts`, by the Horner loop of
    `PolyPivot.accel`, whose bits it has where ts is finite."""
    acc = np.full_like(ts, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = c + acc * ts
    return acc


def dense_peak(coeffs, a, b):
    """(max |p| on a 20,001-point grid over [a, b], an upper bound of max |p|
    on [a, b]) for p(t) = sum_k coeffs[k] t^k, up to the rounding of p.

    On a cell of width h, |p| exceeds the larger end by at most
    h^2 / 8 sup |p''|.  Where that is not below 1e-12 of the grid's largest
    value, each cell that may hold more is sampled again 1,000 times finer."""
    x = max(abs(a), abs(b))
    curvature = sum(k * (k - 1) * abs(c) * x ** (k - 2) for k, c in enumerate(coeffs) if k >= 2)
    ts = np.linspace(a, b, 20_001)
    ends = np.abs(horner(coeffs, ts))
    top = float(np.max(ends))
    h = float(ts[1] - ts[0])
    excess = h * h / 8 * curvature
    if excess <= 1e-12 * top:
        return top, top + excess
    cells = np.flatnonzero(np.maximum(ends[:-1], ends[1:]) >= top - excess)
    assert len(cells) <= 2_000
    fine = np.concatenate([np.linspace(ts[i], ts[i + 1], 1_001) for i in cells])
    return top, max(top, float(np.max(np.abs(horner(coeffs, fine))))) + (h / 1_000) ** 2 / 8 * curvature


@st.composite
def ill_scaled_polys(draw):
    """(coeffs, t_max): a poly law of degree 1 to 6 whose coefficients span
    up to 23 decades, on a window of 0.1 to 30 s."""
    magnitudes = st.builds(lambda m, e: m * 10.0 ** e, reals(-1, 1), st.integers(-20, 3))
    coeffs = draw(st.lists(magnitudes, min_size=2, max_size=7))
    return coeffs, draw(reals(0.1, 30))


def assert_sup_bound_dominates(pv, t0, t1):
    """sup_bound(t0, t1) >= |a| on a dense grid, up to the rounding of a."""
    values = np.abs([pv.accel(t) for t in np.linspace(t0, t1, 10_001).tolist()])
    bound = pv.sup_bound(t0, t1)
    assert np.max(values) <= bound * (1 + 1e-12) + 1e-12


class TestParams:
    def test_defaults_valid(self):
        Params()

    @pytest.mark.parametrize("bad", [dict(l=0), dict(l=-1), dict(m=0), dict(g=0), dict(mu=-0.1)])
    def test_rejects_nonphysical(self, bad):
        with pytest.raises(ValueError):
            Params(**bad)

    def test_mu_zero_allowed(self):
        assert Params(mu=0.0).mu == 0.0


class TestPivotLaws:
    def test_constant(self):
        pv = ConstantPivot(3.0)
        assert pv.accel(7.7) == 3.0
        assert pv.lipschitz_bound == 0.0
        assert pv.sup_bound(0, 100) == 3.0

    def test_sine_sup_exact_on_short_interval(self):
        pv = SinePivot(amp=2.0, omega=1.0)
        # no peak of |sin| inside [0.1, 0.4]: endpoint max
        assert pv.sup_bound(0.1, 0.4) == pytest.approx(2.0 * math.sin(0.4))
        # peak at pi/2 inside
        assert pv.sup_bound(1.0, 2.0) == 2.0
        assert pv.sup_bound(0.0, 100.0) == 2.0
        assert pv.lipschitz_bound == 2.0

    def test_poly_sup_finds_an_interior_peak(self):
        pv = PolyPivot([0.0, 2.0, -1.0])  # 2t - t^2, peak 1 at t=1
        assert pv.sup_bound(0.0, 2.0) == pytest.approx(1.0)
        assert pv.sup_bound(0.0, 3.0) == pytest.approx(3.0)  # |a(3)| = 3

    def test_table_interpolates_and_clamps(self):
        pv = TablePivot([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert pv.accel(0.5) == pytest.approx(1.0)
        assert pv.accel(-5.0) == 0.0
        assert pv.accel(99.0) == 0.0
        assert pv.lipschitz_bound == pytest.approx(2.0)
        assert pv.sup_bound(0.0, 2.0) == pytest.approx(2.0)
        assert pv.sup_bound(0.0, 0.5) == pytest.approx(1.0)

    def test_table_rejects_an_overflowing_slope(self):
        # 6 over knots 3.3e-308 apart overflows the slope, which made a(0)
        # infinite and the release scan's step zero
        with pytest.raises(ValueError, match="slope overflows"):
            TablePivot([-1.1125369292536007e-308, 2.2250738585072014e-308], [0.0, 6.0])
        with pytest.raises(ValueError, match="slope overflows"):
            TablePivot([0.0, 1.0], [-1e308, 1e308])

    @pytest.mark.parametrize(
        "pv",
        [
            ConstantPivot(2.5),
            SinePivot(1.5, 2.0, 0.3),
            PolyPivot([1.0, 0.2, -0.05]),
            TablePivot([0, 1, 3, 6], [0.5, -2, 1, 0]),
        ],
    )
    def test_sup_bound_dominates_samples(self, pv):
        assert_sup_bound_dominates(pv, 0.0, 20.0)

    @PROPERTY
    @given(pv=pivots(), t0=reals(0, 150), span=reals(0, 50))
    # a flat peak: a' = -4 (t - 5)^3, whose triple root numpy finds only as
    # one real root near 5 and a complex pair; the bound is still a(5) = 1000
    @example(pv=PolyPivot([375.0, 500.0, -150.0, 20.0, -1.0], t_max=10.0), t0=0.0, span=10.0)
    # a subnormal leading coefficient once overflowed numpy's companion matrix
    @example(pv=PolyPivot([0.0, 1.0, 1.0, 1e-320]), t0=0.0, span=10.0)
    def test_sup_bound_dominates_a_dense_grid(self, pv, t0, span):
        assert_sup_bound_dominates(pv, t0, t0 + span)

    @pytest.mark.parametrize(
        "coeffs, peak, slope",
        [
            ([0.0, -6.0, 2.0, 1.3935687331406293e-200], 4.5, 6.0),  # |a(1.5)|, |a'(0)|
            ([2.75, 3.0, -1.0, 1e-20], 5.0, 3.0),  # a(1.5), |a'(0)| and |a'(3)|
        ],
    )
    def test_poly_bounds_see_past_a_negligible_leading_term(self, coeffs, peak, slope):
        # the companion matrix of the untrimmed derivative once gave no root
        # inside the window, and the bounds read only the ends: 0.0 and 2.75
        pv = PolyPivot(coeffs, t_max=3.0)
        assert pv.accel_bound >= peak
        assert pv.lipschitz_bound >= slope
        assert pv.accel_bound == pytest.approx(peak) and pv.lipschitz_bound == pytest.approx(slope)
        assert_sup_bound_dominates(pv, 0.0, 3.0)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(law=ill_scaled_polys(), start=reals(0, 1), width=reals(0, 1))
    @example(law=([0.0, -6.0, 2.0, 1.3935687331406293e-200], 3.0), start=0.0, width=1.0)
    @example(law=([2.75, 3.0, -1.0, 1e-20], 3.0), start=0.0, width=1.0)
    # a flat peak: a(t) = 1000 - (t - 5)^4
    @example(law=([375.0, 500.0, -150.0, 20.0, -1.0], 10.0), start=0.0, width=1.0)
    def test_poly_bounds_lie_within_their_slack_above_a_dense_grid(self, law, start, width):
        coeffs, t_max = law
        pv = PolyPivot(coeffs, t_max=t_max)
        t0 = start * t_max
        t1 = t0 + width * (t_max - t0)
        slopes = [k * c for k, c in enumerate(coeffs)][1:]
        for bound, terms, a, b in [
            (pv.sup_bound(t0, t1), coeffs, t0, t1),
            (pv.accel_bound, coeffs, 0.0, t_max),
            (pv.lipschitz_bound, slopes, 0.0, t_max),
        ]:
            on_grid, peak = dense_peak(terms, a, b)
            # the bound is its pieces' largest value, with the relative slack,
            # plus a rounding slack for the coefficients and for the values
            rounding = model._bernstein(terms, a, b)[1]
            assert on_grid <= bound <= peak * (1 + model._BOUND_SLACK) + 5 * rounding

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        pv=pivots(),
        levels=st.lists(reals(-30, 30), min_size=1, max_size=3).map(tuple),
        t1=reals(0.5, 100),
    )
    @example(pv=PolyPivot([0.0, -6.0, 2.0, 1.3935687331406293e-200], t_max=3.0), levels=(-4.5, -2.0, 0.0), t1=3.0)
    @example(pv=PolyPivot([2.75, 3.0, -1.0, 1e-20], t_max=3.0), levels=(5.0, 2.75, 4.0), t1=3.0)
    @example(pv=PolyPivot([1e308, 1e308]), levels=(1e308, 4.9, -4.9), t1=2.0)
    def test_level_times_meet_every_sign_change_on_a_dense_grid(self, pv, levels, t1):
        if isinstance(pv, PolyPivot):
            t1 = min(t1, pv.t_max)
        # the times the release search steps through from t = 0, where its
        # first interval starts
        times, t = [0.0], 0.0
        while t < t1:
            t = min(max(pv.next_level_time(levels, t, t1), math.nextafter(t, math.inf)), t1)
            times.append(t)
        grid = np.linspace(0.0, t1, 5_001)
        values = np.array([pv.accel(t) for t in grid.tolist()])
        for level in levels:
            above = values > level
            below = values < level
            for i in np.flatnonzero((above[:-1] & below[1:]) | (below[:-1] & above[1:])).tolist():
                assert any(grid[i] <= time <= grid[i + 1] for time in times), (level, grid[i])

    def test_a_poly_law_past_the_float_range_has_infinite_bounds(self):
        # a(t) = 1e308 (1 + t) leaves the float range at t = 0.8; halving the
        # window where a(t) is not finite once never ended
        pv = PolyPivot([1e308, 1e308])
        assert pv.accel_bound == math.inf
        # terms past _MAGNITUDE_CAP give inf too, never a bound below max |a'| = 1e308
        # or max |a| = 1.5e308 on [0, 0.5]
        assert pv.lipschitz_bound >= 1e308 and pv.sup_bound(0.0, 0.5) >= 1.5e308
        assert pv.next_level_time((4.9, -4.9), 0.0, 2.0) == 2.0

    def test_round_trip_through_dict(self):
        for pv in (ConstantPivot(1), SinePivot(2, 3, 0.1), PolyPivot([1, 2]), TablePivot([0, 1], [1, 2])):
            clone = pivot_from_dict(pv.to_dict())
            assert clone.to_dict() == pv.to_dict()


class TestAccelSlipping:
    def test_friction_dominates_at_apex(self):
        # at q = pi/2 with tiny p > 0 the value tends to -mu g / l
        a = slipping_accel(P, ZERO, math.pi / 2, 1e-3, 0.0)
        assert a == pytest.approx(-4.9, abs=1e-5)

    def test_frictionless_is_pure_gravity(self):
        a = slipping_accel(Params(mu=0.0), ZERO, 0.0, 1.0, 0.0)
        assert a == pytest.approx(-9.8)

    def test_regression_pin_negative_branch(self):
        # hand evaluation of the closed form, sign(p) = -1 (mpmath, 30 digits)
        a = slipping_accel(P, ConstantPivot(2.0), math.pi / 4, -1.0, 0.0)
        assert a == pytest.approx(-1.8435028842544405, rel=1e-14)


class TestLimitFields:
    def test_apex_symmetric_interval(self):
        f_plus, f_minus = limit_fields(P, ZERO, math.pi / 2, 0.0)
        assert f_plus == pytest.approx(-4.9)
        assert f_minus == pytest.approx(4.9)

    def test_no_jump_without_friction(self):
        f_plus, f_minus = limit_fields(Params(mu=0.0), SinePivot(2, 1), 0.7, 0.3)
        assert f_plus == f_minus

    def test_crossing_region_pin(self):
        f_plus, f_minus = limit_fields(P, ZERO, math.pi / 4, 0.0)
        assert f_plus == pytest.approx(-10.394469683442249, rel=1e-14)
        assert f_minus == pytest.approx(-3.4648232278140831, rel=1e-14)
        assert f_minus < 0  # crossing, not sticking

    def test_ordering_and_gap_on_grid(self):
        qs = np.linspace(-7.0, 7.0, 541)
        ts = np.linspace(0.0, 12.0, 37)
        for pv in (ZERO, ConstantPivot(4.0), SinePivot(2.5, 1.7, 0.2)):
            for t in ts.tolist():
                limits = [limit_fields(P, pv, q, t) for q in qs.tolist()]
                gap = np.array([f_minus - f_plus for f_plus, f_minus in limits])
                assert np.all(gap >= 0)
                closed = (2 * P.mu / P.l) * np.abs(pv.accel(t) * np.cos(qs) + P.g * np.sin(qs))
                assert np.max(np.abs(gap - closed)) <= 1e-12 * max(1.0, float(np.max(closed)))

    def test_no_repulsive_switching(self):
        for q in np.linspace(-7.0, 7.0, 1001).tolist():
            f_plus, f_minus = limit_fields(P, SinePivot(3, 2), q, 1.3)
            assert not (f_plus > 0 and f_minus < 0)


class TestStiction:
    def test_holds_at_apex(self):
        assert classify_switch(P, ZERO, math.pi / 2, 0.0) == 0

    def test_fails_far_from_apex(self):
        assert classify_switch(P, ZERO, 0.3, 0.0) != 0

    def test_analytic_interval_for_zero_forcing(self):
        # |cot q| <= mu on (0, pi): [arctan(1/mu), pi - arctan(1/mu)]
        lo = math.atan(1 / P.mu)
        hi = math.pi - lo
        eps = 1e-9
        assert classify_switch(P, ZERO, lo + eps, 0.0) == 0
        assert classify_switch(P, ZERO, hi - eps, 0.0) == 0
        assert classify_switch(P, ZERO, lo - eps, 0.0) != 0
        assert classify_switch(P, ZERO, hi + eps, 0.0) != 0

    def test_frictionless_never_sticks_off_equilibria(self):
        p0 = Params(mu=0.0)
        for q in (0.1, 1.0, 2.0, 3.0):
            assert classify_switch(p0, ZERO, q, 0.0) != 0

    def test_equivalent_to_zero_in_limit_interval(self):
        for pv in (ZERO, ConstantPivot(3.0), SinePivot(1.5, 0.7)):
            for q in np.linspace(-7.0, 7.0, 2001).tolist():
                f_plus, f_minus = limit_fields(P, pv, q, 2.1)
                assert (classify_switch(P, pv, q, 2.1) == 0) == (f_plus <= 0.0 <= f_minus)


class TestPStar:
    def test_zero_forcing_pin(self):
        assert p_star(P, ZERO, 0.0, 10.0) == pytest.approx(5.4221766846903838, rel=1e-15)

    def test_forced_pin(self):
        params = Params(l=2.0, m=1.0, g=9.8, mu=1.0)
        assert p_star(params, ConstantPivot(9.8), 0.0, 5.0) == pytest.approx(
            4.4271887242357311, rel=1e-15
        )

    def test_large_mu_limit(self):
        big = p_star(Params(mu=1e12), ZERO, 0.0, 1.0)
        assert big == pytest.approx(math.sqrt(9.8), rel=1e-9)

    def test_rejects_frictionless(self):
        with pytest.raises(ValueError):
            p_star(Params(mu=0.0), ZERO, 0.0, 1.0)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            p_star(P, ZERO, 1.0, 1.0)


class TestState:
    def test_stuck_requires_zero_velocity(self):
        with pytest.raises(ValueError):
            State(q=1.0, p=0.1, t=0.0, mode="stuck")

    def test_angle_not_wrapped(self):
        s = State(q=12.7, p=0.0, t=0.0)
        assert s.q == 12.7

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            State(q=1.0, p=0.0, t=0.0, mode="sliding")

    def test_immutable_value_with_keyword_repr(self):
        s = State(q=1.0, p=0.0, t=2.0, mode="stuck")
        assert repr(s) == "State(q=1.0, p=0.0, t=2.0, mode='stuck')"
        assert s == State(1.0, 0.0, 2.0, "stuck") and s.mode == "stuck"
        assert State(q=1.0, p=0.5, t=0.0).mode == "slip"
        with pytest.raises(AttributeError):
            s.p = 1.0


class TestEnergy:
    def test_conserved_along_frictionless_field(self):
        # dE/dt = l^2 p pdot + g l p cos q vanishes when mu = 0, a = 0
        p0 = Params(mu=0.0)
        rng = np.random.default_rng(7)
        for _ in range(200):
            q = float(rng.uniform(-3, 3))
            p = float(rng.uniform(-3, 3))
            if p == 0.0:
                continue
            pdot = slipping_accel(p0, ZERO, q, p, 0.0)
            dE = p0.l ** 2 * p * pdot + p0.g * p0.l * p * math.cos(q)
            assert abs(dE) < 1e-11

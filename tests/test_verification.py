import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drypend import verification
from drypend.model import ConstantPivot, Params, SinePivot, State, branch_field, limit_fields
from drypend.integrator import Tolerances
from drypend.verification import (
    P_MAX,
    T_MAX,
    SampleGrid,
    check_continuous_dependence,
    check_jump_inequality,
    check_one_sided_lipschitz,
    check_upper_semicontinuity,
    smooth_lipschitz_bound,
    summary_table,
)

P = Params(mu=0.5)
ZERO = ConstantPivot(0.0)
GRID = replace(SampleGrid.for_scenario("test-grid", T_MAX), pair_count=8192)


def halton_by_point(n, base, start):
    """The van der Corput points one at a time, each to its last digit."""
    out = []
    for k in range(n):
        i = start + k + 1
        f = 1.0
        r = 0.0
        while i > 0:
            f /= base
            r += f * (i % base)
            i //= base
        out.append(r)
    return out


class TestSampleGrid:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 300),
        base=st.sampled_from([2, 3, 5, 7, 11]),
        start=st.one_of(st.integers(0, 100_000), st.just(0)),
    )
    def test_halton_is_the_point_by_point_sequence(self, n, base, start):
        # built one digit position at a time over all the points at once
        assert verification._halton(n, base, start).tolist() == halton_by_point(n, base, start)

    def test_deterministic_for_same_fingerprint(self):
        a = SampleGrid.for_scenario("abc", T_MAX)
        b = SampleGrid.for_scenario("abc", T_MAX)
        assert np.array_equal(a.q_points, b.q_points)
        assert np.array_equal(a.t_points, b.t_points)

    def test_different_fingerprints_differ(self):
        a = SampleGrid.for_scenario("abc", T_MAX)
        b = SampleGrid.for_scenario("xyz", T_MAX)
        assert not np.array_equal(a.q_points, b.q_points)

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError):
            SampleGrid(
                q_points=np.array([]), p_points=np.array([1.0]), t_points=np.array([0.0]),
                pair_count=10,
            )


class TestJumpInequality:
    def test_passes_with_friction(self):
        r = check_jump_inequality(P, ZERO, GRID)
        assert r.passed and r.margin >= 0.0
        assert r.details["max_relative_disagreement"] <= 1e-12

    def test_zero_margin_without_friction(self):
        r = check_jump_inequality(Params(mu=0.0), SinePivot(2, 1), GRID)
        assert r.passed
        assert r.margin == 0.0

    def test_margin_vanishes_where_bound_does(self):
        # 5 cos q + 9.8 sin q = 0 at q = pi - atan(5/9.8): gap exactly zero
        pv = ConstantPivot(5.0)
        q_zero = math.pi - math.atan(5.0 / 9.8)
        grid = SampleGrid(
            q_points=np.array([q_zero, 1.0, 2.0]),
            p_points=np.array([1.0]),
            t_points=np.array([0.0, 1.0]),
            pair_count=16,
        )
        r = check_jump_inequality(P, pv, grid)
        assert r.passed
        assert abs(r.margin) <= 1e-14
        assert r.worst_case["q"] == pytest.approx(q_zero)

    def test_worst_case_reproducible(self):
        r = check_jump_inequality(P, SinePivot(3, 2), GRID)
        q, t = r.worst_case["q"], r.worst_case["t"]
        f_plus, f_minus = limit_fields(P, SinePivot(3, 2), q, t)
        assert float(f_minus - f_plus) == pytest.approx(r.margin, abs=1e-15)


    def test_the_first_nan_is_the_worst_case(self, monkeypatch):
        grid = SampleGrid(
            q_points=np.array([0.5, 1.0, 2.0]), p_points=np.array([1.0]),
            t_points=np.array([0.0, 1.0]), pair_count=16,
        )
        nan_at = {(1.0, 1.0), (2.0, 0.0)}

        def limits(params, pivot, q, t):
            return (math.nan, math.nan) if (q, t) in nan_at else limit_fields(params, pivot, q, t)

        monkeypatch.setattr(verification, "limit_fields", limits)
        r = check_jump_inequality(P, ZERO, grid)
        assert not r.passed
        assert math.isnan(r.margin) and math.isnan(r.details["max_relative_disagreement"])
        assert r.worst_case == {"q": 1.0, "t": 1.0}  # row-major: q outer, t inner


class TestOneSidedLipschitz:
    def test_a_nan_ratio_is_a_violation(self, monkeypatch):
        def nan_field(params, pivot, branch):
            return lambda t, q, p: (p, math.nan)

        monkeypatch.setattr(verification, "branch_field", nan_field)
        r = check_one_sided_lipschitz(P, ZERO, GRID, 1e3, fingerprint="test-grid")
        assert not r.passed
        assert r.details["violations"] == r.details["pairs"] == GRID.pair_count
        assert math.isnan(r.margin) and math.isnan(r.estimated_constant)

    def test_analytic_constant_suffices(self):
        l_est = smooth_lipschitz_bound(P, ZERO, p_max=P_MAX, t0=0.0, t1=T_MAX)
        r = check_one_sided_lipschitz(P, ZERO, GRID, l_est, fingerprint="test-grid")
        assert r.passed
        assert r.details["violations"] == 0
        assert r.estimated_constant <= l_est

    def test_forced_system_passes_too(self):
        pv = SinePivot(2.5, 1.7)
        l_est = smooth_lipschitz_bound(P, pv, p_max=P_MAX, t0=0.0, t1=T_MAX)
        r = check_one_sided_lipschitz(P, pv, GRID, l_est, fingerprint="forced")
        assert r.passed

    def test_adversarial_constant_fails_with_witness(self):
        r = check_one_sided_lipschitz(P, ZERO, GRID, 1e-9, fingerprint="test-grid")
        assert not r.passed
        assert r.details["violations"] > 0
        # recorded worst pair reproduces its ratio
        wc = r.worst_case
        _, f1 = branch_field(P, ZERO, math.copysign(1.0, wc["p1"]))(wc["t"], wc["q1"], wc["p1"])
        _, f2 = branch_field(P, ZERO, math.copysign(1.0, wc["p2"]))(wc["t"], wc["q2"], wc["p2"])
        dq, dp = wc["q1"] - wc["q2"], wc["p1"] - wc["p2"]
        dot = dq * dp + dp * (f1 - f2)
        ratio = dot / (dq * dq + dp * dp)
        assert ratio == pytest.approx(r.estimated_constant, rel=1e-12)

    def test_rejects_nonpositive_constant(self):
        with pytest.raises(ValueError):
            check_one_sided_lipschitz(P, ZERO, GRID, 0.0, fingerprint="test-grid")


class TestContinuousDependence:
    def test_inverted_equilibrium_growth_matches_linearization(self):
        # frictionless apex: perturbation growth over 1 s is bounded by the
        # saddle exponent sqrt(g/l); the worst axis direction measures ~37.5
        p0 = Params(mu=0.0)
        tol = Tolerances(rel_tol=1e-12, abs_tol=1e-14, event_tol=1e-12, stick_band=1e-7)
        r = check_continuous_dependence(
            p0, ZERO, State(q=math.pi / 2, p=0.0, t=0.0), 1.0,
            deltas=[1e-6, 1e-8, 1e-10], tol=tol,
        )
        assert r.passed
        growth = math.exp(math.sqrt(p0.g / p0.l))
        for ratio in r.details["growth_ratios"]:
            assert growth / 2 <= ratio <= growth * 2

    def test_restick_contracts(self):
        # perturbations inside the stiction basin re-stick: eps(delta) ~ delta
        r = check_continuous_dependence(
            P, ZERO, State(q=math.pi / 2, p=0.0, t=0.0), 5.0,
            deltas=[1e-4, 1e-6], tol=Tolerances(),
        )
        assert r.passed
        assert max(r.details["growth_ratios"]) < 5.0

    def test_rejects_nondecreasing_deltas(self):
        with pytest.raises(ValueError):
            check_continuous_dependence(P, ZERO, State(q=1.0, p=0.0, t=0.0), 1.0, [1e-6, 1e-6])


class TestUpperSemicontinuity:
    def test_linear_rate_at_apex(self):
        seq = [2.0 ** -k for k in range(1, 30)]
        r = check_upper_semicontinuity(P, ZERO, math.pi / 2, 0.0, seq)
        assert r.passed
        # inside the interval the excess is exactly |p_k|
        assert r.estimated_constant == pytest.approx(1.0, rel=1e-6)
        assert r.details["betas"][-1] == pytest.approx(seq[-1], rel=1e-6)

    def test_crossing_region_also_linear(self):
        seq = [2.0 ** -k for k in range(1, 25)]
        r = check_upper_semicontinuity(P, ZERO, math.pi / 4, 0.0, seq)
        assert r.passed

    def test_frictionless_by_continuity(self):
        seq = [2.0 ** -k for k in range(1, 25)]
        r = check_upper_semicontinuity(Params(mu=0.0), SinePivot(1, 1), 0.8, 0.5, seq)
        assert r.passed

    def test_rejects_non_decreasing_sequence(self):
        with pytest.raises(ValueError):
            check_upper_semicontinuity(P, ZERO, 1.0, 0.0, [0.5, 0.5])


class TestReporting:
    def test_summary_table_mentions_every_check(self):
        reports = [
            check_jump_inequality(P, ZERO, GRID),
            check_upper_semicontinuity(P, ZERO, 1.0, 0.0, [0.5, 0.25]),
        ]
        table = summary_table(reports)
        assert "jump_inequality" in table
        assert "upper_semicontinuity" in table

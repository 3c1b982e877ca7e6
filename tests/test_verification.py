import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from drypend import flowmap, integrator, model, verification
from drypend.model import (
    ConstantPivot,
    Params,
    SinePivot,
    State,
    TablePivot,
    branch_field,
    branch_jacobian,
    limit_fields,
    linspace,
)
from drypend.flowmap import Unresolved, flow_map
from drypend.integrator import CROSSING, STICK_ENTRY, STICK_RELEASE, Tolerances, integrate
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
        base=st.integers(2, 11),
        start=st.one_of(st.integers(0, 100_000), st.just(0)),
    )
    def test_halton_is_the_point_by_point_sequence(self, n, base, start):
        # built one digit position at a time over all the points at once,
        # one np.divmod per position
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
            # the limits of an array of angles at one time, NaN at nan_at
            f_plus, f_minus = limit_fields(params, pivot, q, t)
            nan = np.array([(x, t) in nan_at for x in q.tolist()])
            return np.where(nan, math.nan, f_plus), np.where(nan, math.nan, f_minus)

        monkeypatch.setattr(verification, "limit_fields", limits)
        r = check_jump_inequality(P, ZERO, grid)
        assert not r.passed
        assert math.isnan(r.margin) and math.isnan(r.details["max_relative_disagreement"])
        assert r.worst_case == {"q": 1.0, "t": 1.0}  # row-major: q outer, t inner


class TestOneSidedLipschitz:
    def test_a_nan_ratio_is_a_violation(self, monkeypatch):
        def nan_field(params, pivot, branch, accel=None):
            return lambda t, q, p: (p, np.full_like(q, math.nan))

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

    def test_reversed_friction_fails(self, monkeypatch):
        # friction that pushes away from p = 0 makes the surface repelling:
        # from p = 0 at the apex, runs that start on either side part by O(1)
        # and no saltation matrix maps one side onto the other, so the check
        # has no flow map to predict with
        def stiction(params, pivot, q, t):
            drift, bound = stiction_drift_and_bound(params, pivot, q, t)
            return drift, -bound

        def reversed_branch(make):
            return lambda params, pivot, branch, *rest: make(params, pivot, -branch, *rest)

        def reversed_constants(params, branch):
            return slip_constants(params, -branch)

        stiction_drift_and_bound = model.stiction_drift_and_bound
        slip_constants = model.slip_constants
        monkeypatch.setattr(model, "stiction_drift_and_bound", stiction)
        monkeypatch.setattr(integrator, "stiction_drift_and_bound", stiction)
        # the slipping field's constants, of `branch_field` and of the
        # stepper's inline stages
        monkeypatch.setattr(model, "slip_constants", reversed_constants)
        monkeypatch.setattr(integrator, "slip_constants", reversed_constants)
        monkeypatch.setattr(flowmap, "branch_jacobian", reversed_branch(branch_jacobian))
        # (within 1 s: the reversed term grows like mu p^2 and p soon overflows)
        r = check_continuous_dependence(P, ZERO, State(q=math.pi / 2, p=0.0, t=0.0), 0.5, [1e-6, 1e-8])
        assert not r.passed
        assert r.details["unresolved_deltas"] == [1e-6, 1e-8]
        assert "crossing" in r.details["unresolved"]

    def test_a_delta_below_the_noise_floor_is_unresolved(self):
        # perfbench/scenarios/dependence_fault.json at its default tolerances:
        # with delta 1e-12 added, eps / delta once read 186 against 6.6 and
        # the check passed on the solver's noise
        params = Params(mu=0.2)
        pivot = SinePivot(7.3595623218620245, 2.2508393202379082)
        start = State(q=2.1865862067472235, p=-1.7490822865394722, t=0.0)
        r = check_continuous_dependence(params, pivot, start, 5.0, [1e-6, 1e-8, 1e-12])
        assert r.passed
        assert 1e-12 in r.details["unresolved_deltas"]
        assert r.details["deltas"] and 1e-12 not in r.details["deltas"]
        assert r.details["integrations"] == 2 + 2 * len(r.details["deltas"])
        assert r.details["eta"] > 1e-12 * max(r.details["growth_ratios"])


def _closed_form_apex(t, lam):
    """The flow map of the frictionless pendulum linearised at the apex."""
    c, s = math.cosh(lam * t), math.sinh(lam * t)
    return np.array([[c, s / lam], [lam * s, c]])


# tolerances at which a run's error is far below the central differences' step
TIGHT = Tolerances(rel_tol=1e-11, abs_tol=1e-13, event_tol=1e-12, stick_band=1e-10)


class TestFlowMap:
    def test_apex_flow_map_is_the_closed_form(self):
        # C5's band [11.4, 45.8] around e^sqrt(g/l) is this map's growth
        p0 = Params(mu=0.0)
        tol = Tolerances(rel_tol=1e-12, abs_tol=1e-14, event_tol=1e-12, stick_band=1e-7)
        grid = linspace(0.0, 1.0, 257)
        traj = integrate(State(q=math.pi / 2, p=0.0, t=0.0), p0, ZERO, 1.0, tol, record_at=grid)
        phis, psis = flow_map(p0, ZERO, traj)
        lam = math.sqrt(p0.g / p0.l)
        for t, phi, psi in zip(grid, phis, psis):
            exact = _closed_form_apex(t, lam)
            assert np.allclose(np.reshape(phi, (2, 2)), exact, rtol=1e-9, atol=1e-12)
            assert np.allclose(np.reshape(psi, (2, 2)), exact, rtol=1e-5)
        sigma = np.linalg.norm(np.reshape(phis[-1], (2, 2)), 2)
        assert sigma == pytest.approx(39.4, abs=0.05)
        assert math.exp(lam) / 2 <= sigma <= math.exp(lam) * 2

    # a sine law that sticks, releases and sticks again, and one that also crosses
    @example(mu=0.5, pivot=SinePivot(6.0, 1.0, 0.0), q0=1.2, p0=0.8, horizon=5.0)
    @example(mu=0.2, pivot=SinePivot(7.36, 2.25, 0.0), q0=2.19, p0=-1.75, horizon=5.0)
    # a table law whose run ends steps where N changes sign: there J must
    # take the side of N that the interval's middle lies on (3.8e-3 off if not)
    @example(
        mu=0.5454392376536706,
        pivot=TablePivot(
            [0.9187994237965507 * k for k in range(5)],
            [-0.5272141297439941, -7.715478759898234, 6.939250344486634, -4.019587203249362,
             7.219765653520586],
        ),
        q0=2.3775553514869294,
        p0=1.873562677926424,
        horizon=3.38,
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        mu=st.floats(0.05, 0.8),
        # a table law's knots fall inside the recorded intervals
        pivot=st.builds(SinePivot, st.floats(0.5, 12.0), st.floats(0.3, 3.0), st.floats(0.0, 6.0))
        | st.builds(
            lambda step, values: TablePivot([step * k for k in range(len(values))], values),
            st.floats(0.1, 1.0),
            st.lists(st.floats(-12.0, 12.0), min_size=2, max_size=40),
        ),
        q0=st.floats(0.2, 2.9),
        p0=st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
        horizon=st.floats(1.0, 5.0),
    )
    def test_flow_map_matches_central_differences(self, mu, pivot, q0, p0, horizon):
        params = Params(mu=mu)
        grid = linspace(0.0, horizon, 257)
        base = integrate(State(q=q0, p=p0, t=0.0), params, pivot, horizon, TIGHT, record_at=grid)
        try:
            phi = np.array(flow_map(params, pivot, base)[0]).reshape(-1, 2, 2)
        except Unresolved:
            assume(False)
        delta = 1e-6
        columns = []
        for dq, dp in ((delta, 0.0), (0.0, delta)):
            ends = []
            for sign in (1.0, -1.0):
                ic = State(q=q0 + sign * dq, p=p0 + sign * dp, t=0.0)
                run = integrate(ic, params, pivot, horizon, TIGHT, record_at=grid)
                ends.append(np.array([(s.q, s.p) for s in run.recorded]))
            columns.append((ends[0] - ends[1]) / (2.0 * delta))
        central = np.stack(columns, axis=2)
        # a grid time between an event of the base run and the same event of
        # a perturbed run sees the event's jump, not the flow map
        away = np.array([all(abs(t - e.t) > 1e-3 for e in base.events) for t in grid])
        scale = max(1.0, float(np.max(np.abs(central))))
        assert np.max(np.abs(phi - central)[away]) <= 2e-3 * scale

    def test_the_examples_meet_every_jump(self):
        # the explicit examples above stick and release, and cross
        run = integrate(State(q=1.2, p=0.8, t=0.0), P, SinePivot(6.0, 1.0, 0.0), 5.0, TIGHT)
        assert {STICK_ENTRY, STICK_RELEASE} <= {e.kind for e in run.events}
        pivot = SinePivot(7.36, 2.25, 0.0)
        run = integrate(State(q=2.19, p=-1.75, t=0.0), Params(mu=0.2), pivot, 5.0, TIGHT)
        assert {CROSSING, STICK_ENTRY, STICK_RELEASE} <= {e.kind for e in run.events}

    def test_a_release_at_a_turning_point_of_the_law_is_unresolved(self):
        # where da/dt = 0 the stiction margin does not change in time: the
        # release time's derivative -(dm/dq)/(dm/dt) does not exist
        with pytest.raises(Unresolved, match="tangential release"):
            flowmap._release_rate(P, SinePivot(3.0, 1.0), 1.0, math.pi / 2)
        assert math.isfinite(flowmap._release_rate(P, SinePivot(3.0, 1.0), 1.0, 1.0))

    def test_a_start_on_p_0_that_crosses_scales_the_far_probe(self, monkeypatch):
        # from the apex with a(0) > mu g the run crosses onto p > 0 at once;
        # the probe that starts with p < 0 crosses there too, and only the
        # saltation of that crossing predicts its epsilon
        params, pivot = Params(mu=0.2), ConstantPivot(5.0)
        start = State(q=math.pi / 2, p=0.0, t=0.0)
        tol = Tolerances().scaled(100)
        r = check_continuous_dependence(params, pivot, start, 3.0, [1e-6, 1e-8], tol)
        assert r.passed and r.details["deltas"] == [1e-6, 1e-8]
        monkeypatch.setattr(verification, "start_jump", lambda *args: (0, 1.0))
        assert not check_continuous_dependence(params, pivot, start, 3.0, [1e-6, 1e-8], tol).passed


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
        for seq in ([0.5, 0.5], []):
            with pytest.raises(ValueError):
                check_upper_semicontinuity(P, ZERO, 1.0, 0.0, seq)

    def test_an_offset_field_fails(self, monkeypatch):
        # a field 50 above its limits once passed with a slope of 2.4e7: a
        # beta that does not shrink with p broke no rule
        def offset(params, pivot, branch, accel=None):
            f = branch_field(params, pivot, branch, accel)
            return lambda t, q, p: (p, f(t, q, p)[1] + 50.0)

        seq = [2.0 ** -k for k in range(1, 20)]
        assert check_upper_semicontinuity(P, SinePivot(2, 1), math.pi / 4, 0.0, seq).passed
        monkeypatch.setattr(verification, "branch_field", offset)
        r = check_upper_semicontinuity(P, SinePivot(2, 1), math.pi / 4, 0.0, seq)
        assert not r.passed
        assert r.estimated_constant > 1e6
        assert r.worst_case["beta"] == pytest.approx(50.0, rel=1e-6)

    def test_both_signs_are_sampled(self):
        seq = [2.0 ** -k for k in range(1, 6)]
        r = check_upper_semicontinuity(P, SinePivot(3, 1), 0.3, 0.7, seq)
        assert r.passed
        assert len(r.details["betas"]) == len(r.details["betas_negative"]) == len(seq)
        for p, beta, beta_neg in zip(seq, r.details["betas"], r.details["betas_negative"]):
            bound = p * math.sqrt(1.0 + (P.mu * p) ** 2)
            assert p <= beta <= bound + r.details["slack"]
            assert p <= beta_neg <= bound + r.details["slack"]


class TestReporting:
    def test_summary_table_mentions_every_check(self):
        reports = [
            check_jump_inequality(P, ZERO, GRID),
            check_upper_semicontinuity(P, ZERO, 1.0, 0.0, [0.5, 0.25]),
        ]
        table = summary_table(reports)
        assert "jump_inequality" in table
        assert "upper_semicontinuity" in table

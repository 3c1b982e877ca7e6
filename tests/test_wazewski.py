import math

import pytest

from drypend import wazewski
from drypend.model import ConstantPivot, Params, SinePivot
from drypend.integrator import IntegrationError, Tolerances, integrate
from drypend.wazewski import (
    EXIT_HIGH,
    EXIT_LOW,
    NON_FALLING,
    CurveValidationError,
    PreconditionFailed,
    SigmaCurve,
    bisect_curve,
    classify_exit,
    family_sweep,
    recheck_witness,
)

P = Params(mu=0.5)
ZERO = ConstantPivot(0.0)
TOL = Tolerances()
STICTION_LO = math.atan(2.0)
STICTION_HI = math.pi - math.atan(2.0)


class TestSigmaCurve:
    def test_default_line(self):
        c = SigmaCurve.line()
        assert c(0.0) == pytest.approx(-math.pi / 2)
        assert c(math.pi) == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize("sigma", [lambda q: q, lambda q: q - math.pi, lambda q: 0.0 * q])
    def test_rejects_bad_endpoint_signs(self, sigma):
        with pytest.raises(CurveValidationError):
            SigmaCurve(sigma=sigma)

    def test_table_curve(self):
        c = SigmaCurve.from_table([0.0, math.pi], [-1.0, 1.0])
        assert c(math.pi / 2) == pytest.approx(0.0)

    def test_table_curve_must_cover_domain(self):
        with pytest.raises(CurveValidationError):
            SigmaCurve.from_table([0.5, math.pi], [-1.0, 1.0])


class TestClassifyExit:
    def test_immediate_stick_is_non_falling(self):
        r = classify_exit(math.pi / 2, SigmaCurve.line(), P, ZERO, 50.0, TOL)
        assert r.outcome == NON_FALLING
        assert r.stuck_q == pytest.approx(math.pi / 2)
        assert r.min_boundary_distance == pytest.approx(math.pi / 2)

    def test_low_endpoint_exits_low(self):
        r = classify_exit(0.0, SigmaCurve.line(), P, ZERO, 50.0, TOL)
        assert r.outcome == EXIT_LOW
        assert r.exit_event is not None and r.exit_event.side == "low"

    def test_high_endpoint_exits_high(self):
        r = classify_exit(math.pi, SigmaCurve.line(), P, ZERO, 50.0, TOL)
        assert r.outcome == EXIT_HIGH

    def test_drift_region_exits_low(self):
        r = classify_exit(0.3, SigmaCurve.from_table([0.0, math.pi], [-0.01, 0.01]), P, ZERO, 20.0, TOL)
        assert r.outcome == EXIT_LOW

    def test_strict_mode_boundary_touch_is_exit(self):
        r = classify_exit(0.0, SigmaCurve.line(), P, ZERO, 10.0, TOL, strict=True)
        assert r.outcome == EXIT_LOW

    def test_rejects_q0_outside_domain(self):
        with pytest.raises(ValueError):
            classify_exit(-0.1, SigmaCurve.line(), P, ZERO, 10.0, TOL)


class TestCorner:
    """Exits at a boundary angle with p inside the stick band, which the
    stick/cross rule at that angle decides."""

    # sigma(0) = -1e-9 lies inside the default stick band of 1e-8
    CURVE = SigmaCurve.from_table([0.0, math.pi], [-1e-9, 1.0])

    def test_stick_that_holds_is_non_falling(self):
        r = classify_exit(0.0, self.CURVE, P, ConstantPivot(30.0), 5.0, TOL)
        assert r.outcome == NON_FALLING
        assert r.stuck_q == 0.0

    def test_stick_that_releases_exits_at_the_release(self):
        # a(t) = 30 cos t: friction 15 cos t holds the drift g = 9.8 until
        # cos t = 9.8 / 15
        r = classify_exit(0.0, self.CURVE, P, SinePivot(30.0, 1.0, math.pi / 2), 5.0, TOL)
        assert r.outcome == EXIT_LOW
        assert r.exit_event.t == 0.8588172719323293
        assert r.exit_event.t == pytest.approx(math.acos(9.8 / 15.0), abs=1e-9)

    def test_outward_crossing_exits_at_once(self):
        r = classify_exit(0.0, self.CURVE, Params(mu=0.1), ConstantPivot(1.0), 5.0, TOL)
        assert r.outcome == EXIT_LOW
        assert r.exit_event.t == 0.0

    def test_inward_motion_raises_after_one_integration(self, monkeypatch):
        # at q = fl(pi) the drift (a sin(fl(pi)) + g) / l points inward only
        # for a below about -8e16
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(wazewski, "integrate", counting)
        curve = SigmaCurve.from_table([0.0, math.pi], [-1.0, 1e-9])
        with pytest.raises(IntegrationError, match="turns back inside"):
            classify_exit(math.pi, curve, Params(mu=0.0), ConstantPivot(-1e18), 5.0, TOL)
        assert len(calls) == 1


class TestBisectCurve:
    def test_finds_stiction_witness_on_default_curve(self):
        res = bisect_curve(SigmaCurve.line(), P, ZERO, 50.0, TOL)
        w = res.witness
        assert w is not None and w.outcome == NON_FALLING
        assert w.stuck_q is not None
        assert STICTION_LO <= w.stuck_q <= STICTION_HI
        assert STICTION_LO - 1e-6 <= res.bracket[0] or res.bracket[0] <= STICTION_HI

    def test_bracket_endpoints_stay_sound(self):
        res = bisect_curve(SigmaCurve.line(shift=0.2), P, ZERO, 50.0, TOL)
        q_lo, q_hi = res.bracket
        lo = classify_exit(q_lo, SigmaCurve.line(shift=0.2), P, ZERO, 50.0, TOL)
        hi = classify_exit(q_hi, SigmaCurve.line(shift=0.2), P, ZERO, 50.0, TOL)
        if res.witness is None:
            assert lo.outcome == EXIT_LOW and hi.outcome == EXIT_HIGH
        else:
            assert lo.outcome in (EXIT_LOW, NON_FALLING)
            assert hi.outcome in (EXIT_HIGH, NON_FALLING)

    def test_history_records_every_probe(self):
        res = bisect_curve(SigmaCurve.line(), P, ZERO, 50.0, TOL)
        assert len(res.history) == res.iterations + 2  # endpoints + probes

    def test_precondition_detected_on_corrupted_curve(self):
        # a curve mutated after construction defeats the endpoint check:
        # bisect_curve must re-verify and refuse
        flip = {"on": False}

        def sigma(q):
            if flip["on"]:
                return q - math.pi / 2 - 10.0  # everything exits low
            return q - math.pi / 2

        curve = SigmaCurve(sigma=sigma, name="mutant")
        flip["on"] = True
        with pytest.raises(PreconditionFailed):
            bisect_curve(curve, P, ZERO, 20.0, TOL)

    def test_witness_revalidates_at_tighter_tolerance(self):
        curve = SigmaCurve.line()
        res = bisect_curve(curve, P, ZERO, 50.0, TOL)
        again = recheck_witness(res.witness, curve, P, ZERO, TOL)
        assert again.is_witness
        qs = [q for _, q, _, _ in again.trajectory.samples]
        assert min(qs) >= 0.0
        assert max(qs) <= math.pi


class TestStrictMode:
    def test_prop2_regime_yields_interior_witness(self):
        # mu * sup|a| = 0.25 < g: corners repel, witness strictly interior
        pv = SinePivot(amp=0.5, omega=1.0)
        res = bisect_curve(SigmaCurve.line(), P, pv, 50.0, TOL, strict=True)
        w = res.witness
        assert w is not None
        assert w.min_boundary_distance > 0.0

    def test_no_corner_exits_in_history(self):
        pv = SinePivot(amp=0.5, omega=1.0)
        res = bisect_curve(SigmaCurve.line(), P, pv, 50.0, TOL, strict=True)
        exits = [e for e in res.history if e.exit_event is not None]
        assert exits
        for entry in exits:
            at_corner = min(abs(entry.exit_event.q), abs(entry.exit_event.q - math.pi)) <= 1e-6
            if at_corner:
                assert abs(entry.exit_p) > TOL.stick_band


class TestExitSideContinuity:
    def test_neighbors_of_clear_exit_share_the_side(self):
        # exit well before the horizon: nearby starts must exit the same side
        curve = SigmaCurve.line()
        base = classify_exit(0.4, curve, P, ZERO, 50.0, TOL)
        assert base.outcome == EXIT_LOW
        for dq in (-1e-4, 1e-4):
            near = classify_exit(0.4 + dq, curve, P, ZERO, 50.0, TOL)
            assert near.outcome == EXIT_LOW


class TestFamilySweep:
    def test_three_shifted_lines_give_distinct_witnesses(self):
        curves = [SigmaCurve.line(shift=s) for s in (-0.1, 0.0, 0.1)]
        entries = family_sweep(curves, P, ZERO, 50.0, TOL)
        assert len(entries) == 3
        starts = set()
        for e in entries:
            assert e.error is None
            w = e.result.witness
            assert w is not None and w.outcome == NON_FALLING
            starts.add((round(w.q0, 12), round(w.p0, 12)))
        assert len(starts) == 3

    def test_singleton_family_matches_bisect(self):
        curve = SigmaCurve.line()
        entries = family_sweep([curve], P, ZERO, 50.0, TOL)
        solo = bisect_curve(curve, P, ZERO, 50.0, TOL)
        assert entries[0].result.witness.q0 == solo.witness.q0

    def test_crossing_curves_rejected_before_any_integration(self):
        crossing = [
            SigmaCurve.line(),
            SigmaCurve.from_table([0.0, math.pi], [-2.0, 3.0], name="steep"),
        ]
        with pytest.raises(CurveValidationError):
            family_sweep(crossing, P, ZERO, 50.0, TOL)

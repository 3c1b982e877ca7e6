import io
import math

import numpy as np
import pytest

from drypend.model import ConstantPivot, Params, SinePivot, State, energy, p_star
from drypend.integrator import (
    CROSSING,
    HORIZON,
    REGION_EXIT,
    STICK_ENTRY,
    STICK_RELEASE,
    Tolerances,
    Trajectory,
    check_escape_trap,
    classify_switch,
    integrate,
    slide_until_release,
    step_smooth,
    trajectory_residuals,
)

import refsim

P = Params(mu=0.5)
ZERO = ConstantPivot(0.0)
TOL = Tolerances()


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert t.rel_tol == 1e-9 and t.abs_tol == 1e-11
        assert t.event_tol == 1e-10 and t.stick_band == 1e-8 and t.max_dt == 0.05

    def test_stick_band_floor(self):
        with pytest.raises(ValueError):
            Tolerances(abs_tol=1e-6, stick_band=1e-6)

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "event_tol", "stick_band", "max_dt"])
    def test_positivity(self, field):
        with pytest.raises(ValueError):
            Tolerances(**{field: 0.0})


class TestStepSmooth:
    def test_energy_conserved_per_step_frictionless(self):
        p0 = Params(mu=0.0)
        st = State(q=math.pi / 2, p=0.1, t=0.0)
        res = step_smooth(st, p0, ZERO, TOL)
        e0 = float(energy(p0, st.q, st.p))
        e1 = float(energy(p0, res.state.q, res.state.p))
        assert abs(e1 - e0) / abs(e0) <= TOL.rel_tol

    def test_velocity_decreases_above_trap(self):
        cap = p_star(P, ZERO, 0.0, 1.0)
        for q in (0.3, 1.0, 2.5):
            st = State(q=q, p=2 * cap, t=0.0)
            res = step_smooth(st, P, ZERO, TOL)
            assert res.state.p < st.p

    def test_single_step_matches_fine_reference(self):
        st = State(q=1.2, p=0.05, t=0.0)
        res = step_smooth(st, P, ZERO, TOL)
        f = refsim.make_field(P.l, P.g, P.mu, ZERO.accel)
        n = max(2, round(res.h_used / 1e-6))
        h_ref = res.h_used / n
        q, p, t = st.q, st.p, st.t
        for _ in range(n):
            q, p = refsim.rk4_step(f, t, q, p, h_ref)
            t += h_ref
        assert math.hypot(res.state.q - q, res.state.p - p) <= 10 * TOL.abs_tol

    def test_never_straddles_sign_change(self):
        # drive toward p = 0 from below; every step end stays on one side
        st = State(q=1.3, p=-0.2, t=0.0)
        h = None
        for _ in range(10000):
            res = step_smooth(st, P, ZERO, TOL, h=h)
            if res.hit_switch:
                assert abs(res.state.p) <= TOL.stick_band / 10
                break
            assert res.state.p < 0
            st, h = res.state, res.h_next
        else:
            pytest.fail("switch never reached")

    def test_requires_slipping_mode(self):
        with pytest.raises(ValueError):
            step_smooth(State(q=1.0, p=0.0, t=0.0, mode="stuck"), P, ZERO, TOL)


class TestLocateSwitch:
    def _bracket(self):
        # one genuine smooth-branch step across p = 0 from the stiction zone
        s0 = State(q=1.3, p=0.01, t=0.0)
        f = refsim.make_field(P.l, P.g, P.mu, ZERO.accel)
        q, p, t = s0.q, s0.p, s0.t
        while p > 0:
            q, p = refsim.rk4_step(f, t, q, p, 1e-4)
            t += 1e-4
        return s0, State(q=q, p=p, t=t)

    def test_contracts_to_surface(self):
        # step_smooth from the bracket's start ends its last step on p = 0
        s0, s1 = self._bracket()
        hit, h = s0, None
        for _ in range(10000):
            res = step_smooth(hit, P, ZERO, TOL, h=h)
            hit, h = res.state, res.h_next
            if res.hit_switch:
                break
        else:
            pytest.fail("switch never reached")
        assert abs(hit.p) <= TOL.stick_band / 10
        assert s0.t < hit.t <= s1.t

    def test_event_time_matches_reference(self):
        # run the integrator to its first switch, compare against the
        # dt=1e-6 reference following the incoming branch, with Hermite
        # refinement of the contact time
        st = State(q=1.3, p=-0.2, t=0.0)
        h = None
        while True:
            res = step_smooth(st, P, ZERO, TOL, h=h)
            if res.hit_switch:
                t_event = res.state.t
                break
            st, h = res.state, res.h_next
        f = refsim.make_field(P.l, P.g, P.mu, ZERO.accel, branch=-1.0)
        t_ref = refsim.first_p_zero(f, 1.3, -0.2, 0.0, 1.0, 1e-6)
        assert abs(t_event - t_ref) <= 2 * TOL.event_tol


class TestClassifySwitch:
    def test_sticks_at_apex(self):
        assert classify_switch(P, ZERO, math.pi / 2, 0.0) == 0

    def test_crosses_downward_in_drift_region(self):
        assert classify_switch(P, ZERO, math.pi / 4, 0.0) == -1

    def test_frictionless_crossing(self):
        assert classify_switch(Params(mu=0.0), ZERO, math.pi / 4, 0.0) == -1


class TestSlideUntilRelease:
    def test_time_invariant_stiction_holds_to_horizon(self):
        st = State(q=math.pi / 2, p=0.0, t=0.0, mode="stuck")
        end, ev = slide_until_release(st, P, ZERO, 100.0, TOL)
        assert ev.kind == HORIZON and end.t == 100.0 and end.mode == "stuck"

    def test_release_time_matches_analytic(self):
        # at q = pi/2 the margin is |a sin(w t)| - mu g: first root at
        # asin(mu g / a) / w, releasing in the drift direction (+1)
        pv = SinePivot(amp=6.0, omega=1.0)
        st = State(q=math.pi / 2, p=0.0, t=0.0, mode="stuck")
        end, ev = slide_until_release(st, P, pv, 100.0, TOL)
        t_star = math.asin(P.mu * P.g / 6.0)
        assert ev.kind == STICK_RELEASE and ev.direction == 1
        assert abs(end.t - t_star) <= 2 * TOL.event_tol

    def test_just_inside_stiction_interval_stays(self):
        q = math.atan(2.0) + 1e-9
        st = State(q=q, p=0.0, t=0.0, mode="stuck")
        end, ev = slide_until_release(st, P, ZERO, 50.0, TOL)
        assert ev.kind == HORIZON and end.mode == "stuck"

    def test_rejects_released_entry(self):
        st = State(q=0.3, p=0.0, t=0.0, mode="stuck")
        with pytest.raises(ValueError):
            slide_until_release(st, P, ZERO, 10.0, TOL)


class TestIntegrate:
    def test_stuck_equilibrium_event_sequence(self):
        traj = integrate(State(q=math.pi / 2, p=0.0, t=0.0), P, ZERO, 10.0, TOL)
        kinds = [e.kind for e in traj.events]
        assert kinds == [STICK_ENTRY, HORIZON]
        assert np.all(traj.q == math.pi / 2)
        assert traj.final.t == 10.0

    def test_exit_low_from_drift_region(self):
        traj = integrate(
            State(q=0.3, p=0.0, t=0.0), P, ZERO, 10.0, TOL, region_guard=(0.0, math.pi)
        )
        last = traj.events[-1]
        assert last.kind == REGION_EXIT and last.side == "low"
        # exit time against the dt=1e-6 reference (seeded like the integrator)
        f = refsim.make_field(P.l, P.g, P.mu, ZERO.accel)
        t_ref = refsim.first_q_crossing(
            f, 0.3, -TOL.stick_band / 2, 0.0, 2.0, 1e-6, 0.0
        )
        assert abs(last.t - t_ref) <= 1e-6

    def test_frictionless_energy_drift(self):
        p0 = Params(mu=0.0)
        traj = integrate(State(q=math.pi / 2, p=0.1, t=0.0), p0, ZERO, 5.0, TOL)
        e = energy(p0, traj.q, traj.p)
        drift = float(np.max(np.abs(e - e[0])) / abs(e[0]))
        assert drift <= 1e-6

    def test_sample_gaps_bounded(self):
        traj = integrate(State(q=1.0, p=2.0, t=0.0), P, ZERO, 20.0, TOL)
        assert float(np.max(np.diff(traj.t))) <= TOL.max_dt + 1e-12

    def test_mode_phase_consistency(self):
        traj = integrate(State(q=1.0, p=2.0, t=0.0), P, SinePivot(1.0, 2.0), 20.0, TOL)
        from drypend.model import stiction_holds

        for t, q, p, mode in traj.samples:
            if mode == "stuck":
                assert p == 0.0
                assert bool(stiction_holds(P, SinePivot(1.0, 2.0), q, t))

    def test_deterministic_bit_for_bit(self):
        ic = State(q=0.9, p=1.7, t=0.0)
        a = integrate(ic, P, SinePivot(2.0, 1.3), 15.0, TOL)
        b = integrate(ic, P, SinePivot(2.0, 1.3), 15.0, TOL)
        assert a.samples == b.samples
        assert a.events == b.events

    def test_right_uniqueness_surrogate(self):
        grid = list(np.linspace(0.0, 20.0, 401))
        tol = Tolerances(rel_tol=1e-12, abs_tol=1e-11, event_tol=1e-12, stick_band=1e-7)
        runs = []
        for h0 in (1e-3, 1e-5):
            traj = integrate(
                State(q=1.3, p=-0.2, t=0.0), P, ZERO, 20.0, tol, record_at=grid, initial_dt=h0
            )
            runs.append(np.array([(s.q, s.p) for s in traj.recorded]))
        sup = float(np.max(np.hypot(*(runs[0] - runs[1]).T)))
        assert sup <= 10 * tol.abs_tol

    def test_event_alternation_no_chatter(self):
        traj = integrate(State(q=1.0, p=3.0, t=0.0), P, SinePivot(2.0, 3.0), 30.0, TOL)
        crossings = [e for e in traj.events if e.kind == CROSSING]
        for e1, e2 in zip(crossings, crossings[1:]):
            same_q = abs(e1.q - e2.q) <= TOL.event_tol
            same_t = abs(e1.t - e2.t) <= TOL.event_tol
            assert not (same_q and same_t)

    def test_escape_trap_via_helper(self):
        traj = integrate(State(q=1.0, p=2 * 5.4222, t=0.0), P, ZERO, 10.0, TOL)
        assert check_escape_trap(traj, P, ZERO, 10.0)

    def test_piecewise_smooth_residuals(self):
        traj = integrate(State(q=1.0, p=2.0, t=0.0), P, ZERO, 5.0, TOL)
        assert trajectory_residuals(traj, P, ZERO) < 50.0

    def test_rejects_empty_horizon(self):
        with pytest.raises(ValueError):
            integrate(State(q=1.0, p=1.0, t=5.0), P, ZERO, 5.0, TOL)

    def test_stick_release_follows_entry(self):
        # forced release: strong sine forcing defeats stiction periodically
        pv = SinePivot(amp=6.0, omega=1.0)
        traj = integrate(State(q=math.pi / 2, p=0.0, t=0.0), P, pv, 3.0, TOL)
        kinds = [e.kind for e in traj.events]
        assert STICK_ENTRY in kinds and STICK_RELEASE in kinds
        i_entry = kinds.index(STICK_ENTRY)
        assert kinds[i_entry + 1] == STICK_RELEASE

    def test_events_strictly_time_ordered(self):
        pv = SinePivot(amp=6.0, omega=1.0)
        traj = integrate(State(q=math.pi / 2, p=0.0, t=0.0), P, pv, 5.0, TOL)
        times = [e.t for e in traj.events]
        assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))

    def test_chatter_limit_raised(self, monkeypatch):
        import drypend.integrator as mod

        monkeypatch.setattr(mod, "_MAX_EVENTS", 2)
        pv = SinePivot(amp=6.0, omega=1.0)  # periodic stick/release cycles
        with pytest.raises(mod.ChatterLimit):
            integrate(State(q=math.pi / 2, p=0.0, t=0.0), P, pv, 20.0, TOL)


class TestConvergenceOrder:
    def test_halving_tolerances_shrinks_error(self):
        # smooth frictionless scenario, no events: error must scale with tol
        p0 = Params(mu=0.0)
        pv = SinePivot(0.5, 1.0)
        cps = list(np.linspace(0.0, 1.0, 101))[1:]
        f = refsim.make_field(p0.l, p0.g, 0.0, pv.accel)
        ref = refsim.states_at(f, math.pi / 4, -0.5, 0.0, cps, 1e-5)
        errs = []
        for k in (0, 2):
            tol = Tolerances(
                rel_tol=3e-9 / 2 ** k, abs_tol=3e-11 / 2 ** k, event_tol=1e-10,
                stick_band=1e-8, max_dt=0.25,
            )
            traj = integrate(State(q=math.pi / 4, p=-0.5, t=0.0), p0, pv, 1.0, tol, record_at=cps)
            errs.append(
                max(
                    math.hypot(s.q - ref[round(s.t, 10)][0], s.p - ref[round(s.t, 10)][1])
                    for s in traj.recorded
                )
            )
        # two halvings: expect roughly a quarter, generous sanity bounds here
        assert errs[1] <= 0.55 * errs[0]


class TestSerialization:
    def test_csv_round_trip(self):
        traj = integrate(State(q=1.0, p=2.0, t=0.0), P, ZERO, 3.0, TOL)
        text = traj.to_csv()
        clone = Trajectory.read_csv(io.StringIO(text))
        assert clone.samples == traj.samples

    def test_csv_header_and_modes(self):
        traj = integrate(State(q=math.pi / 2, p=0.0, t=0.0), P, ZERO, 1.0, TOL)
        lines = traj.to_csv().splitlines()
        assert lines[0] == "t,q,p,mode"
        assert all(line.endswith(("slip", "stuck")) for line in lines[1:])

    def test_events_json_fields(self):
        import json

        pv = SinePivot(amp=6.0, omega=1.0)
        traj = integrate(State(q=math.pi / 2, p=0.0, t=0.0), P, pv, 3.0, TOL)
        events = json.loads(traj.events_json())
        assert all({"t", "q", "kind"} <= set(e) for e in events)
        releases = [e for e in events if e["kind"] == STICK_RELEASE]
        assert releases and all(e["direction"] in (-1, 1) for e in releases)

    def test_fingerprint_tracks_inputs(self):
        a = integrate(State(q=1.0, p=1.0, t=0.0), P, ZERO, 1.0, TOL)
        b = integrate(State(q=1.0, p=1.0, t=0.0), P, ConstantPivot(0.1), 1.0, TOL)
        assert a.params_fingerprint != b.params_fingerprint

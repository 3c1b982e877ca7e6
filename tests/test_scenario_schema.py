"""The scenario schema: stated once, built once, every cross-field rule checked at load.

Each pivot kind's fields live in one table, `model.PIVOT_KINDS`; a scenario
file is parsed and its start state or curves built once per command; a rule
that ties two fields together rejects the file with exit 2, naming the field,
before any command runs; and a field past the float range ends a run with
exit 2, never with a traceback.  Every command runs in-process through
`cli.main`.
"""

import json
import math
import signal

import pytest

from drypend import cli, wazewski
from drypend.integrator import STICK_RELEASE, Tolerances, Trajectory, slide_until_release
from drypend.model import (
    PIVOT_KINDS,
    STUCK,
    Params,
    SinePivot,
    State,
    pivot_from_dict,
    stiction_drift_and_bound,
)
from drypend.svgplot import phase_portrait_svg

POINT = {
    "params": {"mu": 0.3},
    "pivot": {"kind": "sine", "amp": 2.0, "omega": 1.0},
    "initial": {"kind": "point", "q0": 1.0, "p0": 0.2},
    "horizon": 2.0,
}
CURVE = {"kind": "curve", "sigma": {"kind": "line"}, "family_shifts": [-0.1, 0.1]}

# numpy warns of the overflows that the huge fields cause in the checks
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def run(tmp_path, command, scenario, *flags):
    """The exit code of `drypend <command>` on `scenario`."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return cli.main([command, str(path), "--out", str(tmp_path / "out"), *flags])


def rejected(tmp_path, capsys, command, scenario, field):
    rc = run(tmp_path, command, scenario)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert field in err
    assert not (tmp_path / "out").exists()
    return err


class TestPivotTable:
    def test_every_field_of_every_kind_round_trips(self):
        specs = {
            "constant": {"a": 1.5},
            "sine": {"amp": 2, "omega": 3.0, "phase": 0.1},
            "poly": {"coeffs": [1.0, 2], "t_max": 9.0},
            "table": {"times": [0, 1.0], "values": [1, 2]},
        }
        assert set(specs) == set(PIVOT_KINDS)
        for kind, fields in specs.items():
            law, names, lists = PIVOT_KINDS[kind]
            assert set(names) == set(fields) and set(lists) <= set(names)
            pivot = pivot_from_dict({"kind": kind, **fields})
            assert type(pivot) is law
            assert pivot.to_dict() == {"kind": kind, **fields}
            assert all(isinstance(pivot.to_dict()[name], list) for name in lists)

    def test_absent_fields_take_the_constructor_defaults(self):
        assert pivot_from_dict({"kind": "sine", "amp": 1, "omega": 2}).phase == 0.0
        assert pivot_from_dict({"kind": "poly", "coeffs": [1]}).t_max == 1000.0

    @pytest.mark.parametrize(
        "pivot, field",
        [
            ({"kind": "sine", "amp": 1.0}, "omega"),
            ({"kind": "constant"}, "'a'"),
            ({"kind": ["sine"]}, "unknown pivot law kind"),  # once a TypeError traceback
            ({"kind": "sine", "amp": [1.0], "omega": 1.0}, "pivot.amp"),
        ],
    )
    def test_bad_pivot_is_rejected_naming_the_field(self, tmp_path, capsys, pivot, field):
        rejected(tmp_path, capsys, "simulate", {**POINT, "pivot": pivot}, field)

    def test_scaled_tolerances_tighten_all_but_the_step_cap(self):
        tol = Tolerances(rel_tol=1e-8, abs_tol=3e-11, event_tol=2e-10, stick_band=1e-7, max_dt=0.2)
        tight = tol.scaled(10.0)
        assert tight == Tolerances(1e-8 / 10, 3e-11 / 10, 2e-10 / 10, 1e-7 / 10, 0.2)

    def test_params_name_the_bad_field(self):
        with pytest.raises(ValueError, match="g must be positive"):
            Params(g=0.0)
        with pytest.raises(ValueError, match="mu must be >= 0"):
            Params(mu=-1.0)


class TestBuiltOnce:
    @pytest.mark.parametrize("command", ["shoot", "sweep", "verify"])
    def test_one_curve_per_family_member_per_command(self, tmp_path, monkeypatch, command):
        built = []
        post_init = wazewski.SigmaCurve.__post_init__

        def counted(curve):
            built.append(curve.name)
            post_init(curve)

        monkeypatch.setattr(wazewski.SigmaCurve, "__post_init__", counted)
        scenario = {**POINT, "pivot": {"kind": "constant", "a": 0.0}, "initial": CURVE, "horizon": 3.0}
        assert run(tmp_path, command, scenario, *(["--checks", "jump"] if command == "verify" else [])) == 0
        assert built == ["line-0.1", "line+0.1"]

    def test_the_start_state_is_the_one_the_scenario_holds(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(POINT))
        scen = cli.load_scenario(str(path))
        assert scen.initial_state() is scen.initial_state() is scen.start
        assert scen.start == State(q=1.0, p=0.2, t=0.0)


class TestCrossFieldRules:
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("t0", [2.0, 3.0])
    def test_start_must_lie_below_the_horizon(self, tmp_path, capsys, command, t0):
        # integrate once raised "horizon must exceed the initial time"
        scenario = {**POINT, "initial": {"kind": "point", "q0": 1.0, "t0": t0}}
        rejected(tmp_path, capsys, command, scenario, "initial.t0")

    @pytest.mark.parametrize("command", ["shoot", "sweep"])
    def test_family_must_not_be_empty(self, tmp_path, capsys, command):
        # shoot once raised IndexError, and sweep reported "0/0 curves" with exit 0
        scenario = {**POINT, "initial": {**CURVE, "family_shifts": []}}
        rejected(tmp_path, capsys, command, scenario, "initial.family_shifts")

    def test_family_curves_must_not_coincide(self, tmp_path, capsys):
        # verify once ran, and sweep failed only after loading
        scenario = {**POINT, "initial": {**CURVE, "family_shifts": [0.1, 0.1]}}
        err = rejected(tmp_path, capsys, "verify", scenario, "initial.family_shifts")
        assert "intersect" in err

    def test_poly_window_must_start_inside_its_bounds(self, tmp_path, capsys):
        # its Lipschitz bound covers only [0, t_max]; t0 = -1 once ran
        scenario = {
            **POINT,
            "pivot": {"kind": "poly", "coeffs": [0.0, 1.0], "t_max": 10},
            "initial": {"kind": "point", "q0": 1.0, "t0": -1.0},
        }
        rejected(tmp_path, capsys, "simulate", scenario, "initial.t0")

    def test_verify_measures_dependence_from_a_late_start(self, tmp_path, capsys):
        # the window was min(horizon, 5) in absolute time: a traceback for t0 >= 5
        scenario = {**POINT, "initial": {"kind": "point", "q0": 1.0, "p0": 0.2, "t0": 5.0}, "horizon": 6.0}
        assert run(tmp_path, "verify", scenario, "--checks", "dependence") == 0, capsys.readouterr().err


OVERFLOWING = [
    ("params", {"g": 1e308}),
    ("params", {"l": 1e-308}),
    ("params", {"mu": 1e308}),
    ("pivot", {"kind": "sine", "amp": 1e308, "omega": 1.0}),
    ("tolerances", {"stick_band": 1e300}),
    ("pivot", {"kind": "table", "times": [0, 1e-300], "values": [0, 1e300]}),
    ("pivot", {"kind": "poly", "coeffs": [1e308, 1e308]}),
    ("tolerances", {"rel_tol": 1e300, "abs_tol": 1e300, "stick_band": 1e302}),
]
OVERFLOWING_IDS = ["g", "l", "mu", "sine-amp", "stick_band", "table", "poly", "tolerances"]


class TestFloatRange:
    @pytest.mark.parametrize(
        "command, message", [("simulate", "integration failed"), ("verify", "verification failed")]
    )
    @pytest.mark.parametrize("key, value", OVERFLOWING, ids=OVERFLOWING_IDS)
    def test_a_field_past_the_float_range_exits_2(self, tmp_path, capsys, command, message, key, value):
        # math.sin(inf) in the stepped field, an OverflowError in the Lipschitz
        # estimate or a StepUnderflow under verify once ended in a traceback
        rc = run(tmp_path, command, {**POINT, key: value})
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith(message), err
        assert not (tmp_path / "out").exists()

    def test_energy_drift_of_a_long_rod_is_reported_infinite(self, tmp_path, capsys):
        # l ** 2 in `energy` once raised OverflowError after the artifacts were written
        scenario = {**POINT, "params": {"mu": 0.0, "l": 1e200}, "pivot": {"kind": "constant", "a": 0}}
        assert run(tmp_path, "simulate", scenario) == 0
        assert "energy drift (relative): inf" in capsys.readouterr().out

    def test_phase_portrait_of_a_huge_flat_angle(self):
        # the 0.5 rad padding vanished next to q = 1e308: log10(0) in the ticks
        traj = Trajectory()
        for t, p in [(0.0, 0.2), (0.5, -0.3), (1.0, 0.1)]:
            traj.append(t, 1e308, p, "slip")
        assert phase_portrait_svg(traj).endswith("</svg>")


def _time_box(signum, frame):
    raise TimeoutError("the release bisection did not end")


def test_release_bisection_ends_below_the_spacing_of_doubles():
    # with event_tol below the spacing of doubles near the release time, the
    # bisection once looped for ever on two adjacent doubles
    params, pivot = Params(mu=0.5), SinePivot(6.0, 1.0)
    tol = Tolerances(event_tol=5e-324)
    previous = signal.signal(signal.SIGALRM, _time_box)
    signal.alarm(10)
    try:
        released, event = slide_until_release(State(math.pi / 2, 0.0, 0.0, STUCK), params, pivot, 10.0, tol)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert event.kind == STICK_RELEASE
    drift, bound = stiction_drift_and_bound(params, pivot, released.q, released.t)
    assert abs(drift) > bound

import json
import math
import os
from xml.etree import ElementTree

import pytest

from drypend.cli import (
    ParseError,
    ValidationError,
    cmd_shoot,
    cmd_simulate,
    cmd_sweep,
    cmd_verify,
    load_scenario,
    main,
)
from drypend.integrator import Trajectory


def write_scenario(tmp_path, name="scen.json", **overrides):
    scen = {
        "name": "test",
        "params": {"l": 1.0, "m": 1.0, "g": 9.8, "mu": 0.5},
        "pivot": {"kind": "constant", "a": 0.0},
        "initial": {"kind": "point", "q0": math.pi / 2, "p0": 0.0},
        "horizon": 5.0,
    }
    scen.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(scen))
    return str(path)


class TestLoadScenario:
    def test_minimal_file_gets_documented_defaults(self, tmp_path):
        path = tmp_path / "min.json"
        path.write_text(
            json.dumps(
                {
                    "params": {"mu": 0.5},
                    "pivot": {"kind": "constant", "a": 0.0},
                    "initial": {"kind": "point", "q0": 1.0},
                }
            )
        )
        scen = load_scenario(str(path))
        assert scen.horizon == 50.0
        t = scen.tolerances
        assert (t.rel_tol, t.abs_tol, t.event_tol, t.stick_band) == (1e-9, 1e-11, 1e-10, 1e-8)
        assert scen.initial["p0"] == 0.0 and scen.initial["t0"] == 0.0
        assert scen.mode == "closed"

    def test_negative_mu_names_the_field(self, tmp_path):
        path = write_scenario(tmp_path, params={"mu": -0.5})
        with pytest.raises(ValidationError, match="mu"):
            load_scenario(path)

    def test_sigma_endpoint_sign_rejected(self, tmp_path):
        path = write_scenario(
            tmp_path,
            initial={"kind": "curve", "sigma": {"kind": "table", "q": [0.0, math.pi], "p": [0.0, 1.0]}},
        )
        with pytest.raises(ValidationError, match="sigma endpoint sign"):
            load_scenario(path)

    def test_corrupted_tolerances_rejected_before_any_run(self, tmp_path):
        path = write_scenario(tmp_path, tolerances={"stick_band": 1e-13})
        with pytest.raises(ValidationError, match="stick_band"):
            load_scenario(path)

    def test_malformed_json_is_a_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(str(path))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_scenario("/nonexistent/file.json")

    def test_normalized_dump_round_trips(self, tmp_path):
        path = write_scenario(tmp_path)
        scen = load_scenario(path)
        dump = tmp_path / "normalized.json"
        dump.write_text(json.dumps(scen.normalized()))
        again = load_scenario(str(dump))
        assert again.normalized() == scen.normalized()
        assert again.fingerprint == scen.fingerprint


class TestSimulate:
    def test_stuck_scenario_writes_constant_rows(self, tmp_path):
        scen = load_scenario(write_scenario(tmp_path))
        out = str(tmp_path / "out")
        assert cmd_simulate(scen, out) == 0
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,q,p,mode"
        qs = {line.split(",")[1] for line in lines[1:]}
        assert qs == {repr(math.pi / 2)}
        events = json.loads((tmp_path / "out" / "events.json").read_text())
        assert events["fingerprint"] == scen.fingerprint

    def test_falling_scenario_without_guard_just_runs(self, tmp_path):
        scen = load_scenario(
            write_scenario(tmp_path, initial={"kind": "point", "q0": 0.3}, horizon=2.0)
        )
        assert cmd_simulate(scen, str(tmp_path / "out")) == 0

    def test_energy_drift_printed_for_conservative_runs(self, tmp_path, capsys):
        scen = load_scenario(
            write_scenario(
                tmp_path,
                params={"mu": 0.0},
                initial={"kind": "point", "q0": math.pi / 2, "p0": 0.1},
                horizon=5.0,
            )
        )
        assert cmd_simulate(scen, str(tmp_path / "out")) == 0
        captured = capsys.readouterr().out
        assert "energy drift" in captured
        drift = float(captured.split("energy drift (relative):")[1].split()[0])
        assert drift <= 1e-6

    def test_reruns_are_byte_identical(self, tmp_path):
        scen = load_scenario(write_scenario(tmp_path, initial={"kind": "point", "q0": 1.0, "p0": 2.0}))
        cmd_simulate(scen, str(tmp_path / "a"))
        cmd_simulate(scen, str(tmp_path / "b"))
        for name in ("trajectory.csv", "events.json", "scenario.normalized.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_svg_written_and_structured(self, tmp_path):
        scen = load_scenario(write_scenario(tmp_path, initial={"kind": "point", "q0": 1.0, "p0": 2.0}))
        cmd_simulate(scen, str(tmp_path / "out"), svg=True)
        svg = (tmp_path / "out" / "phase.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "polyline" in svg

    def test_svg_escapes_the_scenario_name(self, tmp_path):
        scen = load_scenario(write_scenario(tmp_path, horizon=1.0))
        name = "a<b & c"
        scen = scen._replace(name=name)
        cmd_simulate(scen, str(tmp_path / "out"), svg=True)
        root = ElementTree.parse(tmp_path / "out" / "phase.svg").getroot()
        assert name in [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]

    def test_poly_pivot_trajectory_reads_back(self, tmp_path):
        pivot = {"kind": "poly", "coeffs": [0.5, -0.2, 0.01], "t_max": 100}
        initial = {"kind": "point", "q0": 1.0, "p0": 0.3}
        scen = load_scenario(
            write_scenario(tmp_path, params={"mu": 0.3}, pivot=pivot, initial=initial, horizon=20)
        )
        assert cmd_simulate(scen, str(tmp_path / "out")) == 0
        with open(tmp_path / "out" / "trajectory.csv") as fh:
            traj = Trajectory.read_csv(fh)
        assert len(traj.samples) > 10 and "np.float64" not in traj.to_csv()


class TestShoot:
    def test_default_curve_finds_stiction_witness(self, tmp_path):
        scen = load_scenario(
            write_scenario(
                tmp_path,
                initial={"kind": "curve", "sigma": {"kind": "line"}},
                horizon=50.0,
            )
        )
        out = str(tmp_path / "out")
        assert cmd_shoot(scen, out) == 0
        payload = json.loads((tmp_path / "out" / "witness.json").read_text())
        w = payload["witness"]
        assert w["outcome"] == "non_falling"
        assert math.atan(2) <= w["stuck_q"] <= math.pi - math.atan(2)

    def test_point_initial_rejected(self, tmp_path):
        scen = load_scenario(write_scenario(tmp_path))
        with pytest.raises(ValidationError):
            cmd_shoot(scen, str(tmp_path / "out"))

    def test_inconclusive_exits_3(self, tmp_path):
        # frictionless forced pendulum: the non-falling point is isolated,
        # so the bracket hits the width floor with no certified witness
        scen = load_scenario(
            write_scenario(
                tmp_path,
                params={"mu": 0.0},
                pivot={"kind": "sine", "amp": 2.0, "omega": 1.0},
                initial={"kind": "curve", "sigma": {"kind": "line"}},
                horizon=20.0,
            )
        )
        assert cmd_shoot(scen, str(tmp_path / "out")) == 3
        payload = json.loads((tmp_path / "out" / "witness.json").read_text())
        assert payload["inconclusive"] is True
        assert payload["witness"] is None
        assert payload["bracket"][1] - payload["bracket"][0] <= 1e-12

    def test_curve_family_delegates_to_sweep(self, tmp_path):
        scen = load_scenario(
            write_scenario(
                tmp_path,
                initial={
                    "kind": "curve",
                    "sigma": {"kind": "line"},
                    "family_shifts": [-0.05, 0.05],
                },
                horizon=30.0,
            )
        )
        assert cmd_shoot(scen, str(tmp_path / "out")) == 0
        entries = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert len(entries) == 2


class TestSweep:
    def test_family_of_three(self, tmp_path):
        scen = load_scenario(
            write_scenario(
                tmp_path,
                initial={
                    "kind": "curve",
                    "sigma": {"kind": "line"},
                    "family_shifts": [-0.1, 0.0, 0.1],
                },
                horizon=50.0,
            )
        )
        assert cmd_sweep(scen, str(tmp_path / "out")) == 0
        entries = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert len(entries) == 3
        assert all(e["witness"] is not None for e in entries)


class TestVerify:
    def test_full_suite_passes_on_default_scenario(self, tmp_path, capsys):
        scen = load_scenario(write_scenario(tmp_path, horizon=10.0))
        assert cmd_verify(scen, str(tmp_path / "out")) == 0
        table = capsys.readouterr().out
        for name in ("jump_inequality", "one_sided_lipschitz", "continuous_dependence", "upper_semicontinuity"):
            assert name in table
        payload = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert all(r["passed"] for r in payload["reports"])

    def test_single_check_subset(self, tmp_path):
        scen = load_scenario(write_scenario(tmp_path, horizon=10.0))
        assert cmd_verify(scen, str(tmp_path / "out"), checks=["jump"]) == 0
        payload = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert [r["name"] for r in payload["reports"]] == ["jump_inequality"]

    def test_unknown_check_rejected(self, tmp_path):
        scen = load_scenario(write_scenario(tmp_path))
        assert cmd_verify(scen, str(tmp_path / "out"), checks=["nope"]) == 2


class TestMainEntry:
    def test_simulate_via_argv(self, tmp_path):
        path = write_scenario(tmp_path, initial={"kind": "point", "q0": 1.0, "p0": 2.0})
        out = str(tmp_path / "out")
        assert main(["simulate", path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "trajectory.csv"))

    def test_bad_scenario_exits_2(self, tmp_path):
        path = write_scenario(tmp_path, params={"mu": -1.0})
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 2

    def test_horizon_override(self, tmp_path):
        path = write_scenario(tmp_path, initial={"kind": "point", "q0": 1.0, "p0": 2.0})
        out = str(tmp_path / "out")
        assert main(["simulate", path, "--out", out, "--horizon", "1.0"]) == 0
        last = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(1.0)

    def test_strict_flag_switches_mode(self, tmp_path):
        path = write_scenario(
            tmp_path, initial={"kind": "curve", "sigma": {"kind": "line"}}, horizon=30.0
        )
        out = str(tmp_path / "out")
        assert main(["shoot", path, "--out", out, "--strict"]) == 0
        norm = json.loads((tmp_path / "out" / "scenario.normalized.json").read_text())
        assert norm["mode"] == "strict"


class TestArtifactModes:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["umask022", "umask027"])
    @pytest.mark.parametrize(
        "argv, initial",
        [
            (["simulate", "--svg"], {"kind": "point", "q0": 1.0, "p0": 2.0}),
            (["shoot"], {"kind": "curve", "sigma": {"kind": "line"}}),
            (["sweep"], {"kind": "curve", "sigma": {"kind": "line"}, "family_shifts": [-0.05, 0.05]}),
            (["verify", "--checks", "jump"], {"kind": "point", "q0": 1.0, "p0": 2.0}),
        ],
        ids=["simulate", "shoot", "sweep", "verify"],
    )
    def test_every_artifact_takes_its_mode_from_the_umask(self, tmp_path, umask, mode, argv, initial):
        path = write_scenario(tmp_path, initial=initial, horizon=5.0)
        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            assert main([argv[0], path, "--out", str(out), *argv[1:]]) in (0, 3)
        finally:
            os.umask(old)
        names = sorted(os.listdir(out))
        assert "scenario.normalized.json" in names and len(names) >= 2
        assert {name: oct(os.stat(out / name).st_mode & 0o777) for name in names} == {
            name: oct(mode) for name in names
        }

"""numpy stays off the start-up path: the CLI imports it only to verify.

numpy's import is about as long as a whole simulation.  scipy, which the
tests use as an oracle, stays off every run path: the stepper's tableau is
written out in `drypend.integrator`, so no command imports it.  The model runs on
floats, a poly pivot's bounds and level times included, and numpy only builds
and evaluates the verification checks' sample grids.  Nor does the CLI's import load `dataclasses` and the
`inspect` it brings: the value types are named tuples and slotted classes.  The SVG writer
is loaded only for `simulate --svg`.
Each case runs in a fresh interpreter, since this test process has numpy
loaded already.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src")
SCENARIOS = os.path.join(ROOT, "scenarios")

TABLE_POINT = {
    "params": {"mu": 0.4},
    "pivot": {"kind": "table", "times": [0, 1, 2.5, 4, 6], "values": [0, 9, -7, 8, 1]},
    "initial": {"kind": "point", "q0": 1.2, "p0": 0.5},
    "horizon": 6,
}
# poly laws; the point run sticks and releases, so its level times are searched
POLY = os.path.join(ROOT, "tests", "golden_inputs", "poly_point.json")
POLY_CURVE = {
    "params": {"mu": 0.3},
    "pivot": {"kind": "poly", "coeffs": [0.5, -0.4, 0.05], "t_max": 20},
    "initial": {"kind": "curve", "sigma": {"kind": "line"}},
    "horizon": 10,
}
# frictionless and unforced: simulate also reports the energy drift
FRICTIONLESS = {
    "params": {"mu": 0.0},
    "pivot": {"kind": "constant", "a": 0.0},
    "initial": {"kind": "point", "q0": 1.0, "p0": 0.5},
    "horizon": 5,
}

# after `import drypend.cli`, run main(argv) and report its code, numpy's
# state and whether scipy was ever imported
CHILD = """
import json, sys
import drypend.cli as cli
imported = "numpy" in sys.modules
rc = cli.main(json.loads(sys.argv[1])) if sys.argv[1] != "null" else None
print(json.dumps({"at_import": imported, "rc": rc, "after": "numpy" in sys.modules,
                  "scipy": "scipy" in sys.modules}))
"""


def run_child(argv):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_leaves_numpy_out():
    assert run_child(None) == {"at_import": False, "rc": None, "after": False, "scipy": False}


def loaded_at_import(modules):
    """Which of `modules` a fresh `import drypend.cli` loads."""
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys, drypend.cli; print([m for m in {modules!r} if m in sys.modules])",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_dataclasses_and_inspect_out():
    assert loaded_at_import(("dataclasses", "inspect")) == "[]"


def test_import_leaves_the_svg_writer_out():
    # only `simulate --svg` loads it
    assert loaded_at_import(("drypend.svgplot",)) == "[]"


@pytest.mark.parametrize(
    "command, scenario, flags",
    [
        ("simulate", "swing_capture.json", ["--svg"]),  # sine pivot
        ("simulate", TABLE_POINT, ["--svg"]),
        ("simulate", "stuck_equilibrium.json", []),  # constant pivot
        ("simulate", FRICTIONLESS, []),
        ("simulate", POLY, []),
        ("shoot", "shoot_default.json", []),
        ("shoot", POLY_CURVE, []),
        ("sweep", "family_sweep.json", []),
    ],
    ids=[
        "simulate-sine",
        "simulate-table",
        "simulate-constant",
        "simulate-energy",
        "simulate-poly",
        "shoot",
        "shoot-poly",
        "sweep",
    ],
)
def test_commands_run_without_numpy(tmp_path, command, scenario, flags):
    if isinstance(scenario, dict):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
    else:
        path = os.path.join(SCENARIOS, scenario)
    report = run_child([command, str(path), "--out", str(tmp_path / "out"), *flags])
    assert report == {"at_import": False, "rc": 0, "after": False, "scipy": False}
    assert (tmp_path / "out" / "scenario.normalized.json").exists()


def test_verify_imports_numpy_and_runs(tmp_path):
    path = os.path.join(SCENARIOS, "swing_capture.json")
    report = run_child(["verify", path, "--out", str(tmp_path / "out")])
    assert report == {"at_import": False, "rc": 0, "after": True, "scipy": False}
    assert (tmp_path / "out" / "verify.json").exists()

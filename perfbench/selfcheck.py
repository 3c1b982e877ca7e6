"""Show that every output check in checks.py can fail.

    python3 perfbench/selfcheck.py

Runs one op of each command, confirms that its genuine artifacts pass, then
applies one deliberate perturbation per check to a copy and confirms that the
check rejects it with the expected message.  Exits 1 if a perturbation goes
undetected or the genuine artifacts fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from drypend import cli  # noqa: E402

SIMULATE = workloads.round_ops("simulate-stickslip", 0)[6]  # a sine pivot with --svg that sticks
SHOOT_FRICTIONLESS = workloads.Op("frictionless_forced.json", "shoot", workloads._shipped("frictionless_forced.json"))
SWEEP = workloads.Op("frictionless_forced.json", "sweep", workloads._shipped("frictionless_forced.json"))
SHOOT_STUCK = workloads.Op("stuck", "shoot", {
    "params": {"mu": 0.5},
    "pivot": {"kind": "sine", "amp": 0.5, "omega": 1.0},
    "initial": {"kind": "curve", "sigma": {"kind": "line", "shift": 0.3}},
    "horizon": 10.0,
})
VERIFY = workloads.round_ops("verify-checks", 0)[1]


def run(op, work):
    path = os.path.join(work, "scenario.json")
    with open(path, "w") as fh:
        json.dump(op.scenario, fh)
    out = os.path.join(work, "out")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([op.command, path, "--out", out, *op.flags])
    return out, rc


def edit_json(out, name, fn):
    path = os.path.join(out, name)
    with open(path) as fh:
        data = json.load(fh)
    fn(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def edit_csv(out, fn):
    path = os.path.join(out, "trajectory.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    rows = fn(rows)
    with open(path, "w") as fh:
        fh.write("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def first_stuck(rows):
    return next(i for i, r in enumerate(rows) if r[3] == "stuck")


def stretch_end(rows):
    t = [float(r[0]) for r in rows]
    p = [float(r[2]) for r in rows]
    mode = [r[3] for r in rows]
    band = checks.DEFAULT_TOL["stick_band"]
    return checks._stretches(t, p, mode, band)[0][1]


def set_cell(rows, i, col, value):
    rows[i][col] = repr(value)
    return rows


def swap_late_rows(rows):
    rows[-2], rows[-3] = rows[-3], rows[-2]
    return rows


def kick_late_slip_row(rows):
    i = max(i for i, r in enumerate(rows) if r[3] == "slip")
    return set_cell(rows, i, 2, 100.0)


def drop_stick_entry(e):
    e["events"].remove(next(ev for ev in e["events"] if ev["kind"] == "stick_entry"))


def shift_bracket(w):
    w["bracket"] = [b + 1e-6 for b in w["bracket"]]


def perturb_stuck_q(w):
    w["witness"]["stuck_q"] = 0.3


def scale_jump(v):
    v["reports"][0]["margin"] *= 1.01


def scale_lipschitz(v):
    v["reports"][1]["estimated_constant"] *= 1.01


def scale_l_est(v):
    v["reports"][1]["details"]["l_est"] *= 1.01


def grow_epsilons(v):
    v["reports"][2]["details"]["epsilons"][-1] *= 1e3


def fail_dependence(v):
    v["reports"][2]["passed"] = False


def scale_beta(v):
    v["reports"][3]["worst_case"]["beta"] *= 1.01


def bump_mu(s):
    s["params"]["mu"] += 0.01


CSV, SVG, RC = "csv", "svg", "rc"
CASES = [
    # (op, what, perturbation, expected message fragment)
    (SIMULATE, CSV, swap_late_rows, "time-ordered"),
    (SIMULATE, CSV, lambda rows: rows[:-1], "csv ends at"),
    (SIMULATE, CSV, lambda rows: set_cell(rows, first_stuck(rows), 2, 1e-3), "p != 0"),
    (SIMULATE, CSV, lambda rows: set_cell(rows, first_stuck(rows), 1, 0.05), "stiction inequality"),
    (SIMULATE, CSV, kick_late_slip_row, "velocity trap"),
    (SIMULATE, CSV, lambda rows: set_cell(rows, stretch_end(rows), 1, float(rows[stretch_end(rows)][1]) + 1e-5), "DOP853 state"),
    (SIMULATE, ("events.json", drop_stick_entry), None, "stick entries"),
    (SIMULATE, SVG, None, "phase.svg"),
    (SIMULATE, ("scenario.normalized.json", bump_mu), None, "normalized params"),
    (SHOOT_FRICTIONLESS, ("witness.json", lambda w: w.update(iterations=w["iterations"] + 1)), None, "bracket width"),
    (SHOOT_FRICTIONLESS, ("witness.json", lambda w: w.update(bracket=[w["bracket"][0] - 1e-9, w["bracket"][1]])), None, "wider than the floor"),
    (SHOOT_FRICTIONLESS, ("witness.json", shift_bracket), None, "DOP853 exits"),
    (SHOOT_FRICTIONLESS, RC, 0, "exit code"),
    (SWEEP, ("sweep.json", lambda s: s[0].update(iterations=s[0]["iterations"] - 1)), None, "bracket width"),
    (SHOOT_STUCK, ("witness.json", lambda w: w["witness"].update(p0=w["witness"]["p0"] + 1e-9)), None, "sigma(q0)"),
    (SHOOT_STUCK, ("witness.json", perturb_stuck_q), None, "violates stiction"),
    (VERIFY, ("verify.json", scale_jump), None, "jump margin"),
    (VERIFY, ("verify.json", scale_lipschitz), None, "Lipschitz constant"),
    (VERIFY, ("verify.json", scale_l_est), None, "Lipschitz bound"),
    (VERIFY, ("verify.json", grow_epsilons), None, "do not shrink"),
    (VERIFY, ("verify.json", fail_dependence), None, "did not pass"),
    (VERIFY, ("verify.json", scale_beta), None, "semicontinuity beta"),
]


def main() -> int:
    tmp = os.path.join(HERE, "tmp-selfcheck")
    os.makedirs(tmp, exist_ok=True)
    bad = 0
    genuine = {}
    try:
        for op in {id(c[0]): c[0] for c in CASES}.values():
            work = tempfile.mkdtemp(dir=tmp)
            out, rc = run(op, work)
            errs = checks.check_op(op.command, op.scenario, out, rc, op.flags)
            genuine[id(op)] = (out, rc)
            print(f"{'ok  ' if not errs else 'FAIL'} genuine {op.command} {op.name}: {errs or 'passes'}")
            bad += bool(errs)
        for op, what, arg, expect in CASES:
            src, rc = genuine[id(op)]
            work = tempfile.mkdtemp(dir=tmp)
            out = os.path.join(work, "out")
            shutil.copytree(src, out)
            if what == CSV:
                edit_csv(out, arg)
            elif what == SVG:
                with open(os.path.join(out, "phase.svg"), "w") as fh:
                    fh.write("<svg")
            elif what == RC:
                rc = arg
            else:
                name, fn = what
                edit_json(out, name, fn)
            errs = checks.check_op(op.command, op.scenario, out, rc, op.flags)
            hit = [e for e in errs if expect in e]
            print(f"{'ok  ' if hit else 'FAIL'} {op.command} {op.name}: {hit[0] if hit else f'{expect!r} not detected'}")
            bad += not hit
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(CASES)} perturbations, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

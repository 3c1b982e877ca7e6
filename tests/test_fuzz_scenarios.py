"""Generated scenario files, valid and mutated, through every command.

Every input must end in exit 0, 2 or 3 (or 1, for `verify` with a failed
check), never in a traceback or a hang, and running a command again on the
`scenario.normalized.json` it wrote must reproduce each of its artifacts byte
for byte.  Each command runs in-process through `cli.main`, under a SIGALRM
time box.

The physics draws keep the work of a run bounded: the pivot's rate times the
horizon, |da/dt| (1 + mu) / l * horizon, stays below RATE_TIMES_HORIZON, and
no mutation gives the horizon or the start time an extreme magnitude.  A
mutation may give a rate-bearing field one, and the step cap `max_dt` is
drawn at extremes too: past the float range, below the spacing of doubles,
or just inside or just outside the step budget.  Those runs end through the
budget, which the commands run under lowered to FUZZ_STEPS, so that one that
exhausts it takes a fraction of a second rather than several; any budget
allows the same exits.  A sine pivot whose period lies at or below the
spacing of doubles near the times of the run, such as omega 1e17 or 1e308,
is rejected when the file is loaded, with exit 2 (`test_budgets.py`).  The
pointwise checks of `verify` integrate nothing, so they run on every other
extreme magnitude.
"""

import contextlib
import io
import json
import math
import os
import signal
import tempfile

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from drypend import cli, integrator
from drypend.model import pivot_from_dict

RATE_TIMES_HORIZON = 20000.0
TIME_BOX_S = 10
FUZZ_STEPS = 20_000
COMMANDS = ("simulate", "shoot", "sweep", "verify")

# fields whose extreme magnitudes make a long window or a steep pivot law
WINDOW = {"horizon", "t0"}
RATE = {"l", "mu", "amp", "omega", "coeffs", "times", "values"}
EXTREME = [1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308]
INVALID = [None, True, "x", "1.5", "inf", "nan", [], {}, math.nan, math.inf, -math.inf, 0, -1, 10 ** 400]


def reals(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def numbers(lo, hi):
    """Floats, or integers (which stay integers in the normalized scenario)."""
    return st.one_of(reals(lo, hi), st.integers(math.ceil(lo), math.floor(hi)))


@st.composite
def pivots(draw, horizon):
    kind = draw(st.sampled_from(["constant", "sine", "poly", "table"]))
    if kind == "constant":
        return {"kind": kind, "a": draw(numbers(-20, 20))}
    if kind == "sine":
        spec = {"kind": kind, "amp": draw(numbers(-20, 20)), "omega": draw(numbers(0, 50))}
        if draw(st.booleans()):
            spec["phase"] = draw(reals(-4, 4))
        return spec
    if kind == "poly":
        coeffs = draw(st.lists(numbers(-3, 3), min_size=1, max_size=3))
        return {"kind": kind, "coeffs": coeffs, "t_max": draw(reals(horizon, 2 * horizon + 1))}
    n = draw(st.integers(2, 5))
    times = sorted(draw(st.lists(reals(-1, 6), min_size=n, max_size=n, unique=True)))
    assume(min(b - a for a, b in zip(times, times[1:])) >= 0.01)
    return {"kind": kind, "times": times, "values": draw(st.lists(numbers(-20, 20), min_size=n, max_size=n))}


@st.composite
def curves(draw):
    if draw(st.booleans()):
        sigma = {"kind": "line", "shift": draw(reals(-1, 1))}
    else:
        qs = [-0.1, 1.0, 2.0, 3.3]
        sigma = {"kind": "table", "q": qs, "p": [q - 1.6 + draw(reals(-0.3, 0.3)) for q in qs]}
    initial = {"kind": "curve", "sigma": sigma}
    if draw(st.booleans()):
        initial["family_shifts"] = draw(st.lists(reals(-0.4, 0.4), min_size=1, max_size=2, unique=True))
    return initial


@st.composite
def physics(draw):
    """A valid scenario whose pivot's rate times horizon is bounded."""
    horizon = draw(reals(0.3, 2.5))
    mu = draw(st.sampled_from([0.0, 0.2, 0.6]))
    params = {"l": draw(numbers(0.3, 3)), "g": draw(numbers(1, 20)), "mu": mu}
    pivot = draw(pivots(horizon))
    rate = pivot_from_dict(pivot).lipschitz_bound
    assume(rate * (1 + params["mu"]) / params["l"] * horizon <= RATE_TIMES_HORIZON)
    if draw(st.booleans()):
        initial = {"kind": "point", "q0": draw(numbers(-1, 4)), "p0": draw(reals(-3, 3))}
        if draw(st.booleans()):
            initial["t0"] = draw(reals(0, horizon / 2))
    else:
        initial = draw(curves())
    scenario = {"params": params, "pivot": pivot, "initial": initial, "horizon": horizon}
    if draw(st.booleans()):
        # the step cap: the usual, past the float range, below the spacing of
        # doubles, or just inside and just outside the step budget
        budget = horizon / cli._MAX_STEPS
        max_dt = draw(st.sampled_from([0.1, 1e308, 5e-324, budget * (1 + 1e-9), budget * (1 - 1e-9)]))
        scenario["tolerances"] = {
            "rel_tol": 1e-8, "abs_tol": 1e-10, "event_tol": 1e-9, "stick_band": 1e-7, "max_dt": max_dt
        }
    if draw(st.booleans()):
        scenario["mode"] = "strict"
    if draw(st.booleans()):
        scenario["name"] = draw(st.text(max_size=6))
    return scenario


def _leaves(node, path=()):
    """Every (path, key) of the scenario tree: object members and list items."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))


@st.composite
def mutated(draw, scenario):
    """`scenario` with one member deleted, emptied, repeated or set to a bad value."""
    scenario = json.loads(json.dumps(scenario))
    path, key = draw(st.sampled_from(list(_leaves(scenario))))
    parent = scenario
    for step in path:
        parent = parent[step]
    name = key if isinstance(key, str) else path[-1]
    values = INVALID + ([] if name in WINDOW else EXTREME)
    action = draw(st.sampled_from(["delete", "set", "set", "set", "repeat"]))
    if action == "delete":
        del parent[key]
    elif action == "repeat" and isinstance(parent[key], list) and parent[key]:
        parent[key] = [parent[key][0]] * len(parent[key])  # degenerate tables and families
    else:
        parent[key] = draw(st.sampled_from(values))
    return scenario


@st.composite
def scenarios(draw):
    scenario = draw(physics())
    return draw(mutated(scenario)) if draw(st.booleans()) else scenario


def _time_box(signum, frame):
    raise TimeoutError(f"a command ran past the {TIME_BOX_S} s time box")


def run(argv):
    """(exit code, stderr) of one in-process CLI call under the time box, with
    the step budget lowered to FUZZ_STEPS."""
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _time_box)
    signal.alarm(TIME_BOX_S)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(integrator, "_MAX_STEPS", FUZZ_STEPS)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return rc, err.getvalue()


def artifacts(out_dir):
    if not os.path.isdir(out_dir):
        return {}
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


POINT = {"params": {"mu": 0.3}, "initial": {"kind": "point", "q0": 1, "p0": 0.2}, "horizon": 2}
SINE = {"kind": "sine", "amp": 2.0, "omega": 1.0}


def point(**overrides):
    return {**POINT, "pivot": SINE, **overrides}


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(scenario=scenarios())
# rules that tie two fields together
@example(scenario=point(initial={"kind": "point", "q0": 1, "p0": 0.2, "t0": 2}))
@example(scenario=point(initial={"kind": "curve", "family_shifts": []}))
@example(
    scenario=point(
        pivot={"kind": "poly", "coeffs": [0, 1], "t_max": 10}, initial={"kind": "point", "q0": 1, "t0": -1}
    )
)
@example(scenario=point(initial={"kind": "point", "q0": 1, "p0": 0.2, "t0": 5}, horizon=7))
@example(scenario=point(initial={"kind": "curve", "family_shifts": [0.1, 0.1]}))
# fields past the float range, and an integration that cannot step
@example(scenario=point(params={"g": 1e308}))
@example(scenario=point(params={"l": 1e-308}))
@example(scenario=point(params={"mu": 1e308}))
@example(scenario=point(pivot={"kind": "sine", "amp": 1e308, "omega": 1}))
@example(scenario=point(tolerances={"stick_band": 1e300}))
@example(scenario=point(pivot={"kind": "table", "times": [0, 1e-300], "values": [0, 1e300]}))
@example(scenario=point(pivot={"kind": "poly", "coeffs": [1e308, 1e308]}))
@example(scenario=point(tolerances={"rel_tol": 1e300, "abs_tol": 1e300, "stick_band": 1e302}))
@example(scenario=point(params={"mu": 0, "l": 1e200}, pivot={"kind": "constant", "a": 0}))  # energy drift
@example(scenario=point(initial={"kind": "point", "q0": 1e308, "p0": 0.2}))  # a flat phase portrait
@example(scenario=point(pivot={"kind": ["sine"]}))
# laws faster than the spacing of doubles, at rest at the apex and on a
# curve, which the loader rejects
@example(
    scenario=point(
        params={"mu": 0.5},
        pivot={"kind": "sine", "amp": 6, "omega": 1e17},
        initial={"kind": "point", "q0": 1.5707963267948966, "p0": 0},
    )
)
@example(scenario=point(pivot={"kind": "sine", "amp": 2, "omega": 1e308}))
@example(scenario=point(pivot={"kind": "sine", "amp": 6, "omega": 1e17}, initial={"kind": "curve"}))
# a step cap just inside the step budget
@example(scenario=point(tolerances={"max_dt": 2 / 99_999}))
# releases located with an event_tol below the spacing of doubles
@example(
    scenario=point(
        pivot={"kind": "sine", "amp": 6, "omega": 1},
        initial={"kind": "point", "q0": 1.5707963267948966},
        horizon=4,
        tolerances={"event_tol": 5e-324},
    )
)
def test_every_command_exits_cleanly_and_reruns_identically(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        for command in COMMANDS:
            out = os.path.join(tmp, command)
            flags = ["--svg"] if command == "simulate" else []
            rc, err = run([command, path, "--out", out, *flags])
            allowed = (0, 1, 2, 3) if command == "verify" else (0, 2, 3)
            assert rc in allowed, (command, rc, err)
            assert "Traceback" not in err, err
            written = artifacts(out)
            if rc == 2:  # rejected: nothing written
                assert written == {}, command
                continue
            again = os.path.join(tmp, command + "-again")
            normalized = os.path.join(out, "scenario.normalized.json")
            rerun_rc, rerun_err = run([command, normalized, "--out", again, *flags])
            assert (rerun_rc, rerun_err) == (rc, err), command
            assert artifacts(again) == written, command


@st.composite
def steep(draw):
    """A valid scenario with one pivot or params field set to an extreme
    magnitude, which `test_every_command_exits_cleanly_and_reruns_identically`
    draws only now and then."""
    scenario = draw(physics())
    leaves = [
        (path, key)
        for path, key in _leaves(scenario)
        if path[:1] in (("pivot",), ("params",)) and (key if isinstance(key, str) else path[-1]) in RATE
    ]
    path, key = draw(st.sampled_from(leaves))
    parent = scenario
    for step in path:
        parent = parent[step]
    parent[key] = draw(st.sampled_from(EXTREME))
    return scenario


POINTWISE = "jump,lipschitz,semicontinuity"


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(scenario=steep())
@example(scenario=point(pivot={"kind": "sine", "amp": 2.0, "omega": 1e308}))
@example(scenario=point(pivot={"kind": "sine", "amp": 1.0, "omega": 1e17}))
@example(scenario=point(params={"g": 1e308}, pivot={"kind": "sine", "amp": 1e308, "omega": 1}))
@example(scenario=point(pivot={"kind": "table", "times": [0, 5e-324], "values": [0, 1e308]}))
def test_pointwise_checks_exit_cleanly_on_steep_laws(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        out = os.path.join(tmp, "verify")
        rc, err = run(["verify", path, "--out", out, "--checks", POINTWISE])
        assert rc in (0, 1, 2), (rc, err)
        assert "Traceback" not in err, err
        written = artifacts(out)
        if rc == 2:
            assert written == {}
            return
        for report in json.loads(written["verify.json"])["reports"]:
            # a check passes on numbers: a NaN margin is a failed comparison
            assert not (report["passed"] and math.isnan(report["margin"])), report
        again = os.path.join(tmp, "verify-again")
        normalized = os.path.join(out, "scenario.normalized.json")
        assert run(["verify", normalized, "--out", again, "--checks", POINTWISE]) == (rc, err)
        assert artifacts(again) == written

"""Seeded scenario generators for the three benchmark workloads.

An op is one CLI command on one scenario file.  A round is the fixed list of
ops a workload repeats; the seed decides the scenarios of the round and
nothing else, so two runs with one seed time exactly the same work.

The generated part of a round is a Latin hypercube: op i of n takes each
parameter from its own stratum of width 1/n.  Which stratum of each parameter
goes to which op is fixed for the workload; the seed only picks a design, one
of DESIGNS sets of positions inside the strata.  Every design thus spans the
same parameter ranges with the same mix of cheap and dear ops, which keeps the
per-run medians steady from seed to seed, and the finite set of designs can
be screened in full: `python3 perfbench/screen.py` runs and checks every
generated op of every design and lists those that fail.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

G = 9.8
DESIGNS = 16
HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIO_DIR = os.path.join(HERE, "scenarios")

# Copies of the repository's shipped scenarios/ files, frozen here so that a
# commit which edits scenarios/ is still measured on the same inputs as its
# parent.  Each runs in the workload of every command that accepts it.
SHIPPED_POINT = ("stuck_equilibrium.json", "swing_capture.json")
SHIPPED_CURVE = (
    "family_sweep.json",
    "frictionless_forced.json",
    "shoot_default.json",
    "shoot_forced_strict.json",
)
# A fixed point scenario on which `verify` fails its continuous-dependence
# check (exit 1): at the default tolerances the solver error exceeds the
# effect of the smallest delta, 1e-10.  It runs in every round of every seed,
# so the failed share of a run does not depend on the seed.
DEPENDENCE_FAULT = "dependence_fault.json"
# Generated verify scenarios state tolerances 100x tighter than the defaults,
# at which continuous_dependence passes on all but a few of them.
RESOLVING_TOL = {"rel_tol": 1e-11, "abs_tol": 1e-13, "event_tol": 1e-12, "stick_band": 1e-10}
# Generated ops that fail or fail their checks, as (design, op index), found
# by screen.py.  An op that fails on some seeds only would make the failed
# share depend on the seed, so each is replaced by the op of the same strata
# from the first reserve design where that op passes.  CHANGES.md names the
# faults behind them.
EXCLUDED = {
    "simulate-stickslip": frozenset(),
    "shoot-bisect": frozenset(),
    "verify-checks": frozenset({(1, 19), (6, 0), (8, 0)}),
}
RESERVE = range(DESIGNS, DESIGNS + 4)


@dataclass(frozen=True)
class Op:
    """One CLI command on one scenario: what the benchmark runs and checks."""

    name: str
    command: str
    scenario: dict
    flags: tuple[str, ...] = ()
    expect_fail: bool = False


def _shipped(name: str) -> dict:
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        return json.load(fh)


def _lhs(
    key: str, design: int, n: int, dims: int, jitter: float = 1.0
) -> tuple[list[list[float]], random.Random]:
    """Latin hypercube of n points in [0, 1)^dims and the design's generator.

    The stratum layout depends on `key` alone; `design` moves each point
    inside the middle `jitter` share of its strata.
    """
    layout = random.Random(f"{key}:layout")
    perms = [layout.sample(range(n), n) for _ in range(dims)]
    rng = random.Random(f"{key}:{design}")
    offset = 0.5 * (1.0 - jitter)
    return [[(perm[i] + offset + jitter * rng.random()) / n for perm in perms] for i in range(n)], rng


def _lerp(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def _log_lerp(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _table_pivot(amp: float, omega: float, phase: float, horizon: float, rng: random.Random) -> dict:
    """A sampled sine with 10% knot noise, knots every 0.25 s."""
    n = int(math.ceil(horizon / 0.25)) + 2
    times = [0.25 * k for k in range(n)]
    values = [
        amp * math.sin(omega * t + phase) * (1.0 + 0.1 * (2.0 * rng.random() - 1.0)) for t in times
    ]
    return {"kind": "table", "times": times, "values": values}


def _sine(amp: float, u_om: float, u_ph: float) -> dict:
    return {"kind": "sine", "amp": amp, "omega": _lerp(0.5, 2.5, u_om), "phase": 2.0 * math.pi * u_ph}


def _simulate_generated(design: int) -> list[Op]:
    """Point scenarios under strong forcing: many stick/release cycles."""
    points, rng = _lhs("simulate-stickslip", design, 40, 7)
    ops = []
    for i, (u_mu, u_amp, u_om, u_ph, u_q, u_p, u_h) in enumerate(points):
        mu = _lerp(0.2, 0.6, u_mu)
        amp = mu * G * _lerp(2.0, 4.0, u_amp)  # |a| well above mu g
        horizon = _log_lerp(20.0, 200.0, u_h)
        if i % 2 == 0:
            pivot = _sine(amp, u_om, u_ph)
        else:
            pivot = _table_pivot(amp, _lerp(0.5, 2.5, u_om), 2.0 * math.pi * u_ph, horizon, rng)
        scen = {
            "name": f"stickslip-{i}",
            "params": {"mu": mu},
            "pivot": pivot,
            "initial": {"kind": "point", "q0": _lerp(0.3, 2.8, u_q), "p0": _lerp(-2.0, 2.0, u_p)},
            "horizon": horizon,
        }
        ops.append(Op(scen["name"], "simulate", scen, ("--svg",) if i % 3 == 0 else ()))
    return ops


def _shoot_generated(design: int) -> list[Op]:
    """Curve scenarios that bisect deep: mostly frictionless, some sticking."""
    ops = []
    # frictionless single curves bisect to the 1e-12 rad floor (exit 3): a
    # horizon above ~13 s outlasts the exit time of every midpoint.  With the
    # two frictionless_forced.json ops they are over half the round, so the
    # median op is one of them and not one of the cheap ops.
    points, _ = _lhs("shoot-bisect:frictionless", design, 12, 5)
    for i, (u_amp, u_om, u_ph, u_s, u_h) in enumerate(points):
        scen = {
            "name": f"frictionless-{i}",
            "params": {"mu": 0.0},
            "pivot": _sine(_lerp(0.5, 3.0, u_amp), u_om, u_ph),
            "initial": {"kind": "curve", "sigma": {"kind": "line", "shift": _lerp(-0.4, 0.4, u_s)}},
            "horizon": _lerp(13.0, 17.0, u_h),
        }
        ops.append(Op(scen["name"], "shoot", scen))
    # friction with strong forcing: ends on a witness, often a sticking one
    points, _ = _lhs("shoot-bisect:friction", design, 2, 6)
    for i, (u_mu, u_amp, u_om, u_ph, u_s, u_h) in enumerate(points):
        scen = {
            "name": f"friction-{i}",
            "params": {"mu": _lerp(0.45, 0.55, u_mu)},
            "pivot": _sine(_lerp(8.0, 12.0, u_amp), u_om, u_ph),
            "initial": {"kind": "curve", "sigma": {"kind": "line", "shift": _lerp(-0.3, 0.3, u_s)}},
            "horizon": _lerp(6.0, 12.0, u_h),
        }
        ops.append(Op(scen["name"], "shoot", scen))
    # two-curve frictionless families: family_sweep's pool runs two threads
    points, _ = _lhs("shoot-bisect:family", design, 2, 5)
    for i, (u_amp, u_om, u_ph, u_s, u_h) in enumerate(points):
        s = _lerp(0.05, 0.3, u_s)
        scen = {
            "name": f"family-{i}",
            "params": {"mu": 0.0},
            "pivot": _sine(_lerp(0.5, 3.0, u_amp), u_om, u_ph),
            "initial": {"kind": "curve", "sigma": {"kind": "line"}, "family_shifts": [-s, s]},
            "horizon": _lerp(3.0, 5.0, u_h),
        }
        ops.append(Op(scen["name"], "shoot", scen))
    return ops


def _verify_pivot(kind: str, u_amp: float, u_om: float, u_ph: float) -> dict:
    amp = _lerp(0.5, 8.0, u_amp)
    if kind == "constant":
        return {"kind": "constant", "a": amp * (2.0 * u_ph - 1.0)}
    if kind == "sine":
        return _sine(amp, u_om, u_ph)
    if kind == "poly":
        # a quadratic with |a| <= amp on its window [0, 20]
        c1 = 0.5 * amp * (2.0 * u_om - 1.0) / 20.0
        c2 = -0.25 * amp * (2.0 * u_ph - 1.0) / 400.0
        return {"kind": "poly", "coeffs": [0.25 * amp, c1, c2], "t_max": 20.0}
    omega = _lerp(0.5, 2.5, u_om)
    times = [0.5 * k for k in range(41)]
    values = [amp * math.sin(omega * t + 2.0 * math.pi * u_ph) for t in times]
    return {"kind": "table", "times": times, "values": values}


def _verify_generated(design: int) -> list[Op]:
    """Point scenarios over all four pivot kinds, run through all checks."""
    # a verify op's cost can jump several-fold between neighbouring
    # parameters (an early stick or none), and one such jump next to the
    # round's median moved op_ms by 8% between designs; moves over the middle
    # 30% of each stratum make such jumps rarer
    points, _ = _lhs("verify-checks", design, 32, 7, jitter=0.3)
    kinds = ("constant", "sine", "poly", "table")
    ops = []
    for i, (u_mu, u_amp, u_om, u_ph, u_q, u_p, u_h) in enumerate(points):
        scen = {
            "name": f"verify-{i}",
            "params": {"mu": _lerp(0.0, 0.6, u_mu)},
            "pivot": _verify_pivot(kinds[i % 4], u_amp, u_om, u_ph),
            "initial": {"kind": "point", "q0": _lerp(0.3, 2.8, u_q), "p0": _lerp(-2.0, 2.0, u_p)},
            "horizon": _lerp(3.0, 5.0, u_h),
            "tolerances": RESOLVING_TOL,
        }
        ops.append(Op(scen["name"], "verify", scen))
    return ops


GENERATED = {
    "simulate-stickslip": _simulate_generated,
    "shoot-bisect": _shoot_generated,
    "verify-checks": _verify_generated,
}


def _fixed(workload: str) -> list[Op]:
    """The ops every round of `workload` has, whatever the seed."""
    if workload == "simulate-stickslip":
        return [Op(name, "simulate", _shipped(name), ("--svg",)) for name in SHIPPED_POINT]
    if workload == "shoot-bisect":
        return [Op(name, cmd, _shipped(name)) for cmd in ("shoot", "sweep") for name in SHIPPED_CURVE]
    ops = [Op(name, "verify", _shipped(name)) for name in SHIPPED_POINT + SHIPPED_CURVE]
    return ops + [Op(DEPENDENCE_FAULT, "verify", _shipped(DEPENDENCE_FAULT), expect_fail=True)]


def round_ops(workload: str, seed: int) -> list[Op]:
    """The ops of one round of `workload` for `seed`."""
    design = seed % DESIGNS
    excluded = EXCLUDED[workload]
    ops = GENERATED[workload](design)
    for i in range(len(ops)):
        if (design, i) in excluded:
            reserve = next(r for r in RESERVE if (r, i) not in excluded)
            ops[i] = GENERATED[workload](reserve)[i]
    return ops + _fixed(workload)

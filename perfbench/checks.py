"""Independent checks of the artifacts one CLI op writes.

Nothing here imports drypend.  The pivot laws, the slipping field, the
stiction inequality and the velocity trap are written out again from the
paper's equations, and trajectories are re-integrated with scipy's DOP853,
which shares no stepping code with drypend's Dormand-Prince 5(4).

Every check returns a list of error strings; an empty list means the
artifacts passed.  `selfcheck.py` shows that each check fails on a
deliberately perturbed artifact.
"""

from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
from scipy.integrate import solve_ivp

# drypend's documented scenario defaults
DEFAULT_PARAMS = {"l": 1.0, "m": 1.0, "g": 9.8, "mu": 0.5}
DEFAULT_TOL = {"rel_tol": 1e-9, "abs_tol": 1e-11, "event_tol": 1e-10, "stick_band": 1e-8, "max_dt": 0.05}
DEFAULT_HORIZON = 50.0

WIDTH_FLOOR = 1e-12  # rad: the bisection stops below this bracket width
ORACLE_DELTA = 1e-9  # rad: offset outside the final bracket for the exit oracle
STRETCH_TOL = 1e-6  # |state gap| allowed between drypend and DOP853 at an event


class Scen:
    """A scenario dict with drypend's defaults filled in."""

    def __init__(self, raw: dict):
        self.params = {**DEFAULT_PARAMS, **raw.get("params", {})}
        self.pivot = raw.get("pivot", {"kind": "constant", "a": 0.0})
        self.initial = raw["initial"]
        self.horizon = float(raw.get("horizon", DEFAULT_HORIZON))
        self.tol = {**DEFAULT_TOL, **raw.get("tolerances", {})}
        self.l, self.g, self.mu = self.params["l"], self.params["g"], self.params["mu"]

    def accel(self, t):
        """Pivot acceleration a(t) at a time or an array of times."""
        p = self.pivot
        kind = p["kind"]
        if kind == "constant":
            return np.full_like(np.asarray(t, dtype=float), p["a"]) if np.ndim(t) else float(p["a"])
        if kind == "sine":
            return p["amp"] * np.sin(p["omega"] * np.asarray(t, dtype=float) + p.get("phase", 0.0))
        if kind == "poly":
            return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), p["coeffs"])
        if kind == "table":
            return np.interp(t, p["times"], p["values"])
        raise ValueError(f"unknown pivot kind {kind!r}")

    def sup_accel(self, t0: float, t1: float) -> float:
        """max |a| on [t0, t1] from a fine grid plus the table knots."""
        ts = np.linspace(t0, t1, 100_001)
        if self.pivot["kind"] == "table":
            knots = np.asarray(self.pivot["times"], dtype=float)
            ts = np.concatenate([ts, knots[(knots >= t0) & (knots <= t1)]])
        return float(np.max(np.abs(self.accel(ts))))

    def slip_rhs(self, branch: float):
        """Slipping field with the friction sign frozen to `branch`."""
        l, g, mu = self.l, self.g, self.mu

        def f(t, y):
            q, p = y
            a = float(self.accel(t))
            normal = abs(a * math.cos(q) - l * p * p + g * math.sin(q))
            return [p, (a * math.sin(q) - mu * normal * branch - g * math.cos(q)) / l]

        return f

    def stiction_margin(self, q, t):
        """mu |a cos q + g sin q| - |a sin q - g cos q|; >= 0 iff stiction holds."""
        a = self.accel(t)
        return self.mu * np.abs(a * np.cos(q) + self.g * np.sin(q)) - np.abs(
            a * np.sin(q) - self.g * np.cos(q)
        )

    def sigma(self, q: float, shift: float = 0.0) -> float:
        spec = self.initial.get("sigma", {"kind": "line"})
        if spec["kind"] == "line":
            return q - math.pi / 2 + spec.get("shift", 0.0) + shift
        return float(np.interp(q, spec["q"], [v + shift for v in spec["p"]]))


def _load_json(out_dir: str, name: str):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _read_csv(path: str):
    with open(path) as fh:
        header = fh.readline().strip()
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    t = np.array([float(r[0]) for r in rows])
    q = np.array([float(r[1]) for r in rows])
    p = np.array([float(r[2]) for r in rows])
    mode = [r[3] for r in rows]
    return header, t, q, p, mode


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# --- simulate -------------------------------------------------------------


def _stretches(t, p, mode, band):
    """(start, end) row indices of slipping stretches that start on a
    recorded state and end at the next event or the horizon."""
    n = len(t)
    starts = [0] if mode[0] == "slip" and p[0] != 0.0 else []
    # a re-seeded row repeats the event time with |p| = stick_band / 2
    starts += [
        i for i in range(1, n) if mode[i] == "slip" and t[i] == t[i - 1] and abs(p[i]) == band / 2
    ]
    out = []
    for s in starts:
        e = s + 1
        while e < n and mode[e] == "slip" and t[e] != t[e - 1]:
            e += 1
        # e is the first row after the stretch (or n).  A stick found as a
        # root of p is written straight as the projected stuck row e; a
        # crossing or a stick-band entry first writes its slipping row e-1.
        end = e if e < n and mode[e] == "stuck" and t[e] != t[e - 1] else e - 1
        if end > s:
            out.append((s, end))
    return out


def check_simulate(raw: dict, out_dir: str, svg: bool) -> list[str]:
    sc = Scen(raw)
    errs = []
    header, t, q, p, mode = _read_csv(os.path.join(out_dir, "trajectory.csv"))
    events = _load_json(out_dir, "events.json")["events"]
    if header != "t,q,p,mode":
        errs.append(f"csv header {header!r}")
    if np.any(np.diff(t) < 0):
        errs.append("csv rows are not time-ordered")
    if not _close(t[-1], sc.horizon, 1e-12):
        errs.append(f"csv ends at t = {float(t[-1])!r}, horizon {sc.horizon!r}")
    if q[0] != sc.initial["q0"] or t[0] != sc.initial.get("t0", 0.0):
        errs.append("csv does not start at the initial condition")
    stuck = np.array([m == "stuck" for m in mode])
    if set(mode) - {"slip", "stuck"}:
        errs.append(f"unknown modes {set(mode) - {'slip', 'stuck'}}")
    if np.any(p[stuck] != 0.0):
        errs.append("stuck rows with p != 0")
    if np.any(stuck):
        # the release row sits one event_tol past the root of the margin
        slack = 1e-7 * (sc.g + sc.sup_accel(0.0, sc.horizon))
        worst = float(np.min(sc.stiction_margin(q[stuck], t[stuck])))
        if worst < -slack:
            errs.append(f"stiction inequality fails on a stuck row by {-worst:.3e}")
    if sc.mu > 0:
        cap = math.sqrt((sc.g + sc.sup_accel(t[0], sc.horizon)) * (1 + 1 / sc.mu) / sc.l)
        below = np.abs(p) <= cap
        if np.any(below):
            first = int(np.argmax(below))
            if np.any(np.abs(p[first:]) > cap + 1e-6):
                errs.append(f"velocity trap violated: |p| re-exceeds p* = {cap:.6g}")
    kinds = {e["kind"] for e in events}
    if not kinds <= {"crossing", "stick_entry", "stick_release", "horizon"}:
        errs.append(f"unexpected event kinds {kinds}")
    if not events or events[-1]["kind"] != "horizon":
        errs.append("events do not end with the horizon")
    # a start on p = 0 that sticks is an entry on the first row
    n_stuck_entries = (mode[0] == "stuck") + sum(
        1 for i in range(1, len(mode)) if mode[i] == "stuck" and mode[i - 1] == "slip"
    )
    if n_stuck_entries != sum(1 for e in events if e["kind"] == "stick_entry"):
        errs.append("stick entries in the csv and events.json disagree")
    errs += _check_stretches(sc, t, q, p, mode)
    if svg:
        errs += _check_svg(os.path.join(out_dir, "phase.svg"), len(t))
    return errs


def _check_stretches(sc: Scen, t, q, p, mode) -> list[str]:
    band = sc.tol["stick_band"]
    found = _stretches(t, p, mode, band)
    if not found:
        return []
    picks = sorted({found[0], found[len(found) // 2], found[-1]})
    errs = []
    for s, e in picks:
        branch = 1.0 if p[s] > 0 else -1.0
        sol = solve_ivp(
            sc.slip_rhs(branch),
            (t[s], t[e]),
            [q[s], p[s]],
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
        )
        if not sol.success:
            errs.append(f"oracle failed on the stretch from t = {float(t[s])!r}: {sol.message}")
            continue
        gap = max(abs(sol.y[0, -1] - q[e]), abs(sol.y[1, -1] - p[e]))
        if gap > STRETCH_TOL * (1.0 + abs(q[e])):
            errs.append(
                f"stretch [{float(t[s])!r}, {float(t[e])!r}] ends {gap:.3e} away from the DOP853 state"
            )
    return errs


def _check_svg(path: str, n_samples: int) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"phase.svg does not parse: {exc}"]
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    points = sum(len(pl.get("points", "").split()) for pl in lines)
    # one point per sample plus the shared point at every mode change
    if not lines or points < n_samples:
        return [f"phase.svg has {points} polyline points for {n_samples} samples"]
    return []


# --- shoot / sweep ---------------------------------------------------------


def _exit_side(sc: Scen, q0: float, p0: float):
    """Which horizontal the frictionless trajectory reaches first, or None."""

    def low(t, y):
        return y[0]

    def high(t, y):
        return y[0] - math.pi

    low.terminal = high.terminal = True
    low.direction, high.direction = -1, 1
    sol = solve_ivp(
        sc.slip_rhs(0.0),
        (0.0, sc.horizon),
        [q0, p0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        events=(low, high),
    )
    if sol.t_events[0].size:
        return "low"
    if sol.t_events[1].size:
        return "high"
    return None


def _check_bisection(sc: Scen, res: dict, shift: float) -> list[str]:
    errs = []
    q_lo, q_hi = res["bracket"]
    k = res["iterations"]
    w = res["witness"]
    if res["inconclusive"] != (w is None):
        errs.append("inconclusive flag disagrees with the witness")
    # a witness stops the search before its bracket is halved
    halvings = k if w is None else k - 1
    width = math.pi * 2.0 ** -halvings
    if not _close(q_hi - q_lo, width, 1e-3, 4 * math.ulp(q_hi)):
        errs.append(f"bracket width {q_hi - q_lo!r} after {k} iterations, expected {width!r}")
    if w is None:
        if q_hi - q_lo > WIDTH_FLOOR:
            errs.append(f"inconclusive bracket {q_hi - q_lo!r} wider than the floor")
        if sc.mu == 0.0:
            lo = q_lo - ORACLE_DELTA
            hi = q_hi + ORACLE_DELTA
            side_lo = _exit_side(sc, lo, sc.sigma(lo, shift))
            side_hi = _exit_side(sc, hi, sc.sigma(hi, shift))
            if (side_lo, side_hi) != ("low", "high"):
                errs.append(f"DOP853 exits ({side_lo}, {side_hi}) around the final bracket")
        return errs
    if w["q0"] != 0.5 * (q_lo + q_hi):
        errs.append("witness q0 is not the bracket midpoint")
    if not _close(w["p0"], sc.sigma(w["q0"], shift), 1e-12, 1e-15):
        errs.append(f"witness p0 {w['p0']!r} != sigma(q0) {sc.sigma(w['q0'], shift)!r}")
    if w["outcome"] not in ("non_falling", "stuck_inside"):
        errs.append(f"witness outcome {w['outcome']!r}")
    if w.get("min_boundary_distance") is not None and w["min_boundary_distance"] < 0.0:
        errs.append("witness trajectory leaves [0, pi]")
    if w.get("stuck_q") is not None:
        margin = float(sc.stiction_margin(w["stuck_q"], w["horizon"]))
        if margin < -1e-9 * (sc.g + abs(float(sc.accel(w["horizon"])))):
            errs.append(f"stuck witness at q = {w['stuck_q']!r} violates stiction by {-margin:.3e}")
    return errs


def check_shoot(raw: dict, out_dir: str, rc: int, sweep: bool) -> list[str]:
    """`shoot` on one curve writes witness.json; `sweep`, or `shoot` on a
    family, writes sweep.json with one entry per curve."""
    sc = Scen(raw)
    shifts = sc.initial.get("family_shifts", [0.0])
    if len(shifts) == 1 and not sweep:
        res = _load_json(out_dir, "witness.json")
        results = [(res, shifts[0])]
    else:
        results = list(zip(_load_json(out_dir, "sweep.json"), shifts))
    errs = []
    found = 0
    for res, shift in results:
        if "error" in res:
            errs.append(f"curve {res.get('curve')}: {res['error']}")
            continue
        found += res["witness"] is not None
        errs += _check_bisection(sc, res, shift)
    want_rc = 0 if found == len(results) else 3
    if rc != want_rc:
        errs.append(f"exit code {rc}, expected {want_rc}")
    return errs


# --- verify ------------------------------------------------------------------


def _slip_dp(sc: Scen, q, p, t):
    a = sc.accel(t)
    normal = np.abs(a * np.cos(q) - sc.l * p * p + sc.g * np.sin(q))
    return (a * np.sin(q) - sc.mu * normal * np.sign(p) - sc.g * np.cos(q)) / sc.l


def _check_report(sc: Scen, r: dict) -> list[str]:
    name, wc = r["name"], r["worst_case"]
    if name == "jump_inequality":
        a = float(sc.accel(wc["t"]))
        gap = 2.0 * sc.mu / sc.l * abs(a * math.cos(wc["q"]) + sc.g * math.sin(wc["q"]))
        if not _close(r["margin"], gap, 1e-9, 1e-12):
            return [f"jump margin {r['margin']!r} != closed form {gap!r}"]
    elif name == "one_sided_lipschitz":
        q1, p1, q2, p2, t = (wc[k] for k in ("q1", "p1", "q2", "p2", "t"))
        dq, dp = q1 - q2, p1 - p2
        # q' = p, so the q part of (x - y).(f(x) - f(y)) is dq * dp
        ratio = (dq * dp + dp * (_slip_dp(sc, q1, p1, t) - _slip_dp(sc, q2, p2, t))) / (
            dq * dq + dp * dp
        )
        if not _close(r["estimated_constant"], float(ratio), 1e-8, 1e-12):
            return [f"Lipschitz constant {r['estimated_constant']!r} != recomputed {float(ratio)!r}"]
        t1 = min(sc.horizon, 20.0)
        env = (1 + sc.mu) * (sc.sup_accel(0.0, t1) + sc.g) / sc.l
        l_est = math.sqrt(1 + env ** 2 + (8.0 * sc.mu) ** 2)
        if not _close(r["details"]["l_est"], l_est, 1e-6):
            return [f"Lipschitz bound {r['details']['l_est']!r} != closed form {l_est!r}"]
    elif name == "continuous_dependence":
        eps = r["details"]["epsilons"]
        if not all(eps[i + 1] <= 1.1 * eps[i] for i in range(len(eps) - 1)):
            return [f"epsilons {eps} do not shrink"]
    elif name == "upper_semicontinuity":
        q, t, p = wc["q"], wc["t"], wc["p"]
        a = float(sc.accel(t))
        drift = (a * math.sin(q) - sc.g * math.cos(q)) / sc.l
        bound = sc.mu / sc.l * abs(a * math.cos(q) + sc.g * math.sin(q))
        dp = float(_slip_dp(sc, q, p, t))
        beta = math.hypot(p, max(0.0, drift - bound - dp, dp - drift - bound))
        if not _close(wc["beta"], beta, 1e-8, 1e-15):
            return [f"semicontinuity beta {wc['beta']!r} != recomputed {beta!r}"]
    return []


CHECK_NAMES = ("jump_inequality", "one_sided_lipschitz", "continuous_dependence", "upper_semicontinuity")


def check_verify(raw: dict, out_dir: str, rc: int) -> list[str]:
    sc = Scen(raw)
    reports = _load_json(out_dir, "verify.json")["reports"]
    errs = []
    if tuple(r["name"] for r in reports) != CHECK_NAMES:
        errs.append(f"reports {[r['name'] for r in reports]}")
    for r in reports:
        if not r["passed"]:
            errs.append(f"{r['name']} did not pass")
        errs += _check_report(sc, r)
    if rc != 0:
        errs.append(f"exit code {rc}")
    return errs


def is_dependence_fault(out_dir: str, rc: int) -> bool:
    """The known fault: exit 1 with continuous_dependence the only failure."""
    if rc != 1:
        return False
    try:
        reports = _load_json(out_dir, "verify.json")["reports"]
    except OSError:
        return False
    return [r["name"] for r in reports if not r["passed"]] == ["continuous_dependence"]


def check_normalized(raw: dict, out_dir: str) -> list[str]:
    """scenario.normalized.json echoes the input with defaults filled in."""
    norm = _load_json(out_dir, "scenario.normalized.json")
    sc = Scen(raw)
    errs = []
    if norm["params"] != sc.params:
        errs.append("normalized params differ from the input")
    if norm["horizon"] != sc.horizon:
        errs.append("normalized horizon differs from the input")
    return errs


def check_op(command: str, raw: dict, out_dir: str, rc: int, flags) -> list[str]:
    if command == "simulate":
        errs = check_simulate(raw, out_dir, "--svg" in flags)
        if rc != 0:
            errs.append(f"exit code {rc}")
    elif command in ("shoot", "sweep"):
        errs = check_shoot(raw, out_dir, rc, sweep=command == "sweep")
    else:
        errs = check_verify(raw, out_dir, rc)
    return errs + check_normalized(raw, out_dir)

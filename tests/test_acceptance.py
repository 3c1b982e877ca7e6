"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines on the terminal.  Every tolerance is pinned here, not configurable.
"""

import math
import random
import time

import numpy as np

from drypend.model import (
    ConstantPivot,
    Params,
    PolyPivot,
    SinePivot,
    State,
    TablePivot,
    p_star,
    stiction_holds,
)
from drypend.integrator import Tolerances, integrate
from drypend.verification import (
    SampleGrid,
    check_continuous_dependence,
    check_jump_inequality,
    check_one_sided_lipschitz,
    smooth_lipschitz_bound,
)
from drypend.wazewski import (
    EXIT_HIGH,
    EXIT_LOW,
    NON_FALLING,
    SigmaCurve,
    bisect_curve,
    recheck_witness,
)

import refsim

G = 9.8


def report(criterion: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status} in {elapsed:.2f}s (budget {budget:.0f}s){extra}")
    assert ok, f"{criterion} failed: {detail}"
    assert elapsed < budget, f"{criterion} exceeded runtime budget: {elapsed:.2f}s"


def bisect_predicate(pred, lo, hi, tol=1e-12):
    """Boundary of a predicate that is False at lo and True at hi."""
    assert not pred(lo) and pred(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_c1_stiction_set_boundaries():
    t0 = time.time()
    params = Params(l=1.0, m=1.0, g=G, mu=0.5)
    pivot = ConstantPivot(0.0)

    def holds(q):
        return bool(stiction_holds(params, pivot, q, 0.0))

    left = bisect_predicate(holds, 0.5, 1.5, tol=1e-10)
    right = bisect_predicate(lambda q: not holds(q), 1.6, 2.8, tol=1e-10)
    lo_exact = math.atan(2.0)
    hi_exact = math.pi - math.atan(2.0)
    ok = abs(left - lo_exact) <= 1e-9 and abs(right - hi_exact) <= 1e-9
    # interior / exterior spot checks
    ok = ok and holds(1.5) and holds(lo_exact + 1e-7) and holds(hi_exact - 1e-7)
    ok = ok and not holds(lo_exact - 1e-7) and not holds(hi_exact + 1e-7)
    report(
        "C1 stiction set",
        ok,
        time.time() - t0,
        1.0,
        f"boundaries {left:.10f}/{right:.10f} vs atan2={lo_exact:.10f}",
    )


def test_c2_jump_inequality_grid():
    t0 = time.time()
    qs = np.linspace(-1.0, math.pi + 1.0, 200)
    ts = np.linspace(0.0, 20.0, 200)
    laws = [
        ConstantPivot(0.0),
        ConstantPivot(4.0),
        SinePivot(2.0, 1.3, 0.4),
        PolyPivot([1.0, 0.5, -0.04]),
        TablePivot([0, 2, 5, 9, 14, 20], [0.5, -2, 1.5, 0, -1, 2]),
    ]
    worst_gap = math.inf
    worst_disagree = 0.0
    ok = True
    for pivot in laws:
        for j in range(10):
            params = Params(l=0.5 + 0.15 * j, m=1.0, g=G, mu=0.1 + 0.2 * j)
            grid = SampleGrid(
                q_points=qs, p_points=np.array([1.0]), t_points=ts, pair_count=1
            )
            r = check_jump_inequality(params, pivot, grid)
            ok = ok and r.passed
            worst_gap = min(worst_gap, r.margin)
            worst_disagree = max(worst_disagree, r.details["max_relative_disagreement"])
    ok = ok and worst_gap >= 0.0 and worst_disagree <= 1e-12
    report(
        "C2 jump inequality",
        ok,
        time.time() - t0,
        10.0,
        f"min gap {worst_gap:.3e}, closed-form disagreement {worst_disagree:.2e}",
    )


def test_c3_one_sided_lipschitz_hundred_thousand_pairs():
    t0 = time.time()
    params = Params(l=1.0, m=1.0, g=G, mu=0.5)
    pivot = SinePivot(2.0, 1.0)
    grid = SampleGrid.for_scenario("acceptance-c3", pair_count=100_000)
    l_analytic = smooth_lipschitz_bound(params, pivot, p_max=4.0, t0=0.0, t1=20.0)
    r = check_one_sided_lipschitz(params, pivot, grid, l_analytic, fingerprint="acceptance-c3")
    ok = r.passed and r.details["violations"] == 0 and r.details["pairs"] == 100_000
    report(
        "C3 one-sided Lipschitz",
        ok,
        time.time() - t0,
        30.0,
        f"constant {l_analytic:.3f}, smallest sufficient {r.estimated_constant:.3f}",
    )


def test_c4_right_uniqueness_surrogate():
    t0 = time.time()
    rng = random.Random(20260810)
    tol = Tolerances(rel_tol=1e-12, abs_tol=1e-11, event_tol=1e-13, stick_band=1e-7)
    grid = list(np.linspace(0.0, 20.0, 401))
    worst = 0.0
    ok = True
    for _ in range(20):
        mu = rng.uniform(0.5, 1.4)
        l = rng.uniform(0.7, 1.5)
        params = Params(l=l, m=1.0, g=G, mu=mu)
        if rng.random() < 0.5:
            pivot = ConstantPivot(rng.uniform(-0.8, 0.8))
        else:
            pivot = SinePivot(rng.uniform(0.1, 0.6), rng.uniform(0.5, 2.0), rng.uniform(0, 3))
        ic = State(q=rng.uniform(1.25, 1.95), p=rng.uniform(-0.25, 0.25), t=0.0)
        runs = []
        for h0 in (1e-3, 1e-5):
            traj = integrate(ic, params, pivot, 20.0, tol, record_at=grid, initial_dt=h0)
            runs.append(np.array([(s.q, s.p) for s in traj.recorded]))
        diff = float(np.max(np.hypot(*(runs[0] - runs[1]).T)))
        worst = max(worst, diff)
        ok = ok and diff <= 10 * tol.abs_tol
    report(
        "C4 right-uniqueness",
        ok,
        time.time() - t0,
        60.0,
        f"worst sup-norm {worst:.3e} vs bound {10 * tol.abs_tol:.1e}",
    )


def test_c5_continuous_dependence_growth():
    t0 = time.time()
    params = Params(l=1.0, m=1.0, g=G, mu=0.0)
    pivot = ConstantPivot(0.0)
    tol = Tolerances(rel_tol=1e-12, abs_tol=1e-14, event_tol=1e-12, stick_band=1e-7)
    deltas = [10.0 ** -k for k in range(6, 13)]
    r = check_continuous_dependence(
        params, pivot, State(q=math.pi / 2, p=0.0, t=0.0), 1.0, deltas, tol
    )
    growth_bound = math.exp(math.sqrt(G))
    ratios = r.details["growth_ratios"]
    eps = r.details["epsilons"]
    in_band = all(growth_bound / 2 <= ratio <= growth_bound * 2 for ratio in ratios)
    decreasing = all(b <= a * 1.10 for a, b in zip(eps, eps[1:]))
    ok = r.passed and in_band and decreasing
    report(
        "C5 continuous dependence",
        ok,
        time.time() - t0,
        60.0,
        f"eps/delta in [{min(ratios):.1f}, {max(ratios):.1f}] vs e^sqrt(g/l)={growth_bound:.1f} +/- 2x",
    )


def test_c6_escape_trap():
    t0 = time.time()
    rng = random.Random(1618)
    tol = Tolerances()
    ok = True
    for _ in range(10):
        mu = rng.uniform(0.3, 1.5)
        l = rng.uniform(0.6, 1.8)
        params = Params(l=l, m=1.0, g=G, mu=mu)
        if rng.random() < 0.5:
            pivot = ConstantPivot(rng.uniform(-2, 2))
        else:
            pivot = SinePivot(rng.uniform(0, 2), rng.uniform(0.5, 2.5), rng.uniform(0, 3))
        cap = p_star(params, pivot, 0.0, 10.0)
        p0 = 2 * cap * (1 if rng.random() < 0.5 else -1)
        traj = integrate(State(q=rng.uniform(0, math.pi), p=p0, t=0.0), params, pivot, 10.0, tol)
        absp = np.abs(traj.p)
        entered = np.where(absp <= cap)[0]
        ok = ok and entered.size > 0
        if entered.size:
            ok = ok and bool(np.all(absp[entered[0]:] <= cap + 1e-6))
    report("C6 escape trap", ok, time.time() - t0, 60.0)


def test_c7_proposition1_witness():
    t0 = time.time()
    params = Params(l=1.0, m=1.0, g=G, mu=0.5)
    pivot = ConstantPivot(0.0)
    tol = Tolerances()
    curve = SigmaCurve.line()
    res = bisect_curve(curve, params, pivot, 50.0, tol)
    w = res.witness
    lo, hi = math.atan(2.0), math.pi - math.atan(2.0)
    ok = w is not None and w.outcome == NON_FALLING
    ok = ok and w.stuck_q is not None and lo <= w.stuck_q <= hi
    if ok:
        tight = recheck_witness(res, curve, params, pivot, tol, factor=10.0)
        qs = tight.trajectory.q
        ok = (
            tight.is_witness
            and float(np.min(qs)) >= 0.0
            and float(np.max(qs)) <= math.pi
            and tight.horizon == 50.0
        )
    report(
        "C7 Proposition 1 witness",
        ok,
        time.time() - t0,
        60.0,
        f"stuck at q={w.stuck_q:.6f} in [{lo:.5f}, {hi:.5f}]" if w else "no witness",
    )


def test_c8_proposition2_witness_strict():
    t0 = time.time()
    params = Params(l=1.0, m=1.0, g=G, mu=0.5)
    pivot = SinePivot(0.5, 1.0)
    assert params.mu * pivot.sup_bound(0.0, 50.0) < G  # regime of the statement
    tol = Tolerances()
    res = bisect_curve(SigmaCurve.line(), params, pivot, 50.0, tol, strict=True)
    w = res.witness
    ok = w is not None and w.strict and w.min_boundary_distance > 0.0
    if ok:
        qs = w.trajectory.q
        ok = float(np.min(qs)) > 0.0 and float(np.max(qs)) < math.pi
    # no corner exits anywhere in the bisection history
    corner_free = True
    for entry in res.history:
        if entry.exit_event is None:
            continue
        q_exit = entry.exit_event.q
        if min(abs(q_exit), abs(q_exit - math.pi)) <= 1e-9:
            corner_free = corner_free and abs(entry.exit_p) > tol.stick_band
    ok = ok and corner_free
    report(
        "C8 Proposition 2 witness",
        ok,
        time.time() - t0,
        300.0,
        f"min boundary distance {w.min_boundary_distance:.4f}" if w else "no witness",
    )


def test_c9_frictionless_agreement():
    t0 = time.time()
    params = Params(l=1.0, m=1.0, g=G, mu=0.0)
    pivot = SinePivot(2.0, 1.0)
    tol = Tolerances()
    res = bisect_curve(SigmaCurve.line(), params, pivot, 20.0, tol)
    if res.witness is not None:
        w = res.witness
        qs = w.trajectory.q
        ok = w.outcome == NON_FALLING and float(np.min(qs)) >= 0.0 and float(np.max(qs)) <= math.pi
        detail = f"witness at q0={w.q0:.12f}"
    else:
        # precision-limited horizon: the inconclusive report must be sound
        width = res.bracket[1] - res.bracket[0]
        ok = res.inconclusive and width <= 1e-12
        ok = ok and res.low_report.outcome == EXIT_LOW
        ok = ok and res.high_report.outcome == EXIT_HIGH
        detail = f"inconclusive, bracket width {width:.2e} (reported as such)"
    report("C9 frictionless agreement", ok, time.time() - t0, 300.0, detail)


def test_c10_convergence_under_tolerance_halving():
    t0 = time.time()
    params = Params(l=1.0, m=1.0, g=G, mu=0.0)
    pivot = SinePivot(0.5, 1.0)
    cps = list(np.linspace(0.0, 1.0, 101))[1:]
    field = refsim.make_field(params.l, params.g, 0.0, pivot.accel)
    ref = refsim.states_at(field, math.pi / 4, -0.5, 0.0, cps, 1e-6)
    errs = []
    for k in range(6):
        tol = Tolerances(
            rel_tol=3e-9 / 2 ** k,
            abs_tol=3e-11 / 2 ** k,
            event_tol=1e-10,
            stick_band=1e-8,
            max_dt=0.25,
        )
        traj = integrate(
            State(q=math.pi / 4, p=-0.5, t=0.0), params, pivot, 1.0, tol, record_at=cps
        )
        errs.append(
            max(
                math.hypot(s.q - ref[round(s.t, 10)][0], s.p - ref[round(s.t, 10)][1])
                for s in traj.recorded
            )
        )
    per_halving = (errs[-1] / errs[0]) ** (1.0 / (len(errs) - 1))
    ok = 0.375 <= per_halving <= 0.625
    report(
        "C10 convergence",
        ok,
        time.time() - t0,
        120.0,
        f"mean per-halving error ratio {per_halving:.3f} in [0.375, 0.625]",
    )

"""Empirical checks of the structural facts the solver relies on.

Each check samples the model on a deterministic low-discrepancy grid and
returns a CheckReport with the worst margin found and the inputs that
produced it, so every reported number can be recomputed directly.  These
are falsification tests with explicit constants, not proofs.

The pointwise checks evaluate the model's kernels, the ones the integrator
steps, on numpy arrays of samples, with a(t) from the law's own float
`accel`; overflow is silent, as in floats.  A worst case is the first
extreme in row-major order, and a NaN anywhere is the worst case.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .model import Params, PivotLaw, State, branch_field, limit_fields, linspace
from .integrator import _EXCLUSION_FLOOR, _EXCLUSION_SLACK, Tolerances, integrate
from .flowmap import Unresolved, flow_map, start_jump


def _halton(n: int, base: int, start: int = 0) -> np.ndarray:
    """First n points of the base-b van der Corput sequence from `start`,
    built one digit position at a time over all the indices (a digit past an
    index's last one adds f * 0, which leaves the point as it is)."""
    i = np.arange(start + 1, start + n + 1)
    f = 1.0
    r = np.zeros(n)
    while i.any():
        f /= base
        i, digit = np.divmod(i, base)
        r += f * digit
    return r


# The pointwise checks sample |p| <= P_MAX and t in [0, min(horizon, T_MAX)];
# the Lipschitz envelope of the one-sided check holds on the same |p| range.
P_MAX = 4.0
T_MAX = 20.0


def _seed_offset(fingerprint: str) -> int:
    return int(hashlib.sha256(fingerprint.encode()).hexdigest()[:8], 16) % 100_000


@dataclass(frozen=True)
class SampleGrid:
    """Deterministic sample locations for the pointwise checks."""

    q_points: np.ndarray
    p_points: np.ndarray
    t_points: np.ndarray
    pair_count: int

    def __post_init__(self):
        if min(self.q_points.size, self.p_points.size, self.t_points.size) == 0:
            raise ValueError("grid axes must be non-empty")

    @staticmethod
    def for_scenario(fingerprint: str, window: float) -> "SampleGrid":
        """64 angles in [-1, pi + 1], 64 velocities in [-P_MAX, P_MAX] and 32
        times in [0, window], seeded by the fingerprint, with 4096 pairs."""
        off = _seed_offset(fingerprint)
        q_lo, q_hi = -1.0, math.pi + 1.0
        q = q_lo + (q_hi - q_lo) * _halton(64, 2, off)
        p = -P_MAX + (P_MAX - -P_MAX) * _halton(64, 3, off)
        p = p[np.abs(p) > 1e-3]  # keep two-sided pairing well defined
        t = window * _halton(32, 5, off)
        return SampleGrid(q_points=q, p_points=p, t_points=t, pair_count=4096)


@dataclass
class CheckReport:
    name: str
    passed: bool
    margin: float
    worst_case: dict
    estimated_constant: float | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "margin": self.margin,
            "worst_case": self.worst_case,
            "estimated_constant": self.estimated_constant,
            "details": self.details,
        }


def smooth_lipschitz_bound(
    params: Params, pivot: PivotLaw, p_max: float, t0: float, t1: float
) -> float:
    """Norm Lipschitz over-estimate of the smooth branches on |p| <= p_max.

    Frobenius bound of the branch Jacobian using the partial-derivative
    envelopes |d(dp)/dq| <= (1 + mu)(sup|a| + g)/l and |d(dp)/dp| <= 2 mu p_max.
    OverflowError if the bound leaves the float range.
    """
    sup_a = pivot.sup_bound(t0, t1)
    dq_env = (1.0 + params.mu) * (sup_a + params.g) / params.l
    dp_env = 2.0 * params.mu * p_max
    try:
        bound = math.sqrt(1.0 + dq_env ** 2 + dp_env ** 2)
    except OverflowError:  # the square of a finite envelope
        bound = math.inf
    if not math.isfinite(bound):  # also an envelope that is already infinite
        raise OverflowError("the field's Lipschitz bound overflows")
    return bound


def _max(x: float, y: float) -> float:
    """The larger of x and y, NaN if either is (numpy's maximum)."""
    return x if x >= y or x != x else y


def _worse(x: float, worst: float, lower: bool) -> bool:
    """Whether x replaces `worst` as the first extreme seen so far: the
    least one if `lower`, else the greatest, and a NaN before all others."""
    if worst != worst:
        return False
    return x != x or (x < worst if lower else x > worst)


def check_jump_inequality(params: Params, pivot: PivotLaw, grid: SampleGrid) -> CheckReport:
    """f_minus_p - f_plus_p >= 0 everywhere, equal to twice the friction bound.

    The model's limits are compared against the gap's closed form
    (2 mu / l)|a cos q + g sin q|; agreement is relative to the local field
    scale since the gap itself passes through zero.
    """
    mu_l, g = params.mu / params.l, params.g
    q, ts = grid.q_points, grid.t_points.tolist()
    with np.errstate(all="ignore"):
        limits = [limit_fields(params, pivot, q, t) for t in ts]  # each over all the angles
        f_plus, f_minus = (np.column_stack(f) for f in zip(*limits))  # row-major: q outer, t inner
        a = np.array([pivot.accel(t) for t in ts])
        gap = f_minus - f_plus
        closed = 2.0 * (mu_l * np.abs(a * np.cos(q)[:, None] + g * np.sin(q)[:, None]))
        scale = np.maximum(np.maximum(np.abs(f_plus), np.abs(f_minus)), closed)
        worst_agree = float(np.max(np.abs(gap - closed) / np.where(scale == 0.0, 1.0, scale)))
    i, j = np.unravel_index(np.argmin(gap), gap.shape)
    margin = float(gap[i, j])
    passed = margin >= 0.0 and worst_agree <= 1e-12
    return CheckReport(
        name="jump_inequality",
        passed=passed,
        margin=margin,
        worst_case={"q": float(q[i]), "t": ts[j]},
        details={"max_relative_disagreement": worst_agree},
    )


def _pair_sets(grid: SampleGrid, fingerprint: str):
    """Same-t sample pairs: half same-side of p = 0, half straddling."""
    n = grid.pair_count
    off = _seed_offset(fingerprint + "pairs")
    u, v, w, x, s = (_halton(n, base, off) for base in (2, 3, 5, 7, 11))
    q_lo, q_hi = float(np.min(grid.q_points)), float(np.max(grid.q_points))
    p_hi = float(np.max(np.abs(grid.p_points)))
    t_lo, t_hi = float(np.min(grid.t_points)), float(np.max(grid.t_points))
    q1 = q_lo + (q_hi - q_lo) * u
    q2 = q_lo + (q_hi - q_lo) * v
    t = t_lo + (t_hi - t_lo) * s
    half = n // 2
    p1 = np.empty(n)
    p2 = np.empty(n)
    # same side: copy the sign of one draw onto the other
    sgn = np.where(w[:half] > 0.5, 1.0, -1.0)
    p1[:half] = sgn * np.maximum(p_hi * w[:half], 1e-6)
    p2[:half] = sgn * np.maximum(p_hi * x[:half], 1e-6)
    # straddling: strictly opposite signs
    p1[half:] = np.maximum(p_hi * w[half:], 1e-6)
    p2[half:] = -np.maximum(p_hi * x[half:], 1e-6)
    return q1, p1, q2, p2, t


def check_one_sided_lipschitz(
    params: Params,
    pivot: PivotLaw,
    grid: SampleGrid,
    l_est: float,
    fingerprint: str,
) -> CheckReport:
    """(x - y) . (f(x,t) - f(y,t)) <= l_est |x - y|^2 over sampled pairs.

    Straddling pairs exercise the jump term, which must only help (its
    contribution is non-positive).  Reports the smallest constant that
    would have sufficed on the sample.
    """
    if not (l_est > 0):
        raise ValueError("l_est must be positive")
    pairs = q1, p1, q2, p2, t = _pair_sets(grid, fingerprint)
    # the law's own a(t), once per pair; every sampled p is at least 1e-6
    # away from 0, on the branch of its sign
    a = np.array([pivot.accel(x) for x in t.tolist()])
    with np.errstate(all="ignore"):
        _, f1p = branch_field(params, pivot, np.where(p1 > 0, 1.0, -1.0), lambda _: a)(t, q1, p1)
        _, f2p = branch_field(params, pivot, np.where(p2 > 0, 1.0, -1.0), lambda _: a)(t, q2, p2)
        dq = q1 - q2
        dp = p1 - p2
        ratio = (dq * dp + dp * (f1p - f2p)) / (dq * dq + dp * dp)
    violations = int(np.count_nonzero(~(ratio <= l_est)))  # a NaN ratio is one
    k = int(np.argmax(ratio))
    sufficient = float(ratio[k])
    return CheckReport(
        name="one_sided_lipschitz",
        passed=violations == 0,
        margin=l_est - sufficient,
        worst_case={name: float(x[k]) for name, x in zip(("q1", "p1", "q2", "p2", "t"), pairs)},
        estimated_constant=sufficient,
        details={"l_est": l_est, "violations": violations, "pairs": grid.pair_count},
    )


# A delta is integrated only if the flow map predicts an epsilon at least this
# many times the solver's noise floor eta.
_RESOLVING = 10.0
# The second-order term of epsilon, per radian of the predicted epsilon
# squared: the field varies on the scale of the angle, so the linearisation of
# a deviation of size eps errs by about eps^2 per radian.  The largest factor
# needed over the 640 generated verify ops of the benchmark's designs 0-19 was
# 0.57, at delta 1e-6 with |Phi| near 5e3.
_CURVATURE = 8.0
# eta is the base run's distance from a rerun at tolerances this much tighter
_ETA_SCALE = 100.0
# eta is at least this multiple of the largest |q|, |p| on the grid times the
# peak gain of Phi: about 64 roundings of the state, carried by the flow.  A
# rerun whose steps the step cap sizes takes the base run's steps, rounds as
# it does and measures no rounding at all.
_ROUNDING = 2.0 ** -46


def _top_right_singular(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """The unit right singular vector of [[a, b], [c, d]] for its larger
    singular value, signed so that its larger component is positive: the
    eigenvector of M^T M for its larger eigenvalue, written out.  (numpy's
    SVD would do, but its first call maps LAPACK's buffers, about 1 MB of
    resident memory.)"""
    ata, atb, btb = a * a + c * c, a * b + c * d, b * b + d * d
    lam = 0.5 * (ata + btb) + math.hypot(0.5 * (ata - btb), atb)
    # two forms of the eigenvector; the longer is the better conditioned
    x, y = atb, lam - ata
    if math.hypot(x, y) < math.hypot(lam - btb, atb):
        x, y = lam - btb, atb
    n = math.hypot(x, y)
    if n == 0.0:  # M^T M a multiple of I: every direction stretches alike
        return 1.0, 0.0
    x, y = x / n, y / n
    return (-x, -y) if (x if abs(x) >= abs(y) else y) < 0.0 else (x, y)


def check_continuous_dependence(
    params: Params,
    pivot: PivotLaw,
    base_ic: State,
    horizon: float,
    deltas: list[float],
    tol: Tolerances = Tolerances(),
) -> CheckReport:
    """The sup-norm distance epsilon(delta) of the runs from x0 +/- delta v1
    to the run from x0 must be what the linearised flow map predicts.

    Phi, the base run's variational matrix on a 257-point grid (`flow_map`),
    predicts epsilon(delta) = max_t |Phi(t) v1| delta, where v1 is the top
    right singular vector of Phi at the time |Phi(t)|_2 peaks: the direction
    of the largest epsilon.  A rerun at tolerances `_ETA_SCALE` times
    tighter gives eta, the solver's own error, taken no smaller than the
    rounding of the states carried by the flow (`_ROUNDING`).  A delta is
    resolved if its prediction is at least `_RESOLVING` eta for both signs.
    Only resolved deltas are integrated, and on both signs each must meet

        |epsilon - prediction| <= slack delta + _CURVATURE prediction^2 + 2 eta

    where slack = max_t |(Phi - Phi3)(t) v1| is Phi's own discretisation
    error, as its 3rd-order companion Phi3 bounds it, and the curvature term
    is epsilon's second-order part.  The check passes if at least one delta
    is resolved and every resolved one meets that; with no flow map
    (`Unresolved`) no delta is.  It integrates the base run, the eta rerun
    and two probes per resolved delta.
    """
    if len(deltas) == 0 or any(d < 0 for d in deltas):
        raise ValueError("deltas must be non-negative")
    if any(deltas[i + 1] >= deltas[i] for i in range(len(deltas) - 1)):
        raise ValueError("deltas must be strictly decreasing")
    grid = linspace(base_ic.t, horizon, 257)
    base = integrate(base_ic, params, pivot, horizon, tol, record_at=grid)
    base_qp = np.array([(s.q, s.p) for s in base.recorded])

    def distance(traj) -> float:
        qp = np.array([(s.q, s.p) for s in traj.recorded])
        return float(np.max(np.hypot(*(qp - base_qp).T)))

    eta = distance(integrate(base_ic, params, pivot, horizon, tol.scaled(_ETA_SCALE), record_at=grid))
    details = {"integrations": 2}
    resolved, unresolved, eps, preds = [], list(deltas), [], []
    margin, worst = 0.0, {"delta": None, "epsilon": None}
    try:
        phis, psis = flow_map(params, pivot, base)
        d_start, r_start = start_jump(params, pivot, base_ic, tol)
        phi = np.array(phis)
        if not np.isfinite(phi).all():
            raise Unresolved("the flow map leaves the float range")
    except Unresolved as exc:
        details["unresolved"] = str(exc)
        phi = None
    if phi is not None:
        a, b, c, d = phi.T
        ea, eb, ec, ed = (phi - np.array(psis)).T
        # |Phi(t)|_2: the root of the larger eigenvalue of Phi^T Phi
        ata, atb, btb = a * a + c * c, a * b + c * d, b * b + d * d
        sigma = np.sqrt(0.5 * (ata + btb) + np.hypot(0.5 * (ata - btb), atb))
        peak = int(np.argmax(sigma))
        eta = max(eta, _ROUNDING * float(np.max(np.abs(base_qp))) * float(sigma[peak]))
        vq, vp = _top_right_singular(*phis[peak])
        details.update(direction=[vq, vp], peak_t=grid[peak], sigma_max=float(sigma[peak]))
        # (sign, gain, slack) per probe x0 + sign delta v1; a probe that puts
        # a start on p = 0 on the far side of its crossing crosses too
        probes = []
        for sign in (1.0, -1.0):
            wq, wp = vq, vp * (r_start if sign * vp * d_start < 0 else 1.0)
            gain = float(np.max(np.hypot(a * wq + b * wp, c * wq + d * wp)))
            slack = float(np.max(np.hypot(ea * wq + eb * wp, ec * wq + ed * wp)))
            probes.append((sign, gain, slack))
        unresolved = []
        for delta in deltas:
            if not (delta > 0.0 and min(gain for _, gain, _ in probes) * delta >= _RESOLVING * eta):
                unresolved.append(delta)
                continue
            resolved.append(delta)
            eps_d = pred_d = 0.0
            for sign, gain, slack in probes:
                ic = State(q=base_ic.q + sign * delta * vq, p=base_ic.p + sign * delta * vp, t=base_ic.t)
                e = distance(integrate(ic, params, pivot, horizon, tol, record_at=grid))
                details["integrations"] += 1
                pred = gain * delta
                room = slack * delta + _CURVATURE * pred * pred + 2.0 * eta - abs(e - pred)
                if worst["delta"] is None or _worse(room, margin, lower=True):
                    margin, worst = room, {"delta": delta, "sign": sign, "epsilon": e, "predicted": pred}
                eps_d, pred_d = _max(eps_d, e), _max(pred_d, pred)
            eps.append(eps_d)
            preds.append(pred_d)
    ratios = [e / d for e, d in zip(eps, resolved)]
    details.update(
        eta=eta, deltas=resolved, epsilons=eps, predicted=preds, growth_ratios=ratios,
        unresolved_deltas=unresolved,
    )
    return CheckReport(
        name="continuous_dependence",
        passed=bool(resolved) and margin >= 0.0,
        margin=margin,
        worst_case=worst,
        estimated_constant=max(ratios) if ratios else None,
        details=details,
    )


def check_upper_semicontinuity(
    params: Params,
    pivot: PivotLaw,
    q: float,
    t: float,
    p_sequence: list[float],
) -> CheckReport:
    """The one-sided Hausdorff excess of F(q, p, t) over F(q, 0, t) must
    vanish with p as the model bounds it, on both sides of p = 0.

    At p = +/-|p_k| the excess beta_k = hypot(p, overshoot of dp/dt past
    [f_plus, f_minus]) is at most |p_k| sqrt(1 + (mu p_k)^2): off the
    surface the friction term differs from its limit by (mu/l) |l p^2| at
    most.  The bound gets the kernel's rounding as slack, scaled as in
    `integrator._never_releases`.  The estimated constant is the worst
    ratio beta / bound, and the worst case is that sample.
    """
    if len(p_sequence) == 0 or any(
        abs(p_sequence[i + 1]) >= abs(p_sequence[i]) for i in range(len(p_sequence) - 1)
    ):
        raise ValueError("p_sequence must be non-empty and strictly decrease in magnitude")
    if any(p == 0.0 for p in p_sequence):
        raise ValueError("p_sequence must avoid 0")
    l, g, mu = params.l, params.g, params.mu
    f_plus, f_minus = limit_fields(params, pivot, q, t)
    slack = _EXCLUSION_SLACK * (abs(pivot.accel(t)) + g) * (1.0 + mu) / l + _EXCLUSION_FLOOR
    betas = {1.0: [], -1.0: []}
    worst = ratio = margin = None
    for sign in (1.0, -1.0):
        field = branch_field(params, pivot, sign)
        for p_k in p_sequence:
            p = math.copysign(p_k, sign)
            _, a = field(t, q, p)
            below, above = f_plus - a, a - f_minus
            # a NaN excess is the worst case, which max() would drop
            overshoot = max(0.0, below, above) if below == below and above == above else math.nan
            beta = math.hypot(p, overshoot)
            bound = abs(p) * math.sqrt(1.0 + (mu * p) ** 2)
            betas[sign].append(beta)
            if worst is None or _worse(beta / bound, ratio, lower=False):
                ratio, worst = beta / bound, {"q": q, "t": t, "p": p, "beta": beta}
            if margin is None or _worse(bound + slack - beta, margin, lower=True):
                margin = bound + slack - beta
    return CheckReport(
        name="upper_semicontinuity",
        passed=margin >= 0.0,
        margin=margin,
        worst_case=worst,
        estimated_constant=ratio,
        details={
            "p_sequence": list(p_sequence), "betas": betas[1.0], "betas_negative": betas[-1.0],
            "slack": slack,
        },
    )


def run_checks(
    params: Params,
    pivot: PivotLaw,
    start: State | None,
    horizon: float,
    tol: Tolerances,
    fingerprint: str,
    selected: list[str],
) -> list[CheckReport]:
    """The checks named in `selected` ("jump", "lipschitz", "dependence",
    "semicontinuity"), in that order, on one scenario's grid.

    Continuous dependence is checked from `start` (the apex at t = 0 if
    None) over at most 5 s with delta 1e-6 and 1e-8, upper semicontinuity
    at q = pi/4, t = 0 with p = +/-2^-k, k = 1..19.
    """
    window = min(horizon, T_MAX)
    grid = SampleGrid.for_scenario(fingerprint, window)
    reports = []
    if "jump" in selected:
        reports.append(check_jump_inequality(params, pivot, grid))
    if "lipschitz" in selected:
        l_est = smooth_lipschitz_bound(params, pivot, p_max=P_MAX, t0=0.0, t1=window)
        reports.append(check_one_sided_lipschitz(params, pivot, grid, l_est, fingerprint))
    if "dependence" in selected:
        base = start if start is not None else State(q=math.pi / 2, p=0.0, t=0.0)
        end = min(horizon, base.t + 5.0)
        reports.append(
            check_continuous_dependence(params, pivot, base, end, [1e-6, 1e-8], tol)
        )
    if "semicontinuity" in selected:
        p_sequence = [2.0 ** -k for k in range(1, 20)]
        reports.append(check_upper_semicontinuity(params, pivot, math.pi / 4, 0.0, p_sequence))
    return reports


def summary_table(reports: list[CheckReport]) -> str:
    lines = [f"{'check':<26} {'passed':<8} {'margin':<14} constant"]
    for r in reports:
        const = "-" if r.estimated_constant is None else f"{r.estimated_constant:.6g}"
        lines.append(f"{r.name:<26} {str(r.passed):<8} {r.margin:<14.6g} {const}")
    return "\n".join(lines)

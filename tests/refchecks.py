"""Reference pointwise checks for the oracle tests: the looped forms.

The jump inequality and one-sided Lipschitz checks written as loops over
the sample points, each point evaluated with the model's float kernels
(`limit_fields`, and `branch_field` on the branch of sign(p)) and the
worst case kept by `verification._worse`: the first extreme in row-major
order, a NaN before all others.  The package's array checks must
reproduce their reports bit for bit; nothing in `src/` imports this module.
"""

from __future__ import annotations

import math

from drypend.model import Params, PivotLaw, branch_field, limit_fields
from drypend.verification import CheckReport, SampleGrid, _max, _pair_sets, _worse


def check_jump_inequality(params: Params, pivot: PivotLaw, grid: SampleGrid) -> CheckReport:
    mu_l, g = params.mu / params.l, params.g
    ts = grid.t_points.tolist()
    accels = [pivot.accel(t) for t in ts]
    margin = worst_q = worst_t = None
    worst_agree = 0.0
    for q in grid.q_points.tolist():
        s, c = math.sin(q), math.cos(q)
        for t, a in zip(ts, accels):
            f_plus, f_minus = limit_fields(params, pivot, q, t)
            gap = f_minus - f_plus
            closed = 2.0 * (mu_l * abs(a * c + g * s))
            scale = _max(_max(abs(f_plus), abs(f_minus)), closed)
            if scale == 0.0:
                scale = 1.0
            worst_agree = _max(worst_agree, abs(gap - closed) / scale)
            if margin is None or _worse(gap, margin, lower=True):
                margin, worst_q, worst_t = gap, q, t
    passed = margin >= 0.0 and worst_agree <= 1e-12
    return CheckReport(
        name="jump_inequality",
        passed=passed,
        margin=margin,
        worst_case={"q": worst_q, "t": worst_t},
        details={"max_relative_disagreement": worst_agree},
    )


def check_one_sided_lipschitz(
    params: Params,
    pivot: PivotLaw,
    grid: SampleGrid,
    l_est: float,
    fingerprint: str,
) -> CheckReport:
    if not (l_est > 0):
        raise ValueError("l_est must be positive")
    pairs = zip(*(axis.tolist() for axis in _pair_sets(grid, fingerprint)))
    # every sampled p is at least 1e-6 away from 0, on the branch of its sign
    above, below = branch_field(params, pivot, 1.0), branch_field(params, pivot, -1.0)
    sufficient = worst = None
    violations = 0
    for q1, p1, q2, p2, t in pairs:
        _, f1p = (above if p1 > 0 else below)(t, q1, p1)
        _, f2p = (above if p2 > 0 else below)(t, q2, p2)
        dq = q1 - q2
        dp = p1 - p2
        dot = dq * dp + dp * (f1p - f2p)
        nsq = dq * dq + dp * dp
        ratio = dot / nsq
        if not ratio <= l_est:
            violations += 1
        if sufficient is None or _worse(ratio, sufficient, lower=False):
            sufficient, worst = ratio, {"q1": q1, "p1": p1, "q2": q2, "p2": p2, "t": t}
    return CheckReport(
        name="one_sided_lipschitz",
        passed=violations == 0,
        margin=l_est - sufficient,
        worst_case=worst,
        estimated_constant=sufficient,
        details={"l_est": l_est, "violations": violations, "pairs": grid.pair_count},
    )

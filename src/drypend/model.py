"""Pendulum-on-a-sliding-pivot model with Coulomb friction.

State is the angle q measured from the horizontal (q = 0 and q = pi are the
horizontal positions) and the angular velocity p.  Off the surface p = 0 the
motion is the smooth ODE

    dq/dt = p
    dp/dt = (a(t)/l) sin q - (mu/l) |a(t) cos q - l p^2 + g sin q| sign(p)
            - (g/l) cos q

where a(t) is the prescribed horizontal pivot acceleration.  On p = 0 the
friction term is set-valued and the right-hand side becomes the convex
interval between the two one-sided limits; `limit_fields`, `filippov_set`
and `stiction_holds` expose that structure.

The field is written in two kernels only: `branch_field` (off the surface,
one friction branch; the integrator steps it on floats and the checks
evaluate it on arrays) and `stiction_drift_and_bound` (on p = 0), from which
the one-sided limits and the stiction test are both taken.  Functions accept
Python floats or numpy arrays in the (q, p, t) slots.  numpy is imported
only where arrays are used (the kernels and the pivot laws on arrays, and
`PolyPivot`); on Python floats the module runs without it, taking
`math.sin`/`math.cos`, which agree with numpy's bit for bit on floats
(pinned by tests/test_backends.py).
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from bisect import bisect_right
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Sequence

# Mode labels; these exact strings go into CSV output.
SLIPPING = "slip"
STUCK = "stuck"


@dataclass(frozen=True)
class Params:
    """Physical constants: rod length l, bob mass m, gravity g, friction mu."""

    l: float = 1.0
    m: float = 1.0
    g: float = 9.8
    mu: float = 0.5

    def __post_init__(self):
        for name, value in self.to_dict().items():
            if name == "mu":
                if not (value >= 0):
                    raise ValueError(f"mu must be >= 0, got {value}")
            elif not (value > 0):
                raise ValueError(f"{name} must be positive, got {value}")

    def to_dict(self) -> dict:
        return asdict(self)


class PivotLaw:
    """Prescribed pivot acceleration a(t), Lipschitz in t.

    Subclasses provide `accel`, an exact or conservative `sup_bound` and a
    Lipschitz constant `lipschitz_bound`.  `sup_bound` must over-estimate
    max |a| on the interval: the velocity trap threshold computed from it is
    only valid as an upper bound.  `accel` takes a float or a numpy array:
    a float is evaluated in pure Python, an array through numpy.
    """

    kind = "abstract"

    def accel(self, t):
        raise NotImplementedError

    @property
    def lipschitz_bound(self) -> float:
        raise NotImplementedError

    def sup_bound(self, t0: float, t1: float) -> float:
        raise NotImplementedError

    def to_dict(self) -> dict:
        _, fields, lists = PIVOT_KINDS[self.kind]
        out = {"kind": self.kind}
        for name in fields:
            value = getattr(self, name)
            out[name] = list(value) if name in lists else value
        return out


def linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) as a list of floats, by numpy's
    arithmetic: i * step + start, with (i / div) * delta + start when the
    step underflows to 0, and the last point exactly `stop`."""
    if num < 2:
        raise ValueError("linspace needs at least two points")
    start, stop = float(start), float(stop)
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0:
        out = [i / div * delta + start for i in range(num)]
    else:
        out = [i * step + start for i in range(num)]
    out[-1] = stop
    return out


def interp(x: float, xs: list[float], ys: list[float]) -> float:
    """np.interp(x, xs, ys) at one point, step for step: clamped ends, knot
    values as they are, and the far end of the interval tried when the
    interpolation gives NaN.  `xs` must be strictly increasing."""
    x = float(x)
    if x != x:
        return x
    if x > xs[-1]:
        return ys[-1]
    if x < xs[0]:
        return ys[0]
    j = bisect_right(xs, x) - 1
    if j == len(xs) - 1 or xs[j] == x:
        return ys[j]
    slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
    y = slope * (x - xs[j]) + ys[j]
    if y != y:
        y = slope * (x - xs[j + 1]) + ys[j + 1]
        if y != y and ys[j] == ys[j + 1]:
            y = ys[j]
    return y


def real_list(values, what: str) -> list[float]:
    """`values` as a list of floats; ValueError naming `what` unless it is a
    sequence of real numbers (a numeric string is not one)."""
    try:
        if all(isinstance(v, numbers.Real) for v in values):
            return [float(v) for v in values]
    except TypeError:  # not iterable
        pass
    raise ValueError(f"{what} must be a sequence of numbers, got {values!r}")


class ConstantPivot(PivotLaw):
    """a(t) = a0."""

    kind = "constant"

    def __init__(self, a: float):
        self.a = float(a)

    def accel(self, t):
        if isinstance(t, (float, int)):
            return self.a
        import numpy as np

        return self.a * np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else self.a

    @property
    def lipschitz_bound(self) -> float:
        return 0.0

    def sup_bound(self, t0, t1):
        return abs(self.a)


class SinePivot(PivotLaw):
    """a(t) = amp * sin(omega * t + phase)."""

    kind = "sine"

    def __init__(self, amp: float, omega: float, phase: float = 0.0):
        self.amp = float(amp)
        self.omega = float(omega)
        self.phase = float(phase)

    def accel(self, t):
        if isinstance(t, (float, int)):
            return self.amp * math.sin(self.omega * t + self.phase)
        import numpy as np

        return self.amp * np.sin(self.omega * np.asarray(t, dtype=float) + self.phase)

    @property
    def lipschitz_bound(self) -> float:
        return abs(self.amp * self.omega)

    def sup_bound(self, t0, t1):
        if t1 < t0:
            raise ValueError("empty interval")
        if self.omega == 0.0:
            return abs(self.amp * math.sin(self.phase))
        lo = self.omega * t0 + self.phase
        hi = self.omega * t1 + self.phase
        if lo > hi:
            lo, hi = hi, lo
        if hi - lo >= math.pi:
            return abs(self.amp)
        # |sin| peaks at odd multiples of pi/2; otherwise at the endpoints
        k = math.ceil((lo - math.pi / 2) / math.pi)
        if lo <= math.pi / 2 + k * math.pi <= hi:
            return abs(self.amp)
        return abs(self.amp) * max(abs(math.sin(lo)), abs(math.sin(hi)))


class PolyPivot(PivotLaw):
    """a(t) = sum_k coeffs[k] * t^k, used on a bounded window [0, t_max].

    Polynomials are not globally Lipschitz, so the constant is taken over the
    declared window; scenarios must keep their horizon inside it.
    """

    kind = "poly"

    def __init__(self, coeffs: Sequence[float], t_max: float = 1000.0):
        if len(coeffs) == 0:
            raise ValueError("poly pivot needs at least one coefficient")
        if not (t_max > 0):
            raise ValueError("t_max must be positive")
        import numpy as np

        self.coeffs = tuple(float(c) for c in coeffs)
        self.t_max = float(t_max)
        self._poly = np.polynomial.Polynomial(self.coeffs)
        self._deriv = self._poly.deriv()

    def accel(self, t):
        if isinstance(t, float):
            # Polynomial.__call__ in pure Python (the map of the default domain
            # onto itself, 0.0 + 1.0 * t, then polyval's Horner loop), as a
            # Python float: a numpy scalar would be carried into q and p and
            # written as "np.float64(...)" into trajectory CSV files
            x = 0.0 + t
            c = self.coeffs
            acc = c[-1] + x * 0
            for ck in c[-2::-1]:
                acc = ck + acc * x
            return float(acc)
        import numpy as np

        return self._poly(np.asarray(t, dtype=float)) if np.ndim(t) else self._poly(t)

    @staticmethod
    def _abs_max(poly, a: float, b: float) -> float:
        import numpy as np

        cand = [a, b]
        deriv = poly.deriv()
        if deriv.degree() >= 1:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    roots = deriv.roots()
            except np.linalg.LinAlgError:
                # a leading coefficient tiny against the others overflows the
                # companion matrix; bound |poly| by its terms' magnitudes
                x = max(abs(a), abs(b))
                return sum(abs(float(c)) * x ** k for k, c in enumerate(poly.coef))
            for r in roots:
                if abs(r.imag) < 1e-12 and a <= r.real <= b:
                    cand.append(float(r.real))
        return max(abs(float(poly(c))) for c in cand)

    @property
    def lipschitz_bound(self) -> float:
        if self._deriv.degree() < 0 or (self._deriv.degree() == 0 and self._deriv.coef[0] == 0):
            return 0.0
        return self._abs_max(self._deriv, 0.0, self.t_max)

    def sup_bound(self, t0, t1):
        if t1 < t0:
            raise ValueError("empty interval")
        return self._abs_max(self._poly, t0, t1)


class TablePivot(PivotLaw):
    """Tabulated samples with linear interpolation, clamped outside the knots.

    Piecewise-linear interpolation keeps the law Lipschitz with constant
    max |slope|, and the exact sup on any interval is attained at a knot or
    an interval endpoint.
    """

    kind = "table"

    def __init__(self, times: Sequence[float], values: Sequence[float]):
        self.times = real_list(times, "table pivot times")
        self.values = real_list(values, "table pivot values")
        if len(self.times) < 2 or len(self.times) != len(self.values):
            raise ValueError("table pivot needs matching 1-d times/values with >= 2 knots")
        ts, vs = self.times, self.values
        if any(t1 - t0 <= 0 for t0, t1 in zip(ts, ts[1:])):
            raise ValueError("table pivot times must be strictly increasing")
        # computed once: the release scan reads it for every stuck stretch
        self._lipschitz = max(
            abs((v1 - v0) / (t1 - t0)) for t0, t1, v0, v1 in zip(ts, ts[1:], vs, vs[1:])
        )

    def accel(self, t):
        if isinstance(t, (float, int)):
            return interp(t, self.times, self.values)
        import numpy as np

        return np.interp(t, self.times, self.values)

    @property
    def lipschitz_bound(self) -> float:
        return self._lipschitz

    def sup_bound(self, t0, t1):
        if t1 < t0:
            raise ValueError("empty interval")
        cand = [abs(self.accel(t0)), abs(self.accel(t1))]
        cand += [abs(v) for t, v in zip(self.times, self.values) if t0 <= t <= t1]
        return max(cand)


# The scenario schema of each pivot kind: its class, its fields (the
# constructor's arguments, whose defaults the constructor holds) and the
# fields that are lists of numbers.
PIVOT_KINDS = {
    law.kind: (law, fields, lists)
    for law, fields, lists in (
        (ConstantPivot, ("a",), ()),
        (SinePivot, ("amp", "omega", "phase"), ()),
        (PolyPivot, ("coeffs", "t_max"), ("coeffs",)),
        (TablePivot, ("times", "values"), ("times", "values")),
    )
}


def pivot_from_dict(spec: dict) -> PivotLaw:
    """Build a pivot law from its serialized form; an absent field takes the
    constructor's default."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in PIVOT_KINDS:
        raise ValueError(f"unknown pivot law kind: {kind!r}")
    law, fields, _ = PIVOT_KINDS[kind]
    return law(**{name: spec[name] for name in fields if name in spec})


class _StateFields(NamedTuple):
    q: float
    p: float
    t: float
    mode: str = SLIPPING


class State(_StateFields):
    """Phase point (q, p) at time t plus the motion mode.

    q is stored unwrapped; any reduction modulo 2*pi is for display only.
    Stuck states have p = 0 exactly.  An immutable tuple: the integrator
    builds one per step, and a frozen dataclass cost up to twice as much.
    """

    __slots__ = ()

    def __new__(cls, q: float, p: float, t: float, mode: str = SLIPPING):
        if mode != SLIPPING:
            if mode != STUCK:
                raise ValueError(f"unknown mode {mode!r}")
            if p != 0.0:
                raise ValueError("stuck state must have p = 0 exactly")
        return tuple.__new__(cls, (q, p, t, mode))


@dataclass(frozen=True)
class FilippovSet:
    """Convexified right-hand side at one phase point.

    q_dot is single-valued; the p_dot component is the closed interval
    [p_dot_lo, p_dot_hi], degenerate away from p = 0.
    """

    q_dot: float
    p_dot_lo: float
    p_dot_hi: float

    def __post_init__(self):
        if self.p_dot_lo > self.p_dot_hi:
            raise ValueError("p_dot_lo must not exceed p_dot_hi")

    @property
    def is_singleton(self) -> bool:
        return self.p_dot_lo == self.p_dot_hi


def _sin_cos(q):
    """(sin, cos) for angles q: math's for a Python float, numpy's otherwise."""
    if isinstance(q, float):
        return math.sin, math.cos
    import numpy as np

    return np.sin, np.cos


def branch_field(params: Params, pivot: PivotLaw, branch) -> Callable:
    """The slipping kernel: f(t, q, p) -> (dq/dt, dp/dt) with the friction
    sign frozen to `branch`.

    This is the smooth extension of the slipping field across p = 0; the
    integrator steps it between events with a float `branch`, and the checks
    evaluate it on arrays with `branch = np.sign(p)`.  The sine and cosine
    are chosen once, from the type of `branch`.
    """
    l, g, mu = params.l, params.g, params.mu
    mu_l, g_l = mu / l, g / l
    accel = pivot.accel
    sin, cos = _sin_cos(branch)

    def f(t, q, p):
        a = accel(t)
        s, c = sin(q), cos(q)
        mag = abs(a * c - l * p * p + g * s)
        return p, (a / l) * s - mu_l * mag * branch - g_l * c

    return f


def stiction_drift_and_bound(params: Params, pivot: PivotLaw, q, t):
    """The on-surface kernel: drift dp/dt and friction capacity on p = 0.

    The one-sided limits are drift -/+ bound, and static friction holds iff
    |drift| <= bound.  Both rules read this one pair, and the sign of a
    rounded sum or difference is exact, so f_plus <= 0 <= f_minus and
    |drift| <= bound are the same predicate in floating point too.
    """
    a = pivot.accel(t)
    l, g, mu = params.l, params.g, params.mu
    sin, cos = _sin_cos(q)
    s, c = sin(q), cos(q)
    drift = (a / l) * s - (g / l) * c
    bound = (mu / l) * abs(a * c + g * s)
    return drift, bound


def limit_fields(params: Params, pivot: PivotLaw, q, t):
    """One-sided limits (f_plus_p, f_minus_p) of dp/dt on the plane p = 0.

    f_plus_p is the limit from p > 0, f_minus_p from p < 0; always
    f_plus_p <= f_minus_p, the gap being twice the friction bound.
    """
    drift, bound = stiction_drift_and_bound(params, pivot, q, t)
    return drift - bound, drift + bound


def filippov_set(params: Params, pivot: PivotLaw, state: State) -> FilippovSet:
    """Convexified right-hand side at `state`; an interval only on p = 0."""
    if state.p != 0.0:
        _, a = branch_field(params, pivot, math.copysign(1.0, state.p))(state.t, state.q, state.p)
        return FilippovSet(q_dot=state.p, p_dot_lo=a, p_dot_hi=a)
    f_plus, f_minus = limit_fields(params, pivot, state.q, state.t)
    return FilippovSet(q_dot=0.0, p_dot_lo=float(f_plus), p_dot_hi=float(f_minus))


def stiction_holds(params: Params, pivot: PivotLaw, q, t):
    """True iff static friction can hold the pendulum at angle q at time t.

    Algebraically |a sin q - g cos q| <= mu |a cos q + g sin q|, which is the
    same as 0 being contained in [f_plus_p, f_minus_p].
    """
    drift, bound = stiction_drift_and_bound(params, pivot, q, t)
    return abs(drift) <= bound


def p_star(params: Params, pivot: PivotLaw, t0: float, t1: float) -> float:
    """Velocity trap threshold: |p| > p_star forces |p| to decrease on [t0, t1].

    Undefined in the frictionless limit; callers must supply their own
    velocity cap when mu = 0.
    """
    if params.mu <= 0.0:
        raise ValueError("p_star requires mu > 0")
    if not (t1 > t0):
        raise ValueError("p_star requires t1 > t0")
    sup = pivot.sup_bound(t0, t1)
    return math.sqrt((params.g + sup) * (1.0 + 1.0 / params.mu) / params.l)


def energy(params: Params, q, p):
    """Mechanical energy surrogate 0.5 l^2 p^2 + g l sin q (per unit mass).

    Conserved along solutions only when mu = 0 and the pivot is inertial
    (a(t) = 0); used as a drift oracle in that limit.
    """
    sin, _ = _sin_cos(q)
    return 0.5 * params.l ** 2 * (p * p) + params.g * params.l * sin(q)


def fingerprint_of(*parts: dict) -> str:
    """Stable short hash of a sequence of serializable dicts."""
    blob = json.dumps(list(parts), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]

"""Pendulum-on-a-sliding-pivot model with Coulomb friction.

State is the angle q measured from the horizontal (q = 0 and q = pi are the
horizontal positions) and the angular velocity p.  Off the surface p = 0 the
motion is the smooth ODE

    dq/dt = p
    dp/dt = (a(t)/l) sin q - (mu/l) |a(t) cos q - l p^2 + g sin q| sign(p)
            - (g/l) cos q

where a(t) is the prescribed horizontal pivot acceleration.  On p = 0 the
friction term is set-valued and the right-hand side becomes the convex
interval between the two one-sided limits, which `limit_fields` returns.

The field is written by hand in two kernels only: `branch_field` (off the
surface, one friction branch) and `stiction_drift_and_bound` (on p = 0),
from which the one-sided limits are taken; `normal_force` is the argument
of the first one's friction magnitude, whose sign changes are its kinks,
and `branch_jacobian` is the first one's derivative in (q, p).  The
integrator's stages are the first one's forms written out by
tools/gen_stages.py, with the constants of `slip_constants`.  Every
function takes and returns Python floats, but the two kernels also take
the pointwise checks' numpy arrays of samples, importing numpy then.  The
pivot laws are pure Python: a poly law's bounds and level times come from
its Bernstein coefficients (`_bernstein`), with no root-finder.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import numbers
from bisect import bisect_right
from typing import Callable, NamedTuple, Sequence

# Mode labels; these exact strings go into CSV output.
SLIPPING = "slip"
STUCK = "stuck"

_sin = math.sin  # one global lookup in `SinePivot.accel`, called on every sine field evaluation


class _ParamsFields(NamedTuple):
    l: float = 1.0
    m: float = 1.0
    g: float = 9.8
    mu: float = 0.5


class Params(_ParamsFields):
    """Physical constants: rod length l, bob mass m, gravity g, friction mu.

    An immutable tuple, checked when built.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self[:3]):
            if not (value > 0):
                raise ValueError(f"{name} must be positive, got {value}")
        if not (self.mu >= 0):
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        return self

    def to_dict(self) -> dict:
        return self._asdict()


class PivotLaw:
    """Prescribed pivot acceleration a(t), Lipschitz in t.

    Subclasses provide `accel`, an exact or conservative `sup_bound`, and
    set when built `accel_bound` and `lipschitz_bound`, upper bounds of |a|
    and |da/dt| wherever the law is used (a poly law's [0, t_max]), inf
    where they overflow; the release search reads both at every stuck
    stretch.  `sup_bound` must over-estimate max |a| on the interval: the
    velocity trap threshold computed from it is only valid as an upper
    bound.  `accel` maps a float to a float.
    A law that is smooth only piecewise also overrides `piece`.
    """

    kind = "abstract"

    def accel(self, t: float) -> float:
        raise NotImplementedError

    def piece(self, t: float) -> tuple[float, Callable]:
        """(t_end, accel): the end of the smooth piece of a(t) that holds t,
        and an a(t) with the bits of `self.accel` on [t, t_end].  The
        integrator ends a step on every t_end, so that no step straddles a
        kink of a(t): its error estimate assumes a smooth field.  The next
        step starts from the field value at t_end, which both pieces give
        with these bits."""
        return math.inf, self.accel

    def rate(self, t: float) -> float:
        """da/dt at t; on a law smooth only piecewise, that of the piece
        `piece(t)` returns."""
        raise NotImplementedError

    def next_level_time(self, levels: Sequence[float], t: float, t1: float) -> float:
        """The first time in (t, t1) at which a(t) equals one of `levels`,
        else t1; rounding may give one that does not pass t.  The release
        search steps from each to the next, so none may be missed."""
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
        self.accel_bound, self.lipschitz_bound = abs(self.a), 0.0

    def accel(self, t: float) -> float:
        return self.a

    def rate(self, t: float) -> float:
        return 0.0

    def next_level_time(self, levels, t, t1):
        return t1

    def sup_bound(self, t0, t1):
        return abs(self.a)


class SinePivot(PivotLaw):
    """a(t) = amp * sin(omega * t + phase)."""

    kind = "sine"

    def __init__(self, amp: float, omega: float, phase: float = 0.0):
        self.amp = float(amp)
        self.omega = float(omega)
        self.phase = float(phase)
        self.accel_bound, self.lipschitz_bound = abs(self.amp), abs(self.amp * self.omega)

    def accel(self, t: float) -> float:
        return self.amp * _sin(self.omega * t + self.phase)

    def rate(self, t: float) -> float:
        return self.amp * self.omega * math.cos(self.omega * t + self.phase)

    def next_level_time(self, levels, t, t1):
        """The next phase asin(L/amp) or pi - asin(L/amp), modulo 2 pi, past
        the one at t, or the one after it where that rounds back to t."""
        x = self.omega * t + self.phase
        if self.amp == 0.0 or self.omega == 0.0 or not math.isfinite(x):  # NaN past the float range
            return t1
        turn, best = math.copysign(2.0 * math.pi, self.omega), t1
        for level in levels:
            r = level / self.amp
            if not -1.0 <= r <= 1.0:
                continue
            base = math.asin(r)
            for theta in (base, math.pi - base):
                phase = theta + turn * (math.floor((x - theta) / turn) + 1)
                time = (phase - self.phase) / self.omega
                if time <= t:
                    time = (phase + turn - self.phase) / self.omega
                best = min(best, time)
        return best

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


# A poly law's bounds exceed max |a| by at most _BOUND_SLACK of it, plus a
# rounding slack per degree of _ROUNDING of its terms' magnitude sum |c_k| x^k
# (the conversion, a halving and `accel` round by about degree * 2^-53 of it)
# and 2^-1022 below the normal floats.  Past _MAGNITUDE_CAP, it counts as inf.
_BOUND_SLACK, _ROUNDING, _MAGNITUDE_CAP = 2.0 ** -30, 2.0 ** -46, 2.0 ** 1020


def _bernstein(coeffs: Sequence[float], a: float, b: float) -> tuple[list[float], float]:
    """(the Bernstein coefficients on [a, b] of sum_k coeffs[k] t^k, their
    rounding slack).  Their range holds the polynomial's on [a, b] (Lane &
    Riesenfeld, BIT 21, 1981), as that of each half's does on the half."""
    n, h, x = len(coeffs) - 1, b - a, abs(a) + abs(b - a)
    power, magnitude = [coeffs[-1]], abs(coeffs[-1])  # p(a + h u) in powers of u, by Horner
    for c in coeffs[-2::-1]:
        power = [a * power[0] + c] + [a * p + h * q for p, q in zip(power[1:], power)] + [h * power[-1]]
        magnitude = magnitude * x + abs(c)
    coef = [sum(math.comb(i, j) / math.comb(n, j) * power[j] for j in range(i + 1)) for i in range(n + 1)]
    return coef, n * (_ROUNDING * magnitude + 2.0 ** -1022) if magnitude <= _MAGNITUDE_CAP else math.inf


def _halves(coef: list[float]) -> tuple[list[float], list[float]]:
    """The Bernstein coefficients of a piece's halves (de Casteljau; Farouki, CAGD 29, 2012)."""
    left, right = [coef[0]], [coef[-1]]
    while len(coef) > 1:
        coef = [0.5 * (p + q) for p, q in zip(coef, coef[1:])]
        left.append(coef[0])
        right.append(coef[-1])
    return left, right[::-1]


def _abs_bound(coeffs: Sequence[float], a: float, b: float) -> float:
    """An upper bound of |sum_k coeffs[k] t^k| on [a, b], inf where it
    overflows: the largest |Bernstein coefficient| of the pieces, with the
    piece that holds it halved until that is within _BOUND_SLACK of the
    largest |value| at their ends, plus the rounding slack."""
    coef, slack = _bernstein(coeffs, a, b)
    if not slack < math.inf:
        return math.inf
    best, pieces = max(abs(coef[0]), abs(coef[-1])), [(-max(map(abs, coef)), a, b, coef)]
    while True:
        hull, lo, hi, coef = heapq.heappop(pieces)
        mid = lo + 0.5 * (hi - lo)
        if -hull <= best * (1.0 + _BOUND_SLACK) + slack or not lo < mid < hi:
            return slack - hull
        for piece, ends in zip(_halves(coef), ((lo, mid), (mid, hi))):
            heapq.heappush(pieces, (-max(map(abs, piece)), *ends, piece))
        best = max(best, abs(piece[0]))  # the value at mid


class PolyPivot(PivotLaw):
    """a(t) = sum_k coeffs[k] * t^k, used on a bounded window [0, t_max].

    Polynomials are not globally Lipschitz, so the constant is taken over the
    declared window; scenarios must keep their horizon inside it.  Bounds and
    level times come from Bernstein coefficients, with no root-finder.
    """

    kind = "poly"

    def __init__(self, coeffs: Sequence[float], t_max: float = 1000.0):
        if len(coeffs) == 0:
            raise ValueError("poly pivot needs at least one coefficient")
        if not (t_max > 0):
            raise ValueError("t_max must be positive")
        self.coeffs = tuple(float(c) for c in coeffs)
        self.t_max = float(t_max)
        self._slopes = tuple(k * c for k, c in enumerate(self.coeffs))[1:] or (0.0,)  # of a'(t)
        self.accel_bound = _abs_bound(self.coeffs, 0.0, self.t_max)
        self.lipschitz_bound = _abs_bound(self._slopes, 0.0, self.t_max)
        self._level_key = self._level_times = None  # the last (levels, t1) asked, and their times

    def accel(self, t: float) -> float:
        # Polynomial.__call__'s arithmetic in pure Python: the map of the
        # default domain onto itself, 0.0 + 1.0 * t, then polyval's Horner loop
        x = 0.0 + t
        c = self.coeffs
        acc = c[-1] + x * 0
        for ck in c[-2::-1]:
            acc = ck + acc * x
        return acc

    def rate(self, t: float) -> float:
        x, c = 0.0 + t, self._slopes  # `accel`'s arithmetic on a'(t)
        acc = c[-1] + x * 0
        for ck in c[-2::-1]:
            acc = ck + acc * x
        return acc

    def next_level_time(self, levels, t, t1):
        """The times in [0, t1] at which a(t) meets a level, found once per
        stuck stretch from the Bernstein coefficients of a(t) - level.  A
        piece whose coefficients clear 0 by their slack meets it nowhere, on
        `accel`'s arithmetic too.  One they show monotone but for rounding,
        or flat, gives one time: the sign change of a(t) - level between its
        ends, bisected on `accel`, else its end nearer the level.  Any other
        is halved; one too short to halve, or overflowed, gives one time
        too, as an extra time only splits an interval of the release search."""
        if (levels, t1) != self._level_key:
            coef, slack = _bernstein(self.coeffs, 0.0, t1)
            accel, times, n = self.accel, [], len(coef) - 1
            for level in levels:
                room = slack + n * _ROUNDING * abs(level)
                pieces = [(0.0, t1, [c - level for c in coef])]  # the basis sums to 1
                while pieces:
                    lo, hi, piece = pieces.pop()
                    if min(piece) > room or max(piece) < -room:
                        continue
                    mid, steps = lo + 0.5 * (hi - lo), [q - p for p, q in zip(piece, piece[1:])] or [0.0]
                    if lo < mid < hi and max(map(abs, piece)) > room and min(steps) < 0.0 < max(steps):
                        left, right = _halves(piece)
                        pieces += [(mid, hi, right), (lo, mid, left)]
                        continue
                    f_lo, f_hi = accel(lo) - level, accel(hi) - level
                    if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
                        times.append(lo if abs(f_lo) <= abs(f_hi) else hi)
                        continue
                    while lo < mid < hi:
                        lo, hi = (mid, hi) if (accel(mid) < level) == (f_lo < 0.0) else (lo, mid)
                        mid = lo + 0.5 * (hi - lo)
                    times.append(hi)
            self._level_key, self._level_times = (levels, t1), sorted(times)
        i = bisect_right(self._level_times, t)
        return min(self._level_times[i], t1) if i < len(self._level_times) else t1

    def sup_bound(self, t0, t1):
        if t1 < t0:
            raise ValueError("empty interval")
        return _abs_bound(self.coeffs, t0, t1)


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
        slopes = [(v1 - v0) / (t1 - t0) for t0, t1, v0, v1 in zip(ts, ts[1:], vs, vs[1:])]
        # an overflowed slope between finite values would make the line give
        # an infinite a(t) inside its interval
        for t0, v0, v1, slope in zip(ts, vs, vs[1:], slopes):
            if math.isinf(slope) and math.isfinite(v0) and math.isfinite(v1):
                raise ValueError(f"table pivot slope overflows on the interval from t = {t0!r}")
        self.lipschitz_bound = max(abs(slope) for slope in slopes)
        self.accel_bound = max(abs(v) for v in vs)

    def accel(self, t: float) -> float:
        return interp(t, self.times, self.values)

    def rate(self, t: float) -> float:
        ts, vs = self.times, self.values
        j = bisect_right(ts, t)
        if j == 0 or j == len(ts):  # clamped
            return 0.0
        return (vs[j] - vs[j - 1]) / (ts[j] - ts[j - 1])

    def next_level_time(self, levels, t, t1):
        """Where the line of a knot interval meets a level, interval by
        interval from the one that holds t; the clamped ends meet none."""
        ts, vs = self.times, self.values
        for j in range(max(bisect_right(ts, t), 1), len(ts)):
            if ts[j - 1] >= t1:
                break
            t0, v0, v1 = ts[j - 1], vs[j - 1], vs[j]
            slope = (v1 - v0) / (ts[j] - t0)
            lo, hi = min(v0, v1), max(v0, v1)
            met = [min(max(t0 + (v - v0) / slope, t0), ts[j]) for v in levels if slope and lo <= v <= hi]
            best = min((time for time in met if time > t), default=t1)
            if best < t1:
                return best
        return t1

    def piece(self, t: float) -> tuple[float, Callable]:
        """The next knot after t and the line of the interval up to it.

        Strictly inside the interval the line is `interp`'s formula with the
        slope computed once; at the knots, outside the interval and where
        the line gives NaN it is `interp` itself, so it has the bits of
        `accel` everywhere.  Clamped ends stay `accel`.
        """
        ts, vs = self.times, self.values
        j = bisect_right(ts, t)
        if j == 0:
            return ts[0], self.accel
        if j == len(ts):
            return math.inf, self.accel
        t0, t1, v0 = ts[j - 1], ts[j], vs[j - 1]
        slope = (vs[j] - v0) / (t1 - t0)
        accel = self.accel

        def line(t):
            if t0 < t < t1:
                y = slope * (t - t0) + v0
                if y == y:
                    return y
            return accel(t)

        return t1, line

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


def slip_constants(params: Params, branch: float) -> tuple:
    """(l, g, g / l, friction) of `branch_field`'s dp/dt and of the
    integrator's stages written out from it: friction is (mu / l) branch,
    or None where mu = 0 and dp/dt takes its frictionless form."""
    l, g, mu = params.l, params.g, params.mu
    return l, g, g / l, None if mu == 0.0 else (mu / l) * branch


def branch_field(
    params: Params, pivot: PivotLaw, branch: float, accel: Callable | None = None
) -> Callable:
    """The slipping kernel: f(t, q, p) -> (dq/dt, dp/dt) with the friction
    sign frozen to `branch` (1, -1 or 0).

    This is the smooth extension of the slipping field across p = 0; the
    integrator steps it between events, and the checks evaluate it at their
    sample points with the branch of sign(p).  `accel`, when given, stands
    for `pivot.accel`: the integrator passes the one of a `pivot.piece`.
    Its two forms of f are the source of the integrator's inline stages,
    which tools/gen_stages.py writes from them: rerun it after an edit.
    An ndarray `branch` makes the checks' form, for arrays q, p and a(t),
    with numpy's sin and cos.

    The kernel is built for what `params` hold, in one of two forms.  Each
    has the bits of the general form (a/l) s - (mu/l) |N| branch - (g/l) c,
    summed left to right, with s = sin q, c = cos q and N = a c - l p^2 + g s:

    - mu = 0: (a/l) s - (g/l) c.  The friction term is 0.0 |N| branch, a
      zero while |N| is finite, and subtracting a zero changes at most the
      sign of a zero sum, which the last term keeps unless (g/l) c is +0.0.
      So the forms differ only where |N| leaves the float range, where the
      general form gives NaN (0 * inf), and where (g/l) c rounds to +0.0.
    - mu > 0: (mu/l) branch is one constant.  With branch 1 or -1 its
      product with |N| rounds once either way.  With branch 0, which the
      integrator never steps with friction, the general form gives NaN
      where (mu/l) |N| overflows, and this one 0.
    """
    l, g, g_l, friction = slip_constants(params, branch)
    if accel is None:
        accel = pivot.accel
    if isinstance(branch, (int, float)):
        sin, cos = math.sin, math.cos
    else:  # an ndarray of branches: the checks' arrays of samples
        from numpy import cos, sin

    if friction is None:

        def f(t, q, p):
            return p, (accel(t) / l) * sin(q) - g_l * cos(q)

        return f

    def f(t, q, p):
        a = accel(t)
        s, c = sin(q), cos(q)
        return p, (a / l) * s - friction * abs(a * c - l * p * p + g * s) - g_l * c

    return f


def branch_jacobian(params: Params, pivot: PivotLaw, branch: float) -> Callable:
    """The Jacobian of `branch_field`'s dp/dt in (q, p), with the normal
    force: a function (t, q, p, side=0.0) -> (d(dp/dt)/dq, d(dp/dt)/dp, N)
    for the friction sign `branch`; dq/dt = p has the gradient (0, 1).

    With s = sin q, c = cos q and N = a c - l p^2 + g s, and |N|' taken as
    sign(N) N':

        d/dq = (a/l) c + (g/l) s - (mu/l) branch sign(N) (g c - a s)
        d/dp = 2 mu branch sign(N) p

    On the kink N = 0 the sign is `side` (1 or -1), the side of the kink
    the caller steps on; side 0 takes the sign of N as computed, 0 on it.
    """
    l, g = params.l, params.g
    g_l = g / l
    friction = (params.mu / l) * branch
    accel = pivot.accel
    sin, cos = math.sin, math.cos

    def jac(t, q, p, side=0.0):
        a = accel(t)
        s, c = sin(q), cos(q)
        n = a * c - l * p * p + g * s
        if not side:
            side = 1.0 if n > 0.0 else (-1.0 if n < 0.0 else 0.0)
        k = friction * side
        return (a / l) * c + g_l * s - k * (g * c - a * s), 2.0 * l * k * p, n

    return jac


def normal_force(params: Params, pivot: PivotLaw, accel: Callable | None = None) -> Callable:
    """N(t, q, p) = a cos q - l p^2 + g sin q, computed as in `branch_field`,
    whose friction term is proportional to |N|.  The slipping field is
    smooth except where N changes sign, where its derivative jumps; the
    integrator ends a step there.  `accel` is as in `branch_field`."""
    l, g = params.l, params.g
    if accel is None:
        accel = pivot.accel
    sin, cos = math.sin, math.cos

    def normal(t, q, p):
        return accel(t) * cos(q) - l * p * p + g * sin(q)

    return normal


def stiction_drift_and_bound(params: Params, pivot: PivotLaw, q: float, t: float):
    """The on-surface kernel: drift dp/dt and friction capacity on p = 0.

    The one-sided limits are drift -/+ bound, and static friction holds iff
    |drift| <= bound.  The stick/cross rule (on the limits) and the release
    scan (on |drift| - bound) read this one pair, and the sign of a rounded
    sum or difference is exact, so f_plus <= 0 <= f_minus and
    |drift| - bound <= 0 are the same predicate in floating point too.
    `q` may also be an ndarray of angles, for which the pair is arrays.
    """
    a = pivot.accel(t)
    l, g, mu = params.l, params.g, params.mu
    try:
        s, c = math.sin(q), math.cos(q)
    except TypeError:  # an ndarray of angles: the jump check's samples
        from numpy import cos, sin

        s, c = sin(q), cos(q)
    drift = (a / l) * s - (g / l) * c
    bound = (mu / l) * abs(a * c + g * s)
    return drift, bound


def limit_fields(params: Params, pivot: PivotLaw, q: float, t: float):
    """One-sided limits (f_plus_p, f_minus_p) of dp/dt on the plane p = 0.

    f_plus_p is the limit from p > 0, f_minus_p from p < 0; always
    f_plus_p <= f_minus_p, the gap being twice the friction bound.
    """
    drift, bound = stiction_drift_and_bound(params, pivot, q, t)
    return drift - bound, drift + bound


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


def energy(params: Params, q: float, p: float) -> float:
    """Mechanical energy surrogate 0.5 l^2 p^2 + g l sin q (per unit mass).

    Conserved along solutions only when mu = 0 and the pivot is inertial
    (a(t) = 0); used as a drift oracle in that limit.
    """
    return 0.5 * params.l ** 2 * (p * p) + params.g * params.l * math.sin(q)


def fingerprint_of(*parts: dict) -> str:
    """Stable short hash of a sequence of serializable dicts."""
    blob = json.dumps(list(parts), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]

"""Event-driven time stepping for the friction pendulum.

Between events the motion follows one ODE, the slipping field with the
friction sign frozen to the current branch, smooth but for the kinks of its
friction term and the knots of a table pivot law.  One generator (`_slip`)
steps each such stretch with the Dormand-Prince 8(5,3) pair (DOP853), and a
step that would cross a kink or a knot is cut to end on it.  Its stages
evaluate `model.branch_field`'s expressions inline, as tools/gen_stages.py
writes them, with one pivot-law call each.
Events are detected on each step's quintic Hermite, which the step's ends
and their field values give for free, and located on DOP853's 7th-order
dense output, whose three extra stages are formed only where detection
fires or a recorded time falls.  Steps are cut at roots of p so that no
accepted step straddles the switching surface, and the surface itself is
handled by classifying the one-sided limit fields: either the trajectory
crosses and is re-seeded on the far side, or it sticks and time is advanced
analytically at fixed angle until static friction is defeated, which can
happen only where the pivot acceleration meets one of two levels.  Each
integration takes at most `_MAX_STEPS` steps.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from .model import (
    SLIPPING,
    STUCK,
    ConstantPivot,
    Params,
    PivotLaw,
    State,
    branch_field,
    fingerprint_of,
    limit_fields,
    normal_force,
    p_star,
    slip_constants,
    stiction_drift_and_bound,
)

# Event kinds
CROSSING = "crossing"
STICK_ENTRY = "stick_entry"
STICK_RELEASE = "stick_release"
HORIZON = "horizon"
REGION_EXIT = "region_exit"

SIDE_LOW = "low"
SIDE_HIGH = "high"


class IntegrationError(RuntimeError):
    pass


class StepUnderflow(IntegrationError):
    """Required step fell below 1e-14 s; the problem is pathologically stiff
    for this explicit scheme or the tolerances are inconsistent."""


class StepLimit(IntegrationError):
    """More steps in one integration, or more intervals in one release search,
    than `_MAX_STEPS`: a step cap or a pivot law too fine for the horizon."""


class TrapViolation(IntegrationError):
    """A produced trajectory violated the velocity trap |p| <= p_star."""


class _TolerancesFields(NamedTuple):
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    event_tol: float = 1e-10
    stick_band: float = 1e-8
    max_dt: float = 0.05


class Tolerances(_TolerancesFields):
    """Step-size and event-localization controls.

    stick_band is the |p| half-width inside which a state is considered to
    be on the switching surface; it must dominate abs_tol by a safe margin
    so that projection onto p = 0 never fights the error control.  An
    immutable tuple, checked when built.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not (value > 0):
                raise ValueError(f"{name} must be strictly positive")
        if self.stick_band < 10 * self.abs_tol:
            raise ValueError("stick_band must be at least 10 * abs_tol")
        return self

    def scaled(self, factor: float) -> "Tolerances":
        """Same controls with every tolerance but the step cap `max_dt`
        tightened by `factor`."""
        return Tolerances(*(value / factor for value in self[:4]), self.max_dt)

    def to_dict(self) -> dict:
        return self._asdict()


class Event(NamedTuple):
    t: float
    q: float
    kind: str
    direction: int | None = None  # crossing / stick_release: sign of p after
    side: str | None = None  # region_exit: "low" | "high"

    def to_dict(self) -> dict:
        d = {"t": self.t, "q": self.q, "kind": self.kind}
        if self.direction is not None:
            d["direction"] = self.direction
        if self.side is not None:
            d["side"] = self.side
        return d


class Trajectory:
    """Time-ordered samples plus the switching events that separate them."""

    __slots__ = ("samples", "events", "recorded", "setup")

    def __init__(self, setup: tuple = ()):
        self.samples: list[tuple[float, float, float, str]] = []
        self.events: list[Event] = []
        self.recorded: list[State] = []
        # (params, pivot, tol) of the run; `params_fingerprint` hashes them
        self.setup = setup

    @property
    def params_fingerprint(self) -> str:
        """Fingerprint of the run's params, pivot law and tolerances, hashed
        when read; "" for a trajectory read back from CSV."""
        return fingerprint_of(*(part.to_dict() for part in self.setup)) if self.setup else ""

    def append(self, t: float, q: float, p: float, mode: str):
        self.samples.append((t, q, p, mode))

    @property
    def final(self) -> State:
        t, q, p, mode = self.samples[-1]
        return State(q=q, p=p, t=t, mode=mode)

    def to_csv(self) -> str:
        rows = [f"{t!r},{q!r},{p!r},{mode}\n" for t, q, p, mode in self.samples]
        return "t,q,p,mode\n" + "".join(rows)

    @staticmethod
    def read_csv(fh) -> "Trajectory":
        header = fh.readline().strip()
        if header != "t,q,p,mode":
            raise ValueError(f"unexpected trajectory header: {header!r}")
        traj = Trajectory()
        for line in fh:
            if not line.strip():
                continue
            t, q, p, mode = line.strip().split(",")
            traj.append(float(t), float(q), float(p), mode)
        return traj


# --- Dormand-Prince 8(5,3) ---------------------------------------------------
#
# The coefficients of Hairer's DOP853 (Prince & Dormand 1981), rounded to
# double precision.  The nonzero a_ij and weights are named, and the
# written-out sums below leave the zero ones out.  Stage 11 sits at t + h,
# and stage 12 is the first-same-as-last field value at the step's end.
# Stages 13-15 are formed only for the dense output.
# the nodes c_i of stages 1-11
_C1, _C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11 = (
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
)
# the nonzero a_ij, row by row: stages 1-11
_A1_0 = 0.05260015195876773
_A2_0, _A2_1 = 0.0197250569845379, 0.0591751709536137
_A3_0, _A3_2 = 0.02958758547680685, 0.08876275643042054
_A4_0, _A4_2, _A4_3 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_A5_0, _A5_3, _A5_4 = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
_A6_0, _A6_3, _A6_4, _A6_5 = 0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125
_A7_0, _A7_3, _A7_4, _A7_5, _A7_6 = (
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
    0.008273789163814023,
)
_A8_0, _A8_3, _A8_4, _A8_5, _A8_6, _A8_7 = (
    0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996,
)
_A9_0, _A9_3, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8 = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627,
)
_A10_0, _A10_3, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9 = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196,
)
_A11_0, _A11_3, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10 = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636,
)
# the nonzero weights b_j of the 8th-order solution (row 12 of a_ij)
_B0, _B5, _B6, _B7, _B8, _B9, _B10, _B11 = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
)
# the nonzero weights of the 5th- and the 3rd-order error estimates
_E5_0, _E5_5, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11 = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
)
_E3_0, _E3_5, _E3_6, _E3_7, _E3_8, _E3_9, _E3_10, _E3_11 = (
    -0.18980075407240762, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082,
)
# the nodes and the nonzero a_ij of the dense output's stages 13-15
_C13, _C14, _C15 = 0.1, 0.2, 0.7777777777777778
_A13_0, _A13_6, _A13_7, _A13_8, _A13_9, _A13_10, _A13_11, _A13_12 = (
    0.056167502283047954, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
    0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298,
)
_A14_0, _A14_5, _A14_6, _A14_7, _A14_10, _A14_11, _A14_12, _A14_13 = (
    0.03183464816350214, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
)
_A15_0, _A15_5, _A15_6, _A15_7, _A15_8, _A15_12, _A15_13, _A15_14 = (
    -0.42889630158379194, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987,
)
# the nonzero weights d_j of the dense output's rows 3-6, over stages 0-15
_D3_0, _D3_5, _D3_6, _D3_7, _D3_8, _D3_9, _D3_10, _D3_11, _D3_12, _D3_13, _D3_14, _D3_15 = (
    -8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
    2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894,
)
_D4_0, _D4_5, _D4_6, _D4_7, _D4_8, _D4_9, _D4_10, _D4_11, _D4_12, _D4_13, _D4_14, _D4_15 = (
    10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
    -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
    15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408,
)
_D5_0, _D5_5, _D5_6, _D5_7, _D5_8, _D5_9, _D5_10, _D5_11, _D5_12, _D5_13, _D5_14, _D5_15 = (
    19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
    -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
    -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279,
)
_D6_0, _D6_5, _D6_6, _D6_7, _D6_8, _D6_9, _D6_10, _D6_11, _D6_12, _D6_13, _D6_14, _D6_15 = (
    -25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
    93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
    -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564,
)

_MIN_STEP = 1e-14
# The most steps one integration may take, and the most intervals one
# release search may examine.  Over every op of every benchmark design and
# every golden input, the most steps one integration took was 4,277 and the
# most intervals one search examined was 2 (only touches of a level, not
# crossings, add more); the budget leaves a margin of about 23 times.  At
# tens of microseconds a step it stops, within seconds, a run that would not
# end in hours.  It bounds the events too: each crossing or stick entry ends
# a stretch of at least one step, and each release follows a stick entry, so
# a run has at most 2 * _MAX_STEPS + 3 events, counting a stick entry at the
# start, a release from a stuck start and the final event.
_MAX_STEPS = 100_000

# An event scan is skipped only when the Bernstein coefficients of the step's
# Hermite clear the event level by this multiple of the magnitudes of the
# terms that form them, about 1e4 times their rounding.  So a skip is one that
# no point of that Hermite could have contradicted.  The absolute floor
# covers the rounding of subnormal terms.
_EXCLUSION_SLACK = 1e-12
_EXCLUSION_FLOOR = 1e-300
_INF = math.inf
_NEG_INF = -math.inf


class DenseSegment:
    """The 7th-order dense output of one accepted step on [t0, t0 + h]:

        x(theta) = x0 + theta (r0 + (1 - theta) (r1 + theta (r2 + (1 - theta)
                   (r3 + theta (r4 + (1 - theta) (r5 + theta r6))))))

    for the rows r of q (`rq`) and of p (`rp`).  `of_step` forms them from a
    step's stages and three more; a segment is built only where an event or
    a kink of the friction term is located, or a recorded time falls: under
    a dense `record_at`, as the dependence check asks, on most steps."""

    __slots__ = ("t0", "h", "q0", "p0", "rq", "rp")

    def __init__(self, t0: float, h: float, q0: float, p0: float, rq: tuple, rp: tuple):
        self.t0 = t0
        self.h = h
        self.q0 = q0
        self.p0 = p0
        self.rq = rq
        self.rp = rp

    @classmethod
    def of_step(cls, f, t0, h, q0, p0, q1, p1, kq, kp) -> "DenseSegment":
        """The segment of the step of size h from (t0, q0, p0) to (q1, p1)
        with stages kq, kp (0-12) of the field f.  Stages 13-15 and the rows
        are written out as `_slip`'s stages are: each sum in the order of the
        tableau, its zero entries left out, and each row's sum from 0.0, so
        the arithmetic is that of a loop over the nonzero entries."""
        kq0, _, _, _, _, kq5, kq6, kq7, kq8, kq9, kq10, kq11, kq12 = kq
        kp0, _, _, _, _, kp5, kp6, kp7, kp8, kp9, kp10, kp11, kp12 = kp
        w0, w6, w7, w8, w9, w10, w11, w12 = (
            h * _A13_0, h * _A13_6, h * _A13_7, h * _A13_8, h * _A13_9, h * _A13_10, h * _A13_11,
            h * _A13_12,
        )
        kq13, kp13 = f(
            t0 + _C13 * h,
            q0 + w0 * kq0 + w6 * kq6 + w7 * kq7 + w8 * kq8 + w9 * kq9 + w10 * kq10 + w11 * kq11
            + w12 * kq12,
            p0 + w0 * kp0 + w6 * kp6 + w7 * kp7 + w8 * kp8 + w9 * kp9 + w10 * kp10 + w11 * kp11
            + w12 * kp12,
        )
        w0, w5, w6, w7, w10, w11, w12, w13 = (
            h * _A14_0, h * _A14_5, h * _A14_6, h * _A14_7, h * _A14_10, h * _A14_11, h * _A14_12,
            h * _A14_13,
        )
        kq14, kp14 = f(
            t0 + _C14 * h,
            q0 + w0 * kq0 + w5 * kq5 + w6 * kq6 + w7 * kq7 + w10 * kq10 + w11 * kq11 + w12 * kq12
            + w13 * kq13,
            p0 + w0 * kp0 + w5 * kp5 + w6 * kp6 + w7 * kp7 + w10 * kp10 + w11 * kp11 + w12 * kp12
            + w13 * kp13,
        )
        w0, w5, w6, w7, w8, w12, w13, w14 = (
            h * _A15_0, h * _A15_5, h * _A15_6, h * _A15_7, h * _A15_8, h * _A15_12, h * _A15_13,
            h * _A15_14,
        )
        kq15, kp15 = f(
            t0 + _C15 * h,
            q0 + w0 * kq0 + w5 * kq5 + w6 * kq6 + w7 * kq7 + w8 * kq8 + w12 * kq12 + w13 * kq13
            + w14 * kq14,
            p0 + w0 * kp0 + w5 * kp5 + w6 * kp6 + w7 * kp7 + w8 * kp8 + w12 * kp12 + w13 * kp13
            + w14 * kp14,
        )
        dq, dp = q1 - q0, p1 - p0
        rq = (
            dq,
            h * kq0 - dq,
            2.0 * dq - h * (kq12 + kq0),
            h * (
                0.0 + _D3_0 * kq0 + _D3_5 * kq5 + _D3_6 * kq6 + _D3_7 * kq7 + _D3_8 * kq8
                + _D3_9 * kq9 + _D3_10 * kq10 + _D3_11 * kq11 + _D3_12 * kq12 + _D3_13 * kq13
                + _D3_14 * kq14 + _D3_15 * kq15
            ),
            h * (
                0.0 + _D4_0 * kq0 + _D4_5 * kq5 + _D4_6 * kq6 + _D4_7 * kq7 + _D4_8 * kq8
                + _D4_9 * kq9 + _D4_10 * kq10 + _D4_11 * kq11 + _D4_12 * kq12 + _D4_13 * kq13
                + _D4_14 * kq14 + _D4_15 * kq15
            ),
            h * (
                0.0 + _D5_0 * kq0 + _D5_5 * kq5 + _D5_6 * kq6 + _D5_7 * kq7 + _D5_8 * kq8
                + _D5_9 * kq9 + _D5_10 * kq10 + _D5_11 * kq11 + _D5_12 * kq12 + _D5_13 * kq13
                + _D5_14 * kq14 + _D5_15 * kq15
            ),
            h * (
                0.0 + _D6_0 * kq0 + _D6_5 * kq5 + _D6_6 * kq6 + _D6_7 * kq7 + _D6_8 * kq8
                + _D6_9 * kq9 + _D6_10 * kq10 + _D6_11 * kq11 + _D6_12 * kq12 + _D6_13 * kq13
                + _D6_14 * kq14 + _D6_15 * kq15
            ),
        )
        rp = (
            dp,
            h * kp0 - dp,
            2.0 * dp - h * (kp12 + kp0),
            h * (
                0.0 + _D3_0 * kp0 + _D3_5 * kp5 + _D3_6 * kp6 + _D3_7 * kp7 + _D3_8 * kp8
                + _D3_9 * kp9 + _D3_10 * kp10 + _D3_11 * kp11 + _D3_12 * kp12 + _D3_13 * kp13
                + _D3_14 * kp14 + _D3_15 * kp15
            ),
            h * (
                0.0 + _D4_0 * kp0 + _D4_5 * kp5 + _D4_6 * kp6 + _D4_7 * kp7 + _D4_8 * kp8
                + _D4_9 * kp9 + _D4_10 * kp10 + _D4_11 * kp11 + _D4_12 * kp12 + _D4_13 * kp13
                + _D4_14 * kp14 + _D4_15 * kp15
            ),
            h * (
                0.0 + _D5_0 * kp0 + _D5_5 * kp5 + _D5_6 * kp6 + _D5_7 * kp7 + _D5_8 * kp8
                + _D5_9 * kp9 + _D5_10 * kp10 + _D5_11 * kp11 + _D5_12 * kp12 + _D5_13 * kp13
                + _D5_14 * kp14 + _D5_15 * kp15
            ),
            h * (
                0.0 + _D6_0 * kp0 + _D6_5 * kp5 + _D6_6 * kp6 + _D6_7 * kp7 + _D6_8 * kp8
                + _D6_9 * kp9 + _D6_10 * kp10 + _D6_11 * kp11 + _D6_12 * kp12 + _D6_13 * kp13
                + _D6_14 * kp14 + _D6_15 * kp15
            ),
        )
        return cls(t0, h, q0, p0, rq, rp)

    def eval(self, theta: float) -> tuple[float, float]:
        th = theta
        u = 1.0 - th
        r0, r1, r2, r3, r4, r5, r6 = self.rq
        s0, s1, s2, s3, s4, s5, s6 = self.rp
        # the nested form from the innermost row out, from an accumulator of 0.0
        acc_q = (((((((0.0 + r6) * th + r5) * u + r4) * th + r3) * u + r2) * th + r1) * u + r0) * th
        acc_p = (((((((0.0 + s6) * th + s5) * u + s4) * th + s3) * u + s2) * th + s1) * u + s0) * th
        return self.q0 + acc_q, self.p0 + acc_p


def _levels(lo: float, hi: float, mag: float) -> tuple[float, float]:
    """(lo + slack, hi - slack): the levels a Bernstein coefficient of
    magnitude sum `mag` must lie strictly between.  An end may be infinite."""
    end_lo = 0.0 if lo == _NEG_INF else abs(lo)
    end_hi = 0.0 if hi == _INF else abs(hi)
    slack = _EXCLUSION_SLACK * (mag + end_lo + end_hi) + _EXCLUSION_FLOOR
    return lo + slack, hi - slack


def _hermite_q_clear(h, q0, p0, f0, q1, p1, f1, lo, hi) -> bool:
    """Whether the quintic Hermite of q on a step of size h, the polynomial
    with value q, slope p and second derivative f = dp/dt at both ends,
    stays inside (lo, hi) with room for rounding.

    It lies in the convex hull of its Bernstein coefficients q0,
    q0 + h p0/5, q0 + 2h p0/5 + h^2 f0/20, q1 - 2h p1/5 + h^2 f1/20,
    q1 - h p1/5 and q1; the slack covers their rounding.  A non-finite
    value never clears.
    """
    u0, u1 = h * p0 / 5.0, h * p1 / 5.0
    v0, v1 = h * h * f0 / 20.0, h * h * f1 / 20.0
    b1 = q0 + u0
    b2 = q0 + 2.0 * u0 + v0
    b3 = q1 - 2.0 * u1 + v1
    b4 = q1 - u1
    mag = abs(q0) + abs(q1) + 2.0 * (abs(u0) + abs(u1)) + abs(v0) + abs(v1)
    a, z = _levels(lo, hi, mag)
    return a < q0 < z and a < b1 < z and a < b2 < z and a < b3 < z and a < b4 < z and a < q1 < z


def _hermite_p_clear(h, q0, p0, f0, q1, p1, f1, lo, hi) -> bool:
    """Whether the derivative of that Hermite, a quartic in p, stays inside
    (lo, hi) with room for rounding.  Its Bernstein coefficients are p0,
    p0 + h f0/4, 5 (b3 - b2)/h = 5 (q1 - q0)/h - 2 (p0 + p1) + h (f1 - f0)/4,
    p1 - h f1/4 and p1, the middle one formed from q1 - q0 so that its
    rounding scales with p and not with q/h."""
    u0, u1 = h * f0 / 4.0, h * f1 / 4.0
    d = 5.0 * (q1 - q0) / h
    c2 = d - 2.0 * (p0 + p1) + (u1 - u0)
    mag = abs(d) + 3.0 * (abs(p0) + abs(p1)) + 2.0 * (abs(u0) + abs(u1))
    a, z = _levels(lo, hi, mag)
    return a < p0 < z and a < p0 + u0 < z and a < c2 < z and a < p1 - u1 < z and a < p1 < z


def _initial_step(q: float, p: float, dq: float, dp: float, tol: Tolerances) -> float:
    """Hairer-style starting step: scale off the field magnitude (dq, dp) at t0."""
    d0 = math.hypot(q, p)
    d1 = math.hypot(dq, dp)
    scale = tol.abs_tol + tol.rel_tol * max(d0, 1.0)
    if d1 <= 1e-12:
        h = tol.max_dt
    else:
        h = 0.01 * scale ** 0.125 / max(d1, 1e-12) ** 0.125
        h = min(h, 0.1 * (1.0 + d0) / d1)
    return max(min(h, tol.max_dt), _MIN_STEP * 10)


class StepResult(NamedTuple):
    state: State
    h_used: float
    h_next: float
    hit_switch: bool


def _first_exit(seg: DenseSegment, i: int, theta_end: float, lo: float, hi: float):
    """First scan point theta in (0, theta_end] where the dense q (i = 0) or
    p (i = 1) reaches x <= lo or x >= hi, or is NaN, as the overflowed rows
    of an accepted step can give: (theta_a, theta_b, x) with theta_a the
    scan point before it, or None.  An end may be infinite.

    The dense output is scanned on a fixed subdivision; a transversal
    crossing cannot hide between scan points at the scales the step
    controller allows.  The caller runs it only on a step whose Hermite test
    did not clear.
    """
    n = 16
    prev_theta = 0.0
    for k in range(1, n + 1):
        th = theta_end * k / n
        x = seg.eval(th)[i]
        if not lo < x < hi:
            return prev_theta, th, x
        prev_theta = th
    return None


def _bisect_switch(seg: DenseSegment, tol: Tolerances, bracket) -> tuple[float, float, float]:
    """Bisect the dense interpolant for the p = 0 point inside `bracket`.

    Returns (t, q, p) with |p| <= stick_band / 10 and the time window
    narrowed below event_tol.
    """
    lo, hi = bracket
    _, p_lo = seg.eval(lo)
    target = tol.stick_band / 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        _, p_mid = seg.eval(mid)
        if (p_mid > 0) == (p_lo > 0) and p_mid != 0.0:
            lo, p_lo = mid, p_mid
        else:
            hi = mid
        if (hi - lo) * abs(seg.h) <= tol.event_tol:
            _, p_here = seg.eval(hi)
            if abs(p_here) <= target:
                break
    theta = hi
    q, p = seg.eval(theta)
    return seg.t0 + theta * seg.h, q, p


# A kink of the friction term this close to a step's start, in units of the
# step, is stepped over: it costs the step an error of order the square of
# its distance, and a step that starts on the kink, where the normal force
# rounds either way, is not cut again.
_KINK_AT_START = 2.0 ** -20


def _kink_theta(seg: DenseSegment, normal, positive: bool) -> float:
    """A theta in (0, 1] within 2^-60 past where the normal force on the
    dense output leaves the side `positive` (N > 0)."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        q, p = seg.eval(mid)
        if (normal(seg.t0 + mid * seg.h, q, p) > 0.0) == positive:
            lo = mid
        else:
            hi = mid
    return hi


def _branch_pieces(params: Params, pivot: PivotLaw, branch: float):
    """`_slip`'s piece(t) -> (t_end, field, normal, accel) on the branch
    `branch`: the end of `pivot.piece(t)`, the field and normal force (None
    without friction) of its a(t), and that a(t)."""
    frictional = params.mu != 0.0

    def piece(t):
        t_end, accel = pivot.piece(t)
        normal = normal_force(params, pivot, accel) if frictional else None
        return t_end, branch_field(params, pivot, branch, accel), normal, accel

    return piece


def _slip(piece, consts, branch, t, q, p, h, t_end, tol):
    """The accepted steps of one slipping stretch, from (t, q, p) to the
    next event, with the friction sign frozen to `branch`.  piece(t) gives
    (t_limit, f, normal, accel): the end of the pivot law's smooth piece
    that holds t, the field there, its normal force, None without friction,
    and its a(t).  consts are `model.slip_constants(params, branch)`.

    Each step is yielded as (t, h, q, p, f, kq, kp, seg, t1, q1, p1, h_next,
    switch): its start, size, field and stages 0-12, the DenseSegment of
    them if the p = 0 test formed one (else None), its end, the step to try
    next, and, on a step that ends the stretch on p = 0, the (t, q, p)
    there, with |p| <= stick_band / 10 (else None).  With friction, a step
    whose dense p brackets 0 is cut there, so no step straddles a sign
    change; that step ends the stretch, as does one that leaves the branch
    or reaches `t_end`.  Without friction the field is the same on either
    branch, and only `t_end` ends the stretch.  The p = 0 test is the
    Hermite test of p (`_hermite_p_clear`), which needs no field
    evaluation; only a step it does not clear gets a segment, whose scan
    (`_first_exit`) and bisection locate the root.

    Each attempt is one DOP853 step to the end time t1, which is t + h or a
    time that t + h only rounds near.  Every stage sum is written out in the
    order of the tableau, its zero entries left out, so the arithmetic is
    that of a loop over the tableau's nonzero entries.  Stages 1-12 call no
    field: tools/gen_stages.py writes each as f's expressions in
    `branch_field`, dq/dt its p sum and dp/dt at its q sum and
    a = accel(t + c_i h), frictionless where consts' friction is None; with
    friction, stage 12's normal force stands for normal(t1, q1, p1).  The
    products h * a_ij, h * b_j and c_i * h are formed once per step size,
    when h differs from the one they were formed for, and read by every
    attempt of that size; a rejection, a landing and a kink cut each change
    h.  The error is Hairer's combination of the 5th- and 3rd-order
    estimates, and the step factor is 0.9 * err ** -1/8 within [0.2, 5].
    At the cap max_dt, a step whose 5th-order estimate alone bounds that
    error by 0.4 (h^2 err5 <= 0.32), and whose 3rd-order one is not NaN, is
    accepted with max_dt as the next step, as the norm would decide,
    without forming the norm or the step factor.  A step that reaches a
    piece's end or `t_end` is cut to end on it exactly, with its last stage evaluated
    there, and passes on as `h_next` no less than the step it was cut from,
    so a cut to a knot of the pivot law does not shrink the steps after it;
    past a piece's end the next piece's field and normal force take over,
    and that last stage stays the next first stage, as `PivotLaw.piece`
    gives both pieces the bits of `accel` there.  An accepted step over which
    the normal force changes sign is cut the same way to end where its
    dense output does (`_kink_theta`): the friction term's derivative jumps
    there, and the error estimate, which assumes a smooth field, misses
    what that costs; a kink within `_KINK_AT_START` of the step's start is
    stepped over.  Each step's first stage is the last stage of the step
    before (FSAL); that last stage is evaluated only on an accepted
    attempt.  The first step's is f(t, q, p), which rejected attempts share,
    as does the starting-step estimate when `h` is None.  A None `normal`
    drops the p = 0 test and the kink cuts, whatever form the stages take.
    """
    t_limit, f, normal, accel = piece(t)
    t_limit = min(t_end, t_limit)
    l, g, g_l, friction = consts
    frictional = normal is not None
    if frictional and branch == 0.0:
        raise ValueError("stepping requires p != 0 when mu > 0")
    kq0, kp0 = f(t, q, p)
    if h is None:
        h = _initial_step(q, p, kq0, kp0, tol)
    abs_tol, rel_tol, max_dt = tol.abs_tol, tol.rel_tol, tol.max_dt
    sqrt, sin, cos = math.sqrt, math.sin, math.cos
    e5_0, e5_5, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11 = (
        _E5_0, _E5_5, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11
    )
    e3_0, e3_5, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11 = (
        _E3_0, _E3_5, _E3_6, _E3_7, _E3_8, _E3_9, _E3_10, _E3_11
    )
    h_w = None  # the h that the stage weights below were formed for
    # the p = 0 test's ends: p keeps the sign of `branch` inside the stretch
    p_lo, p_hi = (0.0, _INF) if branch > 0 else (_NEG_INF, 0.0)
    # the side of the friction term's kink the step starts on
    n_pos = n_end = frictional and normal(t, q, p) > 0.0
    while True:
        h = min(h, max_dt)
        h_uncut = h
        t1 = t + h
        landing = t_limit - t <= h
        if landing:
            h, t1 = t_limit - t, t_limit
        if h <= 0:
            raise ValueError("no room to step before t_limit")
        on_kink = False
        while True:
            if h != h_w:
                # each h * a_ij, h * b_j and c_i * h, one tableau row a line
                h_w = h
                wa1_0 = h * _A1_0
                wa2_0, wa2_1 = h * _A2_0, h * _A2_1
                wa3_0, wa3_2 = h * _A3_0, h * _A3_2
                wa4_0, wa4_2, wa4_3 = h * _A4_0, h * _A4_2, h * _A4_3
                wa5_0, wa5_3, wa5_4 = h * _A5_0, h * _A5_3, h * _A5_4
                wa6_0, wa6_3, wa6_4, wa6_5 = h * _A6_0, h * _A6_3, h * _A6_4, h * _A6_5
                wa7_0, wa7_3, wa7_4, wa7_5, wa7_6 = (
                    h * _A7_0, h * _A7_3, h * _A7_4, h * _A7_5, h * _A7_6
                )
                wa8_0, wa8_3, wa8_4, wa8_5, wa8_6, wa8_7 = (
                    h * _A8_0, h * _A8_3, h * _A8_4, h * _A8_5, h * _A8_6, h * _A8_7
                )
                wa9_0, wa9_3, wa9_4, wa9_5, wa9_6, wa9_7, wa9_8 = (
                    h * _A9_0, h * _A9_3, h * _A9_4, h * _A9_5, h * _A9_6, h * _A9_7, h * _A9_8
                )
                wa10_0, wa10_3, wa10_4, wa10_5, wa10_6, wa10_7, wa10_8, wa10_9 = (
                    h * _A10_0, h * _A10_3, h * _A10_4, h * _A10_5, h * _A10_6, h * _A10_7,
                    h * _A10_8, h * _A10_9,
                )
                wa11_0, wa11_3, wa11_4, wa11_5, wa11_6, wa11_7, wa11_8, wa11_9, wa11_10 = (
                    h * _A11_0, h * _A11_3, h * _A11_4, h * _A11_5, h * _A11_6, h * _A11_7,
                    h * _A11_8, h * _A11_9, h * _A11_10,
                )
                wb0, wb5, wb6, wb7, wb8, wb9, wb10, wb11 = (
                    h * _B0, h * _B5, h * _B6, h * _B7, h * _B8, h * _B9, h * _B10, h * _B11
                )
                hc1, hc2, hc3, hc4, hc5, hc6, hc7, hc8, hc9, hc10, hc11 = (
                    _C1 * h, _C2 * h, _C3 * h, _C4 * h, _C5 * h, _C6 * h, _C7 * h, _C8 * h,
                    _C9 * h, _C10 * h, _C11 * h,
                )
            # BEGIN stages 1-11, written by tools/gen_stages.py from model.branch_field
            x = q + wa1_0 * kq0
            kq1 = p + wa1_0 * kp0
            a = accel(t + hc1)
            if friction is None:
                kp1 = (a / l) * sin(x) - g_l * cos(x)
            else:
                s, c = sin(x), cos(x)
                kp1 = (a / l) * s - friction * abs(a * c - l * kq1 * kq1 + g * s) - g_l * c
            x = q + wa2_0 * kq0 + wa2_1 * kq1
            kq2 = p + wa2_0 * kp0 + wa2_1 * kp1
            a = accel(t + hc2)
            if friction is None:
                kp2 = (a / l) * sin(x) - g_l * cos(x)
            else:
                s, c = sin(x), cos(x)
                kp2 = (a / l) * s - friction * abs(a * c - l * kq2 * kq2 + g * s) - g_l * c
            x = q + wa3_0 * kq0 + wa3_2 * kq2
            kq3 = p + wa3_0 * kp0 + wa3_2 * kp2
            a = accel(t + hc3)
            if friction is None:
                kp3 = (a / l) * sin(x) - g_l * cos(x)
            else:
                s, c = sin(x), cos(x)
                kp3 = (a / l) * s - friction * abs(a * c - l * kq3 * kq3 + g * s) - g_l * c
            x = q + wa4_0 * kq0 + wa4_2 * kq2 + wa4_3 * kq3
            kq4 = p + wa4_0 * kp0 + wa4_2 * kp2 + wa4_3 * kp3
            a = accel(t + hc4)
            if friction is None:
                kp4 = (a / l) * sin(x) - g_l * cos(x)
            else:
                s, c = sin(x), cos(x)
                kp4 = (a / l) * s - friction * abs(a * c - l * kq4 * kq4 + g * s) - g_l * c
            x = q + wa5_0 * kq0 + wa5_3 * kq3 + wa5_4 * kq4
            kq5 = p + wa5_0 * kp0 + wa5_3 * kp3 + wa5_4 * kp4
            a = accel(t + hc5)
            if friction is None:
                kp5 = (a / l) * sin(x) - g_l * cos(x)
            else:
                s, c = sin(x), cos(x)
                kp5 = (a / l) * s - friction * abs(a * c - l * kq5 * kq5 + g * s) - g_l * c
            x = q + wa6_0 * kq0 + wa6_3 * kq3 + wa6_4 * kq4 + wa6_5 * kq5
            kq6 = p + wa6_0 * kp0 + wa6_3 * kp3 + wa6_4 * kp4 + wa6_5 * kp5
            a = accel(t + hc6)
            if friction is None:
                kp6 = (a / l) * sin(x) - g_l * cos(x)
            else:
                s, c = sin(x), cos(x)
                kp6 = (a / l) * s - friction * abs(a * c - l * kq6 * kq6 + g * s) - g_l * c
            x = q + wa7_0 * kq0 + wa7_3 * kq3 + wa7_4 * kq4 + wa7_5 * kq5 + wa7_6 * kq6
            kq7 = p + wa7_0 * kp0 + wa7_3 * kp3 + wa7_4 * kp4 + wa7_5 * kp5 + wa7_6 * kp6
            a = accel(t + hc7)
            if friction is None:
                kp7 = (a / l) * sin(x) - g_l * cos(x)
            else:
                s, c = sin(x), cos(x)
                kp7 = (a / l) * s - friction * abs(a * c - l * kq7 * kq7 + g * s) - g_l * c
            x = (q + wa8_0 * kq0 + wa8_3 * kq3 + wa8_4 * kq4 + wa8_5 * kq5 + wa8_6 * kq6
                 + wa8_7 * kq7)
            kq8 = (p + wa8_0 * kp0 + wa8_3 * kp3 + wa8_4 * kp4 + wa8_5 * kp5 + wa8_6 * kp6
                   + wa8_7 * kp7)
            a = accel(t + hc8)
            if friction is None:
                kp8 = (a / l) * sin(x) - g_l * cos(x)
            else:
                s, c = sin(x), cos(x)
                kp8 = (a / l) * s - friction * abs(a * c - l * kq8 * kq8 + g * s) - g_l * c
            x = (q + wa9_0 * kq0 + wa9_3 * kq3 + wa9_4 * kq4 + wa9_5 * kq5 + wa9_6 * kq6
                 + wa9_7 * kq7 + wa9_8 * kq8)
            kq9 = (p + wa9_0 * kp0 + wa9_3 * kp3 + wa9_4 * kp4 + wa9_5 * kp5 + wa9_6 * kp6
                   + wa9_7 * kp7 + wa9_8 * kp8)
            a = accel(t + hc9)
            if friction is None:
                kp9 = (a / l) * sin(x) - g_l * cos(x)
            else:
                s, c = sin(x), cos(x)
                kp9 = (a / l) * s - friction * abs(a * c - l * kq9 * kq9 + g * s) - g_l * c
            x = (q + wa10_0 * kq0 + wa10_3 * kq3 + wa10_4 * kq4 + wa10_5 * kq5 + wa10_6 * kq6
                 + wa10_7 * kq7 + wa10_8 * kq8 + wa10_9 * kq9)
            kq10 = (p + wa10_0 * kp0 + wa10_3 * kp3 + wa10_4 * kp4 + wa10_5 * kp5 + wa10_6 * kp6
                    + wa10_7 * kp7 + wa10_8 * kp8 + wa10_9 * kp9)
            a = accel(t + hc10)
            if friction is None:
                kp10 = (a / l) * sin(x) - g_l * cos(x)
            else:
                s, c = sin(x), cos(x)
                kp10 = (a / l) * s - friction * abs(a * c - l * kq10 * kq10 + g * s) - g_l * c
            x = (q + wa11_0 * kq0 + wa11_3 * kq3 + wa11_4 * kq4 + wa11_5 * kq5 + wa11_6 * kq6
                 + wa11_7 * kq7 + wa11_8 * kq8 + wa11_9 * kq9 + wa11_10 * kq10)
            kq11 = (p + wa11_0 * kp0 + wa11_3 * kp3 + wa11_4 * kp4 + wa11_5 * kp5 + wa11_6 * kp6
                    + wa11_7 * kp7 + wa11_8 * kp8 + wa11_9 * kp9 + wa11_10 * kp10)
            a = accel(t + hc11)
            if friction is None:
                kp11 = (a / l) * sin(x) - g_l * cos(x)
            else:
                s, c = sin(x), cos(x)
                kp11 = (a / l) * s - friction * abs(a * c - l * kq11 * kq11 + g * s) - g_l * c
            # END stages 1-11
            q1 = (
                q + wb0 * kq0 + wb5 * kq5 + wb6 * kq6 + wb7 * kq7 + wb8 * kq8 + wb9 * kq9
                + wb10 * kq10 + wb11 * kq11
            )
            p1 = (
                p + wb0 * kp0 + wb5 * kp5 + wb6 * kp6 + wb7 * kp7 + wb8 * kp8 + wb9 * kp9
                + wb10 * kp10 + wb11 * kp11
            )
            # the error estimates per unit h: the 8th-order solution minus a
            # 5th-order and minus a 3rd-order one, scaled per component; each
            # scale takes the larger magnitude at the two ends as max() does,
            # the first one unless the second is greater
            aq, aq1, ap, ap1 = abs(q), abs(q1), abs(p), abs(p1)
            sq = abs_tol + rel_tol * (aq1 if aq1 > aq else aq)
            sp = abs_tol + rel_tol * (ap1 if ap1 > ap else ap)
            eq = (
                0.0 + e5_0 * kq0 + e5_5 * kq5 + e5_6 * kq6 + e5_7 * kq7 + e5_8 * kq8
                + e5_9 * kq9 + e5_10 * kq10 + e5_11 * kq11
            ) / sq
            ep = (
                0.0 + e5_0 * kp0 + e5_5 * kp5 + e5_6 * kp6 + e5_7 * kp7 + e5_8 * kp8
                + e5_9 * kp9 + e5_10 * kp10 + e5_11 * kp11
            ) / sp
            err5 = eq * eq + ep * ep
            eq = (
                0.0 + e3_0 * kq0 + e3_5 * kq5 + e3_6 * kq6 + e3_7 * kq7 + e3_8 * kq8
                + e3_9 * kq9 + e3_10 * kq10 + e3_11 * kq11
            ) / sq
            ep = (
                0.0 + e3_0 * kp0 + e3_5 * kp5 + e3_6 * kp6 + e3_7 * kp7 + e3_8 * kp8
                + e3_9 * kp9 + e3_10 * kp10 + e3_11 * kp11
            ) / sp
            err3 = eq * eq + ep * ep
            if h == max_dt and h * h * err5 <= 0.32 and err3 == err3:
                # At the cap, a step whose 5th-order estimate alone bounds
                # the norm passes with the cap as its next step; the norm
                # and the step factor are not formed.  As err3 >= 0,
                # err = h err5 / sqrt(2 (err5 + 0.01 err3)) <= h sqrt(err5 / 2)
                # <= 0.4 < 0.9^8 ~ 0.4305, so the factor is at least
                # 0.9 * 0.4^(-1/8) ~ 1.009 and min(h * factor, max_dt), as a
                # landing's max(h_next, h_uncut), is max_dt; with err5 = 0
                # the factor was 5.  A NaN err5 fails the test.  A NaN err3,
                # from stages past about 1e307 that overflow its sums, makes
                # the norm NaN and rejects the step, so it fails the last.
                h_next = max_dt
            else:
                err = 0.0 if err5 == 0.0 else h * err5 / sqrt((err5 + 0.01 * err3) * 2.0)
                if not err <= 1.0:
                    h *= max(0.2, 0.9 * err ** -0.125)
                    if not h >= _MIN_STEP:  # also a NaN step
                        raise StepUnderflow(f"step size underflow at t = {t}")
                    t1 = t + h
                    landing = on_kink = False
                    continue
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.125))
                h_next = min(h * factor, max_dt)
            # BEGIN stage 12, written by tools/gen_stages.py from model.branch_field
            a = accel(t1)
            if friction is None:
                kp12 = (a / l) * sin(q1) - g_l * cos(q1)
            else:
                s, c = sin(q1), cos(q1)
                n = a * c - l * p1 * p1 + g * s
                kp12 = (a / l) * s - friction * abs(n) - g_l * c
                n_end = n > 0.0
            # END stage 12
            # stage 12 of q, dq/dt at the step's end, is p1
            kq = (kq0, kq1, kq2, kq3, kq4, kq5, kq6, kq7, kq8, kq9, kq10, kq11, p1)
            kp = (kp0, kp1, kp2, kp3, kp4, kp5, kp6, kp7, kp8, kp9, kp10, kp11, kp12)
            if not frictional or on_kink or n_end == n_pos:
                break
            # the normal force changes sign on the step: end it there
            seg = DenseSegment.of_step(f, t, h, q, p, q1, p1, kq, kp)
            theta = _kink_theta(seg, normal, n_pos)
            if theta < _KINK_AT_START:
                break
            h *= theta
            t1 = t + h
            landing = on_kink = True
        if landing:
            h_next = max(h_next, h_uncut)

        seg = None
        if frictional and not _hermite_p_clear(h, q, p, kp0, q1, p1, kp12, p_lo, p_hi):
            seg = DenseSegment.of_step(f, t, h, q, p, q1, p1, kq, kp)
            # a grazing double root that no scan point shows is caught later
            # by the stick-band projection
            root = _first_exit(seg, 1, 1.0, p_lo, p_hi)
            if root is not None:
                switch = _bisect_switch(seg, tol, root[:2])
                if switch[0] > t:  # guard against a root at the very start of the step
                    yield t, h, q, p, f, kq, kp, seg, t1, q1, p1, h_next, switch
                    return
        yield t, h, q, p, f, kq, kp, seg, t1, q1, p1, h_next, None
        if frictional and not p1 * branch > 0.0:
            return
        if t1 >= t_limit:
            if t1 >= t_end:
                return
            t_limit, f, normal, accel = piece(t1)
            t_limit = min(t_end, t_limit)
        t, q, p, h, kq0, kp0, n_pos = t1, q1, p1, h_next, p1, kp12, n_end


def step_smooth(
    state: State,
    params: Params,
    pivot: PivotLaw,
    tol: Tolerances,
    h: float | None = None,
    t_limit: float | None = None,
) -> StepResult:
    """One accepted adaptive step of the current smooth branch: the first
    step of the slipping stretch from `state` (see `_slip`), with the
    friction sign frozen to sign(p)."""
    if state.mode != SLIPPING:
        raise ValueError("step_smooth requires a slipping state")
    t, p = state.t, state.p
    branch = 1.0 if p > 0 else (-1.0 if p < 0 else 0.0)
    stretch = _slip(
        _branch_pieces(params, pivot, branch), slip_constants(params, branch), branch, t, state.q,
        p, h, math.inf if t_limit is None else t_limit, tol,
    )
    _, h, *_, t1, q1, p1, h_next, switch = next(stretch)
    if switch is not None:
        t1, q1, p1 = switch
    return StepResult(
        state=State(q=q1, p=p1, t=t1, mode=SLIPPING),
        h_used=t1 - t if switch else h,
        h_next=h_next,
        hit_switch=switch is not None,
    )


def classify_switch(params: Params, pivot: PivotLaw, q: float, t: float) -> int:
    """Stick/cross decision on the surface p = 0 from the limit fields: 0 to
    stick, else the sign of p on the far side of a crossing.

    Sticking iff 0 lies between the one-sided limits (boundary equality
    counts as sticking; release detection then acts immediately).  Otherwise
    both limits share a sign and the crossing is transversal in that
    direction.
    """
    f_plus, f_minus = limit_fields(params, pivot, q, t)
    if f_plus <= 0.0 <= f_minus:
        return 0
    return 1 if f_plus > 0 else -1


def reseed(q: float, t: float, direction: int, tol: Tolerances) -> State:
    """The slipping state a crossing or a release leaves on: half the stick
    band off the surface, on the side of `direction`."""
    return State(q=q, p=direction * tol.stick_band / 2, t=t, mode=SLIPPING)


def _margin_breaks(params: Params, q: float) -> tuple[list[float], list[float]]:
    """(kinks, levels) in a of the margin l (|drift| - bound) at the angle q,
    |a s - g c| - mu |a c + g s| (s = sin q, c = cos q), which is piecewise
    linear in a: its kinks a = g c / s and -g s / c, and its zeros, the levels
    g (c + mu s) / (s - mu c) and g (c - mu s) / (s + mu c), but where a
    denominator is 0."""
    g, mu = params.g, params.mu
    s, c = math.sin(q), math.cos(q)
    kinks = [g * c / s] if s != 0.0 else []
    if c != 0.0:
        kinks.append(-g * s / c)
    levels = [g * (c + mu * s) / (s - mu * c)] if s != mu * c else []
    if s != -mu * c:
        levels.append(g * (c - mu * s) / (s + mu * c))
    return kinks, levels


def _never_releases(params: Params, a_max: float, q: float) -> bool:
    """Whether static friction holds at the angle q for every pivot
    acceleration a in [-a_max, a_max], with room for the kernel's rounding.

    The margin is piecewise linear in a (`_margin_breaks`), so its largest
    value on the interval is at an end or at a kink inside it, where the
    on-surface kernel decides.
    """
    l, g, mu = params.l, params.g, params.mu
    candidates = [-a_max, a_max, *(a for a in _margin_breaks(params, q)[0] if -a_max < a < a_max)]
    # |drift| + bound is at most this, which scales the kernel's rounding
    slack = _EXCLUSION_SLACK * (a_max + g) * (1.0 + mu) / l + _EXCLUSION_FLOOR
    for a in candidates:
        drift, bound = stiction_drift_and_bound(params, ConstantPivot(a), q, 0.0)
        if not abs(drift) - bound < -slack:  # also a NaN margin
            return False
    return True


def slide_until_release(
    state: State,
    params: Params,
    pivot: PivotLaw,
    horizon: float,
    tol: Tolerances,
) -> Event:
    """Advance a stuck state at fixed angle until static friction fails.

    Returns a StickRelease event at the release time whose direction is the
    sign of the unbalanced drift, or a HorizonReached event at `horizon` if
    friction holds throughout; the state stays at the event's angle with
    p = 0 until then.  A stuck state holds to the horizon outright when the
    pivot law is constant, or when no acceleration the law can reach
    (`pivot.accel_bound`) releases it at this angle.

    Otherwise the margin |drift| - bound changes sign only where a(t) meets a
    level of `_margin_breaks`, so the kernel's margin in the middle of each
    interval between successive `pivot.next_level_time`s decides whether it
    releases.  The first that does releases at its start: a bracket of
    event_tol about it that the kernel confirms, or else the last point
    found stuck and that middle, is bisected to event_tol with the released
    side on top.  More than `_MAX_STEPS` intervals raise StepLimit.
    """
    if state.mode != STUCK:
        raise ValueError("slide_until_release requires a stuck state")
    q, t0 = state.q, state.t

    def margin(t: float) -> float:
        drift, bound = stiction_drift_and_bound(params, pivot, q, t)
        return abs(drift) - bound

    if margin(t0) > 0:
        raise ValueError("slide_until_release requires stiction to hold at entry")

    if pivot.lipschitz_bound == 0.0 or _never_releases(params, pivot.accel_bound, q):
        return Event(t=horizon, q=q, kind=HORIZON)

    levels, d = tuple(_margin_breaks(params, q)[1]), tol.event_tol
    stuck = t = t0  # the last point found stuck, and the interval's start
    n = 0
    while t < horizon:
        # a level time that does not pass t, as under a law faster than the
        # spacing of doubles, is taken one double on
        t_end = pivot.next_level_time(levels, t, horizon)
        t_end = min(max(t_end, math.nextafter(t, _INF)), horizon)
        n += 1
        if n > _MAX_STEPS:
            raise StepLimit(
                f"more than {_MAX_STEPS} release-scan points at t = {t!r}, h = {t_end - t!r}"
            )
        mid = t + 0.5 * (t_end - t)
        if margin(mid) > 0.0:
            lo, hi = max(t - d, stuck), min(t + d, mid)
            if not margin(lo) <= 0.0 < margin(hi):
                lo, hi = stuck, mid
            # bisect the sign change; keep the released side on top
            while hi - lo > d:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:  # an event_tol below the spacing of doubles
                    break
                if margin(mid) > 0.0:
                    hi = mid
                else:
                    lo = mid
            drift, _ = stiction_drift_and_bound(params, pivot, q, hi)
            return Event(t=hi, q=q, kind=STICK_RELEASE, direction=1 if drift > 0 else -1)
        stuck, t = mid, t_end
    return Event(t=horizon, q=q, kind=HORIZON)


def _guard_exit(seg: DenseSegment, theta_end: float, q_lo: float, q_hi: float):
    """(theta, q, p, side): the earliest theta in (0, theta_end] where the
    dense q leaves (q_lo, q_hi), bisected from the first scan point outside.
    A NaN q there, from overflowed rows, places nothing inside the step: the
    exit is then the step's end (theta 1, q0 + r0) if that lies outside."""
    hit = _first_exit(seg, 0, theta_end, q_lo, q_hi)
    if hit is None:
        return None
    lo, hi, q_out = hit
    if q_out != q_out:
        q, p = seg.q0 + seg.rq[0], seg.p0 + seg.rp[0]
        return None if q_lo < q < q_hi else (1.0, q, p, SIDE_LOW if q <= q_lo else SIDE_HIGH)
    low = q_out <= q_lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        qm, _ = seg.eval(mid)
        if qm <= q_lo if low else qm >= q_hi:
            hi = mid
        else:
            lo = mid
    return hi, *seg.eval(hi), SIDE_LOW if low else SIDE_HIGH


def _record_due(recorded, times, i, t_now, seg, q=0.0, p=0.0, mode=SLIPPING) -> int:
    """Append to `recorded` the State at each time of times[i:] that is due
    by `t_now`, read off the segment `seg` or, without one, (q, p, mode).
    Returns the index of the first time not due; `times` ends in infinity."""
    while times[i] <= t_now + 1e-18:
        rt = times[i]
        if seg is not None:
            q, p = seg.eval((rt - seg.t0) / seg.h)
        recorded.append(State(q, p, rt, mode))
        i += 1
    return i


def integrate(
    initial: State,
    params: Params,
    pivot: PivotLaw,
    horizon: float,
    tol: Tolerances = Tolerances(),
    region_guard: tuple[float, float] | None = None,
    *,
    record_at: Sequence[float] | None = None,
    certain_exit: Callable[[float, float, float], str | None] | None = None,
) -> Trajectory:
    """Drive the mode machine from `initial` until `horizon` or a guard exit.

    Each slipping stretch, from the start, a crossing or a release to the
    next event, through the knots of a table law, is stepped by one `_slip`
    generator, and a State is built only where it ends.  Each landing on
    p = 0 is classified into a crossing (re-seeded at half the stick band on
    the far side) or a stick entry (projected onto the surface and advanced
    with `slide_until_release`).  With a region guard set, integration stops
    with a RegionExit event the moment q leaves [q_lo, q_hi].  A guarded
    caller may pass `certain_exit(t, q, p)`, which returns the side on which
    the motion from that state provably leaves the region before the
    horizon, or None: it is asked at the end of each accepted step that the
    guard scan found inside, and a side ends the integration there with a
    RegionExit event on that side, at the step's end and not on the boundary.

    The output is reproducible bit-for-bit for identical inputs.  When
    mu > 0, the velocity trap (|p| can never re-exceed p_star once below it)
    is asserted on the finished trajectory.  A motion that leaves the float
    range raises IntegrationError, as a step that underflows does.
    """
    if not (horizon > initial.t):
        raise ValueError("horizon must exceed the initial time")
    if region_guard is not None and not (region_guard[0] < region_guard[1]):
        raise ValueError("region_guard must be an ordered pair")

    traj = Trajectory(setup=(params, pivot, tol))
    recorded = traj.recorded
    # the times to record, then a sentinel that is never due
    rec_times = [*sorted(record_at or ()), math.inf]

    state = initial
    frictional = params.mu != 0.0
    entry_event = None

    # normalize an on-surface start
    if frictional and state.mode == SLIPPING and abs(state.p) <= tol.stick_band:
        direction = classify_switch(params, pivot, state.q, state.t)
        if direction == 0:
            state = State(q=state.q, p=0.0, t=state.t, mode=STUCK)
            entry_event = Event(t=state.t, q=state.q, kind=STICK_ENTRY)
        else:
            state = reseed(state.q, state.t, direction, tol)
    elif state.mode == STUCK:
        direction = classify_switch(params, pivot, state.q, state.t)
        if direction != 0:
            state = reseed(state.q, state.t, direction, tol)

    traj.append(state.t, state.q, state.p, state.mode)
    rec_idx = _record_due(recorded, rec_times, 0, state.t, None, state.q, state.p, state.mode)
    if entry_event is not None:
        traj.events.append(entry_event)

    # immediate guard violation; on the boundary itself only outward (or
    # resting) motion counts as already-out, since inward motion re-enters
    if region_guard is not None:
        q_lo, q_hi = region_guard
        out_low = state.q < q_lo or (state.q == q_lo and state.p <= 0.0)
        out_high = state.q > q_hi or (state.q == q_hi and state.p >= 0.0)
        if out_low or out_high:
            side = SIDE_LOW if out_low else SIDE_HIGH
            traj.events.append(Event(t=state.t, q=state.q, kind=REGION_EXIT, side=side))
            return traj

    guarded = region_guard is not None
    stick_band = tol.stick_band
    add_sample = traj.samples.append
    h_next = None
    n_steps = 0

    try:
        while state.t < horizon:
            t1 = state.t  # the start of the step or slide an error names; each step moves it
            if state.mode == STUCK:
                q_stuck = state.q
                t_entry = state.t
                ev = slide_until_release(state, params, pivot, horizon, tol)
                # dense samples across the stuck stretch so gaps stay <= max_dt
                t_next_sample = t_entry + tol.max_dt
                while t_next_sample < ev.t:
                    traj.append(t_next_sample, q_stuck, 0.0, STUCK)
                    t_next_sample += tol.max_dt
                rec_idx = _record_due(recorded, rec_times, rec_idx, ev.t, None, q_stuck, 0.0, STUCK)
                traj.append(ev.t, q_stuck, 0.0, STUCK)
                traj.events.append(ev)
                if ev.kind == HORIZON:
                    check_escape_trap(traj, params, pivot, horizon)
                    return traj
                state = reseed(q_stuck, ev.t, ev.direction, tol)
                traj.append(state.t, state.q, state.p, state.mode)
                h_next = None
                continue

            # a slipping stretch, from its start to the next event
            branch = 1.0 if state.p > 0 else (-1.0 if state.p < 0 else 0.0)
            stretch = _slip(
                _branch_pieces(params, pivot, branch), slip_constants(params, branch), branch,
                state.t, state.q, state.p, h_next, horizon, tol,
            )
            direction = None  # how the stretch ends on p = 0: 0 sticks, else crosses
            for t0, h, q0, p0, field, kq, kp, seg, t1, q1, p1, h_next, switch in stretch:
                n_steps += 1
                if n_steps > _MAX_STEPS:
                    raise StepLimit(
                        f"more than {_MAX_STEPS} steps: step {n_steps} at t = {t0!r}, h = {h!r}"
                    )
                # the guard scan, unless the Hermite of q stays inside up to
                # the step's end; it holds for theta in [0, 1], so also on a
                # step cut on p = 0 whose end does not round past theta = 1
                theta_end = 1.0 if switch is None else (switch[0] - t0) / h
                if guarded and not (
                    theta_end <= 1.0
                    and _hermite_q_clear(h, q0, p0, kp[0], q1, p1, kp[12], q_lo, q_hi)
                ):
                    seg = seg or DenseSegment.of_step(field, t0, h, q0, p0, q1, p1, kq, kp)
                    exit_hit = _guard_exit(seg, theta_end, q_lo, q_hi)
                    if exit_hit is not None:
                        theta_x, q_x, p_x, side = exit_hit
                        t_x = t0 + theta_x * h
                        rec_idx = _record_due(recorded, rec_times, rec_idx, t_x, seg)
                        traj.append(t_x, q_x, p_x, SLIPPING)
                        traj.events.append(Event(t=t_x, q=q_x, kind=REGION_EXIT, side=side))
                        check_escape_trap(traj, params, pivot, horizon)
                        return traj
                if switch is not None:
                    t1, q1, p1 = switch
                if rec_times[rec_idx] <= t1 + 1e-18:  # a recorded time is due
                    seg = seg or DenseSegment.of_step(field, t0, h, q0, p0, q1, p1, kq, kp)
                    rec_idx = _record_due(recorded, rec_times, rec_idx, t1, seg)
                if switch is not None:
                    direction = classify_switch(params, pivot, q1, t1)
                    break
                add_sample((t1, q1, p1, SLIPPING))
                if certain_exit is not None:
                    side = certain_exit(t1, q1, p1)
                    if side is not None:
                        traj.events.append(Event(t=t1, q=q1, kind=REGION_EXIT, side=side))
                        check_escape_trap(traj, params, pivot, horizon)
                        return traj
                if frictional and abs(p1) < stick_band and classify_switch(params, pivot, q1, t1) == 0:
                    direction = 0
                    break
            if direction is None:  # the stretch ran to the horizon or off its branch
                state = State(q=q1, p=p1, t=t1, mode=SLIPPING)
            elif direction == 0:
                state = State(q=q1, p=0.0, t=t1, mode=STUCK)
                traj.append(t1, q1, 0.0, STUCK)
                traj.events.append(Event(t=t1, q=q1, kind=STICK_ENTRY))
                h_next = None
            else:
                traj.append(t1, q1, p1, SLIPPING)
                traj.events.append(Event(t=t1, q=q1, kind=CROSSING, direction=direction))
                state = reseed(q1, t1, direction, tol)
                traj.append(state.t, state.q, state.p, state.mode)
                h_next = None

        traj.events.append(Event(t=state.t, q=state.q, kind=HORIZON))
        check_escape_trap(traj, params, pivot, horizon)
        return traj
    except (ArithmeticError, ValueError) as exc:
        # math.sin of an angle, or a float power, that left the float range
        raise IntegrationError(
            f"the motion left the float range near t = {t1}: {exc}"
        ) from exc


# how far |p| may re-exceed p_star, for rounding, before the trap counts as broken
_TRAP_SLACK = 1e-6


def check_escape_trap(traj: Trajectory, params: Params, pivot: PivotLaw, horizon: float) -> None:
    """TrapViolation if |p| re-exceeds p_star (+_TRAP_SLACK) once it dips below it."""
    if params.mu <= 0.0:
        return
    t0 = traj.samples[0][0]
    if not (horizon > t0):
        return
    cap = p_star(params, pivot, t0, horizon)
    below = False
    for t, q, p, mode in traj.samples:
        if abs(p) <= cap:
            below = True
        elif below and abs(p) > cap + _TRAP_SLACK:
            raise TrapViolation(
                f"|p| = {abs(p)} exceeded p_star = {cap} at t = {t} after entering the trap"
            )


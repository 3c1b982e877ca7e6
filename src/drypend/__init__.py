"""Dry-friction inverted pendulum on a horizontally accelerating pivot.

Event-driven integration of the set-valued equations of motion, shooting
for never-falling trajectories, and empirical verification of the
structural inequalities the method rests on.
"""

from .model import (
    ConstantPivot,
    FilippovSet,
    Params,
    PivotLaw,
    PolyPivot,
    SinePivot,
    State,
    TablePivot,
    accel_slipping,
    energy,
    filippov_set,
    limit_fields,
    normal_force_mag,
    p_star,
    stiction_holds,
)
from .integrator import (
    Event,
    Tolerances,
    Trajectory,
    classify_switch,
    integrate,
    slide_until_release,
    step_smooth,
)
from .wazewski import (
    BisectionResult,
    ExitReport,
    SigmaCurve,
    bisect_curve,
    classify_exit,
    family_sweep,
    recheck_witness,
)
from .verification import (
    CheckReport,
    SampleGrid,
    check_continuous_dependence,
    check_jump_inequality,
    check_one_sided_lipschitz,
    check_upper_semicontinuity,
)

__version__ = "0.1.0"

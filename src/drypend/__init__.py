"""Dry-friction inverted pendulum on a horizontally accelerating pivot.

Event-driven integration of the set-valued equations of motion, shooting
for never-falling trajectories, and empirical verification of the
structural inequalities the method rests on.

The model and the solver run on Python floats.  The verification checks
live in `drypend.verification`, which is not imported here: it evaluates
the model on numpy arrays of samples, and the other commands run without numpy.
"""

from .model import (
    ConstantPivot,
    Params,
    PivotLaw,
    PolyPivot,
    SinePivot,
    State,
    TablePivot,
    energy,
    limit_fields,
    p_star,
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

__version__ = "0.1.0"

"""Online optimal-control learning with robust redesign.

Learns approximately optimal nonlinear controllers from trajectory data
by least-squares policy iteration, then hardens them against hidden
dynamic uncertainty via gain rescaling and numerical small-gain
certification, including a backstepping path for uncertainty entering
upstream of the control.
"""

from .basis import Approximant, BasisSet, make_polynomial_basis
from .dynsys import (
    CostSpec,
    Plant,
    SimulationRecord,
    SystemModel,
    Trajectory,
    UncertaintyModel,
    integrate,
    lipschitz_probe,
    simulate_batch,
)
from .errors import (
    CompositionDomain,
    ConfigParse,
    DimensionMismatch,
    EmptyInterval,
    InadmissiblePolicy,
    NonFiniteDynamics,
    PEViolation,
    RankDeficient,
    ScheduleExhausted,
    StateDivergence,
    ToolkitError,
)
from .online_pi import (
    ExplorationNoise,
    Fit,
    RegressionProblem,
    SampleWindow,
    assemble_regression,
    run_online_pi,
    solve_pi_step,
    two_loop_optimize,
)
from .robust import ClassKFunction, RobustPolicy, robust_redesign

__version__ = "0.1.0"

"""almkit: a first-order augmented Lagrangian solver for nonconvex composite
problems with nonlinear equality and, optionally, convex inequality
constraints."""

from .apg import ApgResult, apg_solve
from .core import (
    ConstantsLedger,
    ConstraintOracle,
    DimensionMismatch,
    KktResidual,
    NonFiniteValue,
    ProblemSpec,
    ProxCapableFunction,
    SmoothOracle,
    al_gradient_smooth,
    al_value,
    kkt_residual,
)
from .ialm import (
    IalmConfig,
    OuterIterationRecord,
    PenaltyDual,
    PracticalDual,
    SolveReport,
    TheoreticalDual,
    dual_step_size,
    gamma_schedule,
    ialm_solve,
)
from .ineq import (
    IneqConstants,
    IneqProblemSpec,
    ialm_ineq_solve,
    kkt_residual_ineq,
    slack_reformulate,
)
from .ippm import IppmResult, SubsolverStall, ippm_solve
from .problems import gen_clustering, gen_ev, gen_lcqp, load_points_csv

__all__ = [
    "ApgResult",
    "ConstantsLedger",
    "ConstraintOracle",
    "DimensionMismatch",
    "IalmConfig",
    "IneqConstants",
    "IneqProblemSpec",
    "IppmResult",
    "KktResidual",
    "NonFiniteValue",
    "OuterIterationRecord",
    "PenaltyDual",
    "PracticalDual",
    "ProblemSpec",
    "ProxCapableFunction",
    "SmoothOracle",
    "SolveReport",
    "SubsolverStall",
    "TheoreticalDual",
    "al_gradient_smooth",
    "al_value",
    "apg_solve",
    "dual_step_size",
    "gamma_schedule",
    "gen_clustering",
    "gen_ev",
    "gen_lcqp",
    "ialm_ineq_solve",
    "ialm_solve",
    "ippm_solve",
    "kkt_residual",
    "kkt_residual_ineq",
    "load_points_csv",
    "slack_reformulate",
]

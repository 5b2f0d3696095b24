"""fragstop: optimal stopping-line solver and exact simulator for binary mass fragmentations."""

from .levy import (
    AssumptionError,
    BinaryBeta,
    BinaryPoint,
    BinaryUniform,
    DomainError,
    InvalidModelError,
    ModelParams,
    make_params,
)
from .expfun import MomentEstimate, SharedSample, draw_shared_sample
from .fragsim import FixedTime, MassBelow, OptimalStatistic
from .stopsolve import SolverResult, solve_b_star, value_tilde

__version__ = "0.1.0"

__all__ = [
    "AssumptionError",
    "BinaryBeta",
    "BinaryPoint",
    "BinaryUniform",
    "DomainError",
    "InvalidModelError",
    "ModelParams",
    "MomentEstimate",
    "SharedSample",
    "SolverResult",
    "FixedTime",
    "MassBelow",
    "OptimalStatistic",
    "draw_shared_sample",
    "make_params",
    "solve_b_star",
    "value_tilde",
    "__version__",
]

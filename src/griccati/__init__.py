"""Finite-horizon LQ optimal control with possibly singular control weights.

The package implements the generalised Riccati difference equation (GRDE)
with pseudo-inverses, diagnostics for the constrained generalised discrete
algebraic Riccati equation (CGDARE), extended symplectic pencil criteria,
and a reduction that confines the expensive part of the backward recursion
to the subspace where solutions can actually differ.
"""

from .linalg import InternalInconsistencyError, NumericalRefusal
from .model import LQProblem, PopovTriple, load_problem, random_problem, save_problem, validate
from .grde import GrdeTrajectory, riccati_map, simulate, solve_full
from .oracle import BatchQP, batch_matrices, batch_optimal
from .cgdare import CgdareSolution, closed_loop, find_reference, gdare_residual
from .reduction import ReductionData, build_reduction, reduced_step, solve_hybrid

__all__ = [
    "NumericalRefusal",
    "InternalInconsistencyError",
    "PopovTriple",
    "LQProblem",
    "validate",
    "load_problem",
    "save_problem",
    "random_problem",
    "GrdeTrajectory",
    "riccati_map",
    "solve_full",
    "simulate",
    "BatchQP",
    "batch_matrices",
    "batch_optimal",
    "CgdareSolution",
    "gdare_residual",
    "closed_loop",
    "find_reference",
    "ReductionData",
    "build_reduction",
    "reduced_step",
    "solve_hybrid",
]

__version__ = "0.1.0"

"""Closed-form phase two of the reduced solve: the Gramian formula.

After the nu full steps of the hybrid solver only the trailing block Psi
moves, and its backward sweep can be written down without iterating.  With
the full curvature R_full = R + B^T X B invertible, let P_s = Z^s and
W_s = sum_{j<s} Z^j B2 R_full^{-1} B2^T (Z^j)^T.  Then, s steps before the
end of the reduced horizon T',

    Psi_{T'-s} = P_s^T Y_s P_s,    Y_s = Psi_{T'} (I + W_s Psi_{T'})^{-1}.

W_s grows by the rank-m term F R_full^{-1} F^T, F = P_{s-1} B2, so
Woodbury's identity updates Y_s = Y_{s-1} - G R_s^{-1} G^T, G = Y_{s-1} F,
without a d x d inverse; R_s = R_full + F^T G is step s's own curvature,
and det(I + W_s Psi) = det(I + W_{s-1} Psi) det R_s / det R_full.  The rule
refuses, raising NumericalRefusal, when R_full is singular or when some
I + W_s Psi_{T'} is (which needs an indefinite Psi_{T'}), the first singular
R_s; both are relative rank decisions.  solve, the route driver of all
three methods, sits here, where both phase-two rules are in reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cgdare import ReferenceSearchResult, find_reference
from .grde import GrdeTrajectory, _certified_inverse, solve_full
from .linalg import InternalInconsistencyError, NumericalRefusal, numerical_rank, symmetrize
from .model import LQProblem
from .reduction import HybridSolveResult, ReductionData, _solve_reduced, build_reduction, solve_hybrid

METHODS = ("full", "reduced", "closed-form")


def _woodbury_steps(Psi_terminal, steps: int, rd: ReductionData):
    """Yield (Psi_{T'-s}, R_s, R_s^{-1}) for s = 1, ..., steps."""
    if rd.R_full_inverse_norm == np.inf:
        raise NumericalRefusal("closed form inapplicable: full curvature R_full is singular")
    R_full, Y, P = rd.reference.R_X, Psi_terminal, np.eye(rd.dim_reduced)
    R_full_norm = float(np.linalg.norm(R_full))
    for s in range(1, steps + 1):
        F = P @ rd.B2
        G = Y @ F
        R_s = R_full + F.T @ G
        # R_s is a sum that may cancel, so it is judged against its parts.
        scale = R_full_norm + float(np.linalg.norm(F)) * float(np.linalg.norm(G))
        R_inv, certified = _certified_inverse(R_s, scale)
        if not certified and numerical_rank(R_s, scale) < R_s.shape[0]:
            raise NumericalRefusal(f"closed form inapplicable: I + W_{s} Psi is singular")
        Y = symmetrize(Y - (G @ R_inv) @ G.T)
        P = rd.Z @ P
        yield symmetrize(P.T @ Y @ P), R_s, R_inv


def gramian_sweep(Psi_terminal, steps: int, rd: ReductionData):
    """Yield Psi_{T'-1}, ..., Psi_{T'-steps} from Psi_{T'} = Psi_terminal."""
    return (Psi for Psi, _, _ in _woodbury_steps(Psi_terminal, steps, rd))


def _gramian_rule(Psi_terminal, steps: int, rd: ReductionData, stop):
    """Phase-two rule (see reduction._hybrid_rule) from the Woodbury sweep,
    each step's curvature and inverse taken from the sweep itself.  stop is
    asked before each step is pulled, so a cut raises no later step's
    refusal."""
    Psi, R_X, R_X_inv = [Psi_terminal], [], []
    sweep = _woodbury_steps(Psi_terminal, steps, rd)
    while len(R_X) < steps and not stop(float(np.linalg.norm(Psi[-1]))):
        for out, stack in zip(next(sweep), (Psi, R_X, R_X_inv)):
            stack.append(out)
    return np.array(Psi), np.array(R_X), np.array(R_X_inv)


def solve_closed_form(problem: LQProblem, rd: ReductionData) -> HybridSolveResult:
    """Reduced solve whose phase two is the Gramian formula.

    Where the hybrid solver falls back, this raises NumericalRefusal with
    the reason; nothing is silently approximated.
    """
    result = _solve_reduced(problem, rd, _gramian_rule)
    if result.used_fallback:
        raise NumericalRefusal(f"closed form inapplicable: {result.fallback_reason}")
    return result


@dataclass(frozen=True)
class SolveResult:
    """solve's answer, with each stage's result where it ran (else None)."""

    trajectory: GrdeTrajectory
    method_used: str
    fallback_reason: str
    search: ReferenceSearchResult | None
    reduction: ReductionData | None
    hybrid: HybridSolveResult | None


def solve(problem: LQProblem, method: str = "reduced", X_ref=None) -> SolveResult:
    """Solve by "full" (solve_full), "reduced" (solve_hybrid) or "closed-form".

    A given X_ref replaces the reference search.  Where a reduced method finds
    no reference, its reduction fails its checks, the hybrid falls back or the
    closed form refuses, the result is solve_full's trajectory and the reason.
    A rejected X_ref and an invalid problem raise: they are input errors."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {', '.join(METHODS)}")
    search = rd = hybrid = None
    try:
        if method != "full":
            search = find_reference(problem, X_ref=X_ref)
            if not search.found:
                raise NumericalRefusal(f"no reference solution: {search.message}")
            rd = build_reduction(problem, search.solution)
            hybrid = (solve_hybrid if method == "reduced" else solve_closed_form)(problem, rd)
        reason = "" if hybrid is None else hybrid.fallback_reason
    except (NumericalRefusal, InternalInconsistencyError) as exc:
        reason = str(exc)
    trajectory = solve_full(problem) if hybrid is None else hybrid.trajectory
    return SolveResult(trajectory, "full" if reason else method, reason, search, rd, hybrid)

"""Closed-form phase two of the reduced solve: the Gramian formula.

After the nu full steps of the hybrid solver only the trailing block Psi
moves, and its backward sweep can be written down without iterating.  With
the full curvature R_full = R + B^T X B invertible, let C = B2 R_full^{-1} B2^T,
P_s = Z^s and W_s = sum_{j<s} Z^j C (Z^j)^T, so that W_0 = 0 and
W_{s+1} = C + Z W_s Z^T.  Then, s steps before the end of the reduced
horizon T',

    Psi_{T'-s} = P_s^T Psi_{T'} (I + W_s Psi_{T'})^{-1} P_s.

Only positive powers of Z appear.  The rule refuses, raising
NumericalRefusal, when R_full is singular or when some I + W_s Psi_{T'} is
(which needs an indefinite Psi_{T'}); both are relative rank decisions, and
the inverse the formula takes certifies the latter's full rank where it can.
"""

from __future__ import annotations

import numpy as np

from .linalg import NumericalRefusal, _certified_nonsingular, _pinv, numerical_rank, symmetrize
from .model import LQProblem
from .reduction import HybridSolveResult, ReductionData, _solve_reduced


def gramian_sweep(Psi_terminal, steps: int, rd: ReductionData):
    """Yield Psi_{T'-1}, ..., Psi_{T'-steps} from Psi_{T'} = Psi_terminal."""
    if rd.R_full_inverse_norm == np.inf:
        raise NumericalRefusal("closed form inapplicable: full curvature R_full is singular")
    d = rd.dim_reduced
    Z = rd.Z
    C = symmetrize(rd.B2 @ np.linalg.solve(rd.reference.R_X, rd.B2.T))
    Psi_norm = float(np.linalg.norm(Psi_terminal))
    W = np.zeros((d, d))
    P = np.eye(d)
    for s in range(1, steps + 1):
        W = symmetrize(C + Z @ W @ Z.T)
        P = Z @ P
        M = np.eye(d) + W @ Psi_terminal
        try:
            M_inv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            M_inv = None
        # I + W_s Psi is a sum that may cancel, so it is judged against its parts.
        scale = 1.0 + float(np.linalg.norm(W)) * Psi_norm
        if M_inv is None or not (_certified_nonsingular(M, scale, M_inv) or numerical_rank(M, scale) == d):
            raise NumericalRefusal(f"closed form inapplicable: I + W_{s} Psi is singular")
        yield symmetrize(P.T @ Psi_terminal @ (M_inv @ P))


def _gramian_rule(Psi_terminal, steps: int, rd: ReductionData, stop):
    """Phase-two rule (see reduction._hybrid_rule) from the Gramian sweep, the
    curvature pinvs taken in one stacked call.  stop is asked before each
    Gramian step is pulled, so a cut raises no later step's refusal."""
    Psi, R_X = [Psi_terminal], []
    sweep = gramian_sweep(Psi_terminal, steps, rd)
    while len(R_X) < steps and not stop(float(np.linalg.norm(Psi[-1]))):
        R_X.append(rd.reference.R_X + rd.B2.T @ Psi[-1] @ rd.B2)
        Psi.append(next(sweep))
    R_X = np.array(R_X)
    return np.array(Psi), R_X, (_pinv(R_X) if len(R_X) else R_X)


def solve_closed_form(problem: LQProblem, rd: ReductionData) -> HybridSolveResult:
    """Reduced solve whose phase two is the Gramian formula.

    Where the hybrid solver falls back, this raises NumericalRefusal with
    the reason; nothing is silently approximated.
    """
    result = _solve_reduced(problem, rd, _gramian_rule)
    if result.used_fallback:
        raise NumericalRefusal(f"closed form inapplicable: {result.fallback_reason}")
    return result

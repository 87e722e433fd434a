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
(which needs an indefinite Psi_{T'}); both are relative rank decisions.
"""

from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_TOL, NumericalRefusal, Tolerance, _pinv, is_nonsingular, symmetrize
from .model import LQProblem
from .reduction import HybridSolveResult, ReductionData, _solve_reduced


def _nonsingular(M, M_inv, scale: float, tol: Tolerance) -> bool:
    """is_nonsingular(M, tol, scale), with the SVD skipped where a bound settles it.

    sigma_min >= 1 / ||M^{-1}||_F and sigma_max <= ||M||_F, so clearing the
    cutoff these bounds give, with a margin of two for the rounding in
    M_inv, passes only matrices the SVD test passes too.
    """
    cutoff = tol.rank_rel * max(float(np.linalg.norm(M)), scale) * M.shape[0]
    return 2.0 * cutoff * float(np.linalg.norm(M_inv)) < 1.0 or is_nonsingular(M, tol, scale)


def gramian_sweep(Psi_terminal, steps: int, rd: ReductionData, tol: Tolerance = DEFAULT_TOL):
    """Yield Psi_{T'-1}, ..., Psi_{T'-steps} from Psi_{T'} = Psi_terminal."""
    if not is_nonsingular(rd.R_full, tol):
        raise NumericalRefusal("closed form inapplicable: full curvature R_full is singular")
    d = rd.dim_reduced
    Z = rd.Z
    C = symmetrize(rd.B2 @ np.linalg.solve(rd.R_full, rd.B2.T))
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
        if M_inv is None or not _nonsingular(M, M_inv, 1.0 + float(np.linalg.norm(W)) * Psi_norm, tol):
            raise NumericalRefusal(f"closed form inapplicable: I + W_{s} Psi is singular")
        yield symmetrize(P.T @ Psi_terminal @ (M_inv @ P))


def _gramian_rule(Psi_terminal, steps: int, rd: ReductionData, tol: Tolerance):
    """Phase-two rule: the sweep's Psi stack, with the curvature of each
    step R_full + B2^T Psi B2 and its pinv taken over the whole stack."""
    Psi = np.array([Psi_terminal, *gramian_sweep(Psi_terminal, steps, rd, tol)])
    (d, m), N = rd.B2.shape, steps
    PsiB = (Psi[:-1].reshape(N * d, d) @ rd.B2).reshape(N, d, m)
    R_X = rd.R_full + rd.B2.T @ PsiB
    return Psi, R_X, _pinv(R_X, tol)


def solve_closed_form(problem: LQProblem, rd: ReductionData, tol: Tolerance = DEFAULT_TOL) -> HybridSolveResult:
    """Reduced solve whose phase two is the Gramian formula.

    Where the hybrid solver falls back, this raises NumericalRefusal with
    the reason; nothing is silently approximated.
    """
    result = _solve_reduced(problem, rd, tol, _gramian_rule)
    if result.used_fallback:
        raise NumericalRefusal(f"closed form inapplicable: {result.fallback_reason}")
    return result

"""Reduction of the Riccati recursion onto the controlled coordinates.

Fix a reference solution X of the constrained algebraic equation and rotate
into an orthonormal basis [U, U_c] where U spans the nilpotent eigenspace of
its closed loop A_X.  In that basis A_X is block upper triangular with a
nilpotent leading block, and after nu backward steps the difference
Delta_t = X_t - X vanishes on U entirely: every later step only moves the
trailing diagonal block Psi_t.  The hybrid solver therefore runs nu full
steps, checks the predicted block structure, and iterates the small
homogeneous recursion for the rest of the horizon.  The closed form in
closedform shares that driver and replaces only the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .linalg import (
    RESIDUAL_REL,
    InternalInconsistencyError,
    check_symmetric,
    is_nonsingular,
    pinv,
    symmetrize,
    within_residual,
)
from .model import LQProblem, require_valid
from .cgdare import CgdareSolution
from .grde import GrdeTrajectory, _projectors, _schur_step, _sweep, solve_full


@dataclass(frozen=True)
class ReductionData:
    """Rotated data for the reduced recursion.

    T_orth = [U, U_c] is orthogonal; in its basis the closed loop of the
    reference solution reads [[N0, *], [0, Z]] with N0 nilpotent of index nu
    and Z non-singular.  B1, B2 are the row blocks of T_orth^T B, and A2 =
    U_c^T A the trailing one of T_orth^T A.  R_full = R + B^T X B and
    S_full = A^T X B + S belong to the reference X = X_circ; at
    X_circ + U_c Psi U_c^T they are R_full + B2^T Psi B2 and S_full +
    A2^T Psi B2, so phase two needs no n x n product but its X_t output.
    """

    T_orth: np.ndarray
    nu: int
    N0: np.ndarray
    Z: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    A2: np.ndarray
    R_full: np.ndarray
    S_full: np.ndarray
    X_circ: np.ndarray
    lower_left_norm: float
    nilpotent_defect: float

    # The reduced step is grde's Schur-complement step on
    # [Z B2]^T Psi [Z B2] + diag(0, R_full); both are built once.
    @cached_property
    def ZB2(self) -> np.ndarray:
        return np.hstack([self.Z, self.B2])

    @cached_property
    def Pi(self) -> np.ndarray:
        d, m = self.B2.shape
        Pi = np.zeros((d + m, d + m))
        Pi[d:, d:] = self.R_full
        return Pi

    @property
    def dim_u(self) -> int:
        return self.T_orth.shape[0] - self.Z.shape[0]

    @property
    def dim_reduced(self) -> int:
        return self.Z.shape[0]


def build_reduction(problem: LQProblem, reference: CgdareSolution) -> ReductionData:
    """Rotate the problem into the [U, U_c] basis of a reference solution.

    The basis is the reference's T_orth, whose staircase makes the rotated
    closed loop block upper triangular by construction; the consequences
    are still measured: the lower-left block is zero within tolerance (U is
    an invariant subspace), the trailing block Z is non-singular and N0^nu
    vanishes.  Any of them failing raises InternalInconsistencyError.
    """
    if not reference.accepted():
        raise ValueError(
            f"reference solution not accepted (residual {reference.residual_norm:.3e}, "
            f"kernel condition {'ok' if reference.kernel_condition_ok else 'violated'})"
        )
    T_orth, k = reference.T_orth, reference.dim_u

    A_rot = T_orth.T @ reference.A_X @ T_orth
    N0 = A_rot[:k, :k]
    Z = A_rot[k:, k:]
    lower_left = float(np.linalg.norm(A_rot[k:, :k]))
    scale = float(np.linalg.norm(reference.A_X))
    if not within_residual(lower_left, scale):
        raise InternalInconsistencyError(
            f"nilpotent eigenspace is not invariant: lower-left norm {lower_left:.3e}"
        )
    if Z.shape[0] and not is_nonsingular(Z):
        raise InternalInconsistencyError("trailing closed-loop block is singular")
    defect = float(np.linalg.norm(np.linalg.matrix_power(N0, reference.nu))) if k else 0.0
    if not within_residual(defect, scale):
        raise InternalInconsistencyError(
            f"leading block is not nilpotent of index {reference.nu}: defect {defect:.3e}"
        )

    B_rot = T_orth.T @ problem.triple.B
    return ReductionData(
        T_orth=T_orth,
        nu=reference.nu,
        N0=N0,
        Z=Z,
        B1=B_rot[:k, :],
        B2=B_rot[k:, :],
        A2=T_orth[:, k:].T @ problem.triple.A,
        R_full=reference.R_X,
        S_full=reference.S_X,
        X_circ=reference.X,
        lower_left_norm=lower_left,
        nilpotent_defect=defect,
    )


def reduced_step(Psi, rd: ReductionData) -> np.ndarray:
    """One backward step of the homogeneous reduced recursion.

    Psi_prev = Z^T Psi Z - Z^T Psi B2 (R_full + B2^T Psi B2)^+ B2^T Psi Z.
    Psi = 0 is a fixed point, whose closed loop is Z itself.
    """
    Psi_s = check_symmetric(Psi, "reduced-state Psi")
    if Psi_s.shape[0] != rd.dim_reduced:
        raise ValueError(f"Psi has size {Psi_s.shape[0]}, expected {rd.dim_reduced}")
    return _schur_step(Psi_s, rd.ZB2, rd.Pi)[0]


@dataclass(frozen=True)
class HybridSolveResult:
    """Trajectory plus the diagnostics of a reduced solve.

    used_fallback is set when the horizon was shorter than nu or the
    structural checkpoint failed, and fallback_reason says which; the
    hybrid solver then recomputes the trajectory with the plain full
    recursion.  The measured block norms are kept either way.
    """

    trajectory: GrdeTrajectory
    nu: int
    dim_u: int
    dim_reduced: int
    full_steps: int
    reduced_steps: int
    checkpoint_off_norm: float
    checkpoint_threshold: float
    used_fallback: bool
    fallback_reason: str = ""


def checkpoint_blocks(Delta, rd: ReductionData):
    """Rotate a difference matrix and split it at the reduction boundary."""
    k = rd.dim_u
    D = rd.T_orth.T @ Delta @ rd.T_orth
    return D[:k, :k], D[:k, k:], D[k:, k:]


def _iterate_reduced(Psi_terminal, steps: int, rd: ReductionData):
    """Phase-two rule of the hybrid solver: step the trailing block."""
    Psi, _, R_X, R_X_pinv = _sweep(Psi_terminal, rd.ZB2, rd.Pi, steps)
    return np.array(Psi), np.array(R_X), np.array(R_X_pinv)


def _phase_two_outputs(Psi, R_X, R_X_pinv, rd: ReductionData):
    """X_t, K_t and G_t of every phase-two step at once, in backward order.

    Step s goes from Psi[s] = Psi_{T'-s} to Psi[s + 1] through the curvature
    R_X[s] with pinv R_X_pinv[s].  K = R_X^+ (S_full^T + B2^T Psi A2) and
    X = X_circ + U_c Psi U_c^T are reshaped into 2-D products: a stacked
    matmul of small slices does not reach BLAS.
    """
    N, d = R_X.shape[0], rd.dim_reduced
    U_c = rd.T_orth[:, rd.dim_u:]
    n, m = U_c.shape[0], rd.B2.shape[1]
    BtPsi = (rd.B2.T @ Psi[:-1]).reshape(N * m, d)
    K = R_X_pinv @ (rd.S_full.T + (BtPsi @ rd.A2).reshape(N, m, n))
    PsiU = (Psi[1:].reshape(N * d, d) @ U_c.T).reshape(N, d, n)
    X = rd.X_circ + (PsiU.transpose(0, 2, 1).reshape(N * n, d) @ U_c.T).reshape(N, n, n)
    return symmetrize(X), K, _projectors(R_X, R_X_pinv)


def _result(problem: LQProblem, rd: ReductionData, trajectory, full_steps: int, off_norm=0.0, threshold=0.0, reason=""):
    return HybridSolveResult(
        trajectory=trajectory,
        nu=rd.nu,
        dim_u=rd.dim_u,
        dim_reduced=rd.dim_reduced,
        full_steps=full_steps,
        reduced_steps=problem.T - full_steps,
        checkpoint_off_norm=off_norm,
        checkpoint_threshold=threshold,
        used_fallback=bool(reason),
        fallback_reason=reason,
    )


def _solve_reduced(problem: LQProblem, rd: ReductionData, phase_two) -> HybridSolveResult:
    """The reduced solve shared by the hybrid and the closed-form routes.

    Validates the problem as solve_full does, runs the nu full steps,
    keeping their gains, checks that the difference to the reference is
    confined to the trailing block, and takes the rest from
    phase_two(Psi_{T'}, T', rd).  That returns the stack
    Psi_{T'}, ..., Psi_0 and, for each of its steps, the curvature R_X and
    its pinv; X_t, K_t and G_t follow from them in stacked products after
    the loop.  When the horizon is shorter than nu or the checkpoint fails,
    the result has used_fallback set, its reason, and trajectory None; the
    caller decides what follows.
    """
    require_valid(problem)
    T, nu, triple = problem.T, rd.nu, problem.triple
    if T < nu:
        return _result(problem, rd, None, T, reason=f"horizon {T} shorter than nilpotency index {nu}")

    X, K, R_X, R_X_pinv = _sweep(symmetrize(problem.P), triple.AB, triple.Pi, nu)
    X, K, G = X[::-1], K[::-1], _projectors(R_X, R_X_pinv)[::-1]
    Delta = X[0] - rd.X_circ
    D11, D12, D22 = checkpoint_blocks(Delta, rd)
    off_norm = float(max(np.linalg.norm(D11), np.linalg.norm(D12)))
    threshold = RESIDUAL_REL * (float(np.linalg.norm(rd.X_circ)) + float(np.linalg.norm(Delta)))
    if off_norm > threshold:
        return _result(problem, rd, None, T, off_norm, threshold, "checkpoint block structure violated")

    # Phase two: only the trailing block moves.
    if T > nu:
        X2, K2, G2 = _phase_two_outputs(*phase_two(D22, T - nu, rd), rd)
        X = list(X2[::-1]) + X
        K = list(K2[::-1]) + K
        G = G2[::-1] + G
    return _result(problem, rd, GrdeTrajectory(tuple(X), tuple(K), tuple(G)), nu, off_norm, threshold)


def solve_hybrid(problem: LQProblem, rd: ReductionData) -> HybridSolveResult:
    """Hybrid backward solve: nu full steps, then the reduced recursion.

    After nu full steps the difference to the reference solution is checked
    to be confined to the trailing diagonal block; beyond tolerance, or on
    a horizon shorter than nu, the solver falls back to the full recursion
    and reports why, with the measured norms.  With dim U = 0 the reduced
    recursion would be the full one in rotated coordinates, so the full
    recursion runs instead and is reported as T full steps, not a fallback.
    """
    if rd.dim_u == 0:
        return _result(problem, rd, solve_full(problem), problem.T)
    result = _solve_reduced(problem, rd, _iterate_reduced)
    if result.used_fallback:
        result = replace(result, trajectory=solve_full(problem))
    return result


@dataclass(frozen=True)
class DeltaCheckReport:
    """Measured backing for the difference recursion and its deadbeat range.

    max_step_residual: worst ||Delta_t - F_{t+1} Delta_{t+1} A_X|| over the
    horizon, where F_{t+1} = A_X^T (I - Delta_{t+1} B (R + B^T X_{t+1} B)^+ B^T).
    max_deadbeat_residual: worst ||Delta_{T-tau} U|| over tau in [nu, T],
    the range where the difference must annihilate the nilpotent eigenspace.
    """

    max_step_residual: float
    max_deadbeat_residual: float
    step_residuals: tuple
    deadbeat_residuals: tuple


def delta_recursion_check(
    problem: LQProblem,
    reference: CgdareSolution,
    traj: GrdeTrajectory,
) -> DeltaCheckReport:
    """Measure the one-step difference identity and the deadbeat property."""
    if traj.horizon != problem.T:
        raise ValueError("trajectory horizon does not match the problem")
    A_X = reference.A_X
    B = problem.triple.B
    R = problem.triple.R
    U = reference.U
    T = problem.T

    deltas = [traj.X[t] - reference.X for t in range(T + 1)]
    step_residuals = []
    for t in range(T - 1, -1, -1):
        R_t = R + B.T @ traj.X[t + 1] @ B
        F = A_X.T @ (np.eye(problem.n) - deltas[t + 1] @ B @ pinv(R_t) @ B.T)
        step_residuals.append(float(np.linalg.norm(deltas[t] - F @ deltas[t + 1] @ A_X)))
    deadbeat = []
    for tau in range(reference.nu, T + 1):
        val = float(np.linalg.norm(deltas[T - tau] @ U)) if U.size else 0.0
        deadbeat.append(val)
    return DeltaCheckReport(
        max_step_residual=max(step_residuals) if step_residuals else 0.0,
        max_deadbeat_residual=max(deadbeat) if deadbeat else 0.0,
        step_residuals=tuple(reversed(step_residuals)),
        deadbeat_residuals=tuple(deadbeat),
    )

"""Reduction of the Riccati recursion onto the controlled coordinates.

Fix a reference solution X of the constrained algebraic equation and rotate
into an orthonormal basis [U, U_c] where U spans the nilpotent eigenspace of
its closed loop A_X.  In that basis A_X is block upper triangular with a
nilpotent leading block, and after nu backward steps the difference
Delta_t = X_t - X vanishes on U entirely: every later step only moves the
trailing diagonal block Psi_t.  The hybrid solver therefore runs nu full
steps, checks the predicted block structure, and iterates the small
homogeneous recursion for the rest of the horizon.  closedform replaces
only the iteration, by the Gramian formula, and holds the route driver
solve, which turns any fallback or refusal into solve_full's answer.
Both phases are grde sweeps, so a step inverts its curvature by LU wherever
that curvature itself is certified of full rank, with R singular too.

Psi = 0 is a fixed point of the reduced recursion, and Psi decays like
Z^s towards it.  Phase two stops at the first step where a certificate
proves that no later Psi can move X_t beyond rounding (_tail_bound), and
fills the remaining steps with the fixed point's outputs.  At Psi = 0,
X_t is the reference itself, so those are its own X, K_X and G_X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .linalg import (
    InternalInconsistencyError,
    check_symmetric,
    is_nonsingular,
    residual_limit,
    svd_cutoff,
    symmetrize,
)
from .model import LQProblem, require_valid
from .cgdare import CgdareSolution, loop_and_scale
from .grde import GrdeTrajectory, _projectors, _schur_step, _sweep, solve_full

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ReductionData:
    """A reference solution and the rotated data of its reduced recursion.

    reference is the accepted CGDARE solution X = X_circ that fixes the
    reduction, together with its Popov triple.  In its basis
    T_orth = [U, U_c] the closed loop reads [[N0, *], [0, Z]] with N0
    nilpotent of index nu and Z non-singular.  B2 and A2 = U_c^T A are the
    trailing row blocks of T_orth^T B and T_orth^T A.  With R_full = R_X
    and S_full = S_X, the reference's curvature and cross term, the full
    step at X + U_c Psi U_c^T has R_full + B2^T Psi B2 and S_full +
    A2^T Psi B2, so phase two needs no n x n product but its X_t output.
    Every tail step shares the reference's X, K_X and G_X.
    """

    reference: CgdareSolution
    Z: np.ndarray
    B2: np.ndarray
    A2: np.ndarray

    # The reduced step is grde's Schur-complement step on
    # [Z B2]^T Psi [Z B2] + diag(0, R_full); both are built once.
    @cached_property
    def ZB2(self) -> np.ndarray:
        return np.hstack([self.Z, self.B2])

    @cached_property
    def Pi(self) -> np.ndarray:
        d, m = self.B2.shape
        Pi = np.zeros((d + m, d + m))
        Pi[d:, d:] = self.reference.R_X
        return Pi

    @cached_property
    def R_full_inverse_norm(self) -> float:
        """||R_full^{-1}||_2, inf where linalg's cutoff calls R_full singular:
        every test and bound on R_full reads this one SVD."""
        R_full = self.reference.R_X
        s = np.linalg.svd(R_full, compute_uv=False)
        return 1.0 / s[-1] if s[-1] > svd_cutoff(s, R_full.shape) else np.inf

    @property
    def nu(self) -> int:
        return self.reference.nu

    @property
    def X_circ(self) -> np.ndarray:
        return self.reference.X

    @property
    def dim_u(self) -> int:
        return self.reference.dim_u

    @property
    def dim_reduced(self) -> int:
        return self.Z.shape[0]


def _require_same_triple(reference: CgdareSolution, problem: LQProblem) -> None:
    """Refuse, with a ValueError, a reference solved for another Popov triple."""
    triple = reference.triple
    if triple is not problem.triple and not all(
        np.array_equal(getattr(triple, f), getattr(problem.triple, f)) for f in "ABQSR"
    ):
        raise ValueError("reference solution belongs to a different Popov triple")


def build_reduction(problem: LQProblem, reference: CgdareSolution) -> ReductionData:
    """Rotate the problem into the [U, U_c] basis of a reference solution.

    The basis is the reference's T_orth, whose staircase makes the rotated
    closed loop block upper triangular by construction; the consequences
    are still measured: the lower-left block is zero within tolerance (U is
    an invariant subspace), the trailing block Z is non-singular and N0^nu
    vanishes, both within residual_limit of the scale cgdare.loop_and_scale
    gives the staircase (||A_X|| cancels on a deadbeat loop).  Any failing
    raises InternalInconsistencyError; a reference solved for another Popov
    triple is a ValueError.
    """
    _require_same_triple(reference, problem)
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
    limit = residual_limit(loop_and_scale(reference.triple, reference.K_X)[1])
    if not lower_left <= limit:
        raise InternalInconsistencyError(
            f"nilpotent eigenspace is not invariant: lower-left norm {lower_left:.3e}"
        )
    if Z.shape[0] and not is_nonsingular(Z):
        raise InternalInconsistencyError("trailing closed-loop block is singular")
    defect = float(np.linalg.norm(np.linalg.matrix_power(N0, reference.nu))) if k else 0.0
    if not defect <= limit:
        raise InternalInconsistencyError(
            f"leading block is not nilpotent of index {reference.nu}: defect {defect:.3e}"
        )
    triple = reference.triple
    return ReductionData(reference, Z, (T_orth.T @ triple.B)[k:], T_orth[:, k:].T @ triple.A)


def reduced_step(Psi, rd: ReductionData) -> np.ndarray:
    """One backward step of the homogeneous reduced recursion.

    Psi_prev = Z^T Psi Z - Z^T Psi B2 (R_full + B2^T Psi B2)^+ B2^T Psi Z.
    Psi = 0 is a fixed point, whose closed loop is Z itself.
    """
    Psi_s = check_symmetric(Psi, "reduced-state Psi", rd.dim_reduced)
    return _schur_step(Psi_s, rd.ZB2, rd.Pi)[0]


@dataclass(frozen=True)
class HybridSolveResult:
    """Trajectory plus the diagnostics of a reduced solve.

    The fields hold what the solve measured; the properties derive the
    rest, so they cannot disagree with it: nu, dim_u and dim_reduced are
    the reduction's, reduced_steps = horizon - full_steps and used_fallback
    = bool(fallback_reason).  fallback_reason is set when the horizon was
    shorter than nu or the structural checkpoint failed, and says which;
    the hybrid solver then recomputes the trajectory with the plain full
    recursion.  The measured block norms are kept either way.  With nu = 0
    the checkpoint blocks are empty, so no fallback occurs.

    full_steps = nu unless the solve fell back (then the horizon T), and
    reduced_steps counts the whole reduced horizon; the last tail_steps of
    it (the earliest times) were not iterated but filled with the
    reference's X, K_X and G_X.  tail_reason says why the certificate for
    that cut was refused, when it was computed and refused.
    """

    trajectory: GrdeTrajectory
    reduction: ReductionData
    horizon: int
    full_steps: int
    tail_steps: int = 0
    checkpoint_off_norm: float = 0.0
    checkpoint_threshold: float = 0.0
    fallback_reason: str = ""
    tail_reason: str = ""

    @property
    def nu(self) -> int:
        return self.reduction.nu

    @property
    def dim_u(self) -> int:
        return self.reduction.dim_u

    @property
    def dim_reduced(self) -> int:
        return self.reduction.dim_reduced

    @property
    def reduced_steps(self) -> int:
        return self.horizon - self.full_steps

    @property
    def used_fallback(self) -> bool:
        return bool(self.fallback_reason)


def checkpoint_blocks(Delta, rd: ReductionData):
    """Rotate a difference matrix and split it at the reduction boundary."""
    k, T_orth = rd.dim_u, rd.reference.T_orth
    D = T_orth.T @ Delta @ T_orth
    return D[:k, :k], D[:k, k:], D[k:, k:]


def _hybrid_rule(Psi_terminal, steps: int, rd: ReductionData, stop):
    """Phase-two rule of the hybrid solver: grde's sweep on [Z B2].

    A phase-two rule takes at most steps steps back from Psi_{T'} =
    Psi_terminal, asking stop(||Psi||_F) before each, and returns the
    stacks of Psi (Psi_terminal first), of each step's curvature R_full +
    B2^T Psi B2 and of its pinv (its inverse, where the sweep certifies it).
    """
    Psi, _, R_X, R_X_pinv = _sweep(Psi_terminal, rd.ZB2, rd.Pi, steps, stop)
    return np.array(Psi), R_X, R_X_pinv


def _stein_norm(Z) -> float | None:
    """||L||_2 for Z L Z^T - L = -I by Smith doubling, or None.

    L = sum_j Z^j (Z^j)^T.  After k doublings L holds the first 2^k terms
    and A = Z^(2^k); the next adds A L A^T.  The sum is taken as converged
    once that increment is below eps ||L||_F: as L >= I, ||A||_2^2 is then
    below eps ||L||_F too, and the terms left out are below eps^2 ||L||_F^2
    ||L||_2.  A sum that is not finite, or still growing after 64
    doublings, gives None: rho(Z) >= 1, or too close to 1 to matter.
    """
    L, A = np.eye(Z.shape[0]), Z
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(64):
            increment = A @ L @ A.T
            L = L + increment
            L_F = math.sqrt(np.vdot(L, L))
            if not math.isfinite(L_F):
                return None
            if math.sqrt(np.vdot(increment, increment)) <= _EPS * L_F:
                return float(np.linalg.norm(L, 2))
            A = A @ A
    return None


def _tail_bound(rd: ReductionData) -> tuple[float, str]:
    """Largest ||Psi_s||_F from which phase two may stop, or -1 and why not.

    With R_full invertible let C = B2 R_full^{-1} B2^T and W_j =
    sum_{i<j} Z^i C (Z^i)^T.  The reduced recursion from Psi_s is then the
    Gramian formula, Psi_{s+j} = (Z^j)^T Psi_s (I + W_j Psi_s)^{-1} Z^j,
    wherever the inverse exists.  With L as in _stein_norm, -||C|| L <= W_j
    <= ||C|| L and Z^j (Z^j)^T <= L, so for every j >= 0

        ||W_j Psi_s||_2  <=  ||L|| ||B2||^2 ||R_full^{-1}|| ||Psi_s||  =: q,
        ||Psi_{s+j}||_2  <=  ||Z^j||^2 ||Psi_s|| / (1 - q)  <=  2 ||L|| ||Psi_s||   if q <= 1/2,
        ||X_t - X_circ||_2 = ||U_c Psi_t U_c^T||_2 = ||Psi_t||_2  <=  eps ||X_circ||_2
                                                     if 2 ||L|| ||Psi_s|| <= eps ||X_circ||_2.

    Both conditions are tested on ||Psi_s||_F >= ||Psi_s||_2.  The one on
    q keeps every I + W_j Psi_s invertible, so the formula holds for every
    later step: the quadratic term stays below the linear contraction.
    An empty reduced block has nothing to bound.
    """
    if rd.dim_reduced == 0:
        return np.inf, ""
    R_inv_norm = rd.R_full_inverse_norm
    if R_inv_norm == np.inf:
        return -1.0, "full curvature R_full is singular"
    L_norm = _stein_norm(rd.Z)
    if L_norm is None:
        return -1.0, "Stein sum of Z did not converge: rho(Z) is 1 or more, or too close to 1"
    quad = L_norm * float(np.linalg.norm(rd.B2, 2)) ** 2 * R_inv_norm
    psi_max = _EPS * float(np.linalg.norm(rd.reference.X, 2)) / (2.0 * L_norm)
    return (min(psi_max, 0.5 / quad) if quad > 0.0 else psi_max), ""


class _TailCut:
    """Stop rule of phase two: true once the stationary tail is certified.

    ||L|| >= 1 makes ||Psi_s||_F <= eps ||X_circ||_F necessary for a cut,
    and only then is _tail_bound computed, once; reason keeps its refusal.
    Its argument is ||Psi||_F, which the sweep passes to its stop rule."""

    def __init__(self, rd: ReductionData):
        self.rd = rd
        self.necessary = _EPS * float(np.linalg.norm(rd.reference.X))
        self.psi_max, self.reason = None, ""

    def __call__(self, psi: float) -> bool:
        if psi > self.necessary:
            return False
        if self.psi_max is None:
            self.psi_max, self.reason = _tail_bound(self.rd)
        return psi <= self.psi_max


def _phase_two_outputs(Psi, R_X, R_X_pinv, rd: ReductionData):
    """X_t, K_t and G_t of every phase-two step at once, in backward order.

    Step s goes from Psi[s] = Psi_{T'-s} to Psi[s + 1] through the curvature
    R_X[s] with pinv R_X_pinv[s].  K = R_X^+ (S_full^T + B2^T Psi A2) and
    X = X_circ + U_c Psi U_c^T are reshaped into 2-D products: a stacked
    matmul of small slices does not reach BLAS.  With dim U = 0, U_c = T_orth
    is exactly I (linalg.nilpotent_eigenspace), and X = X_circ + Psi is
    exactly symmetric as it stands: both rules return symmetrised Psi_t.
    """
    ref = rd.reference
    N, d = R_X.shape[0], rd.dim_reduced
    n, m = ref.T_orth.shape[0], rd.B2.shape[1]
    BtPsi = (rd.B2.T @ Psi[:-1]).reshape(N * m, d)
    K = R_X_pinv @ (ref.S_X.T + (BtPsi @ rd.A2).reshape(N, m, n))
    if rd.dim_u:
        U_c = ref.T_orth[:, rd.dim_u:]
        PsiU = (Psi[1:].reshape(N * d, d) @ U_c.T).reshape(N, d, n)
        X = symmetrize(ref.X + (PsiU.transpose(0, 2, 1).reshape(N * n, d) @ U_c.T).reshape(N, n, n))
    else:
        X = ref.X + Psi[1:]
    return X, K, _projectors(R_X, R_X_pinv)


def _solve_reduced(problem: LQProblem, rd: ReductionData, phase_two) -> HybridSolveResult:
    """The reduced solve shared by the hybrid and the closed-form routes.

    Validates the problem as solve_full does, runs the nu full steps,
    keeping their gains, checks that the difference to the reference is
    confined to the trailing block, and takes the rest from the rule
    phase_two(Psi_{T'}, T', rd, stop) (see _hybrid_rule), which _TailCut
    stops at a certified stationary tail.  Each phase is one grde sweep, so
    each inverts a curvature without an SVD where the curvature itself is
    certified of full rank, phase two's R_full + B2^T Psi B2 included.
    X_t, K_t and G_t of the steps taken follow in stacked products after
    the loop; every tail step shares the reference's X, K_X and G_X.  When
    the horizon is shorter than nu or the checkpoint fails, the result has
    used_fallback set, its reason, and trajectory None; the caller decides
    what follows.  A reduction built for another Popov triple is a
    ValueError.
    """
    ref = rd.reference
    _require_same_triple(ref, problem)
    require_valid(problem)
    T, nu, triple = problem.T, ref.nu, problem.triple
    if T < nu:
        return HybridSolveResult(None, rd, T, T, fallback_reason=f"horizon {T} shorter than nilpotency index {nu}")

    X, K, R_X, R_X_pinv = _sweep(symmetrize(problem.P), triple.AB, triple.Pi, nu)
    X, K, G = X[::-1], K[::-1], _projectors(R_X, R_X_pinv)[::-1]
    Delta = X[0] - ref.X
    D11, D12, D22 = checkpoint_blocks(Delta, rd)
    off_norm = float(max(np.linalg.norm(D11), np.linalg.norm(D12)))
    threshold = residual_limit(float(np.linalg.norm(ref.X)) + float(np.linalg.norm(Delta)))
    if off_norm > threshold:
        return HybridSolveResult(None, rd, T, T, 0, off_norm, threshold, "checkpoint block structure violated")

    # Phase two: only the trailing block moves.
    cut = _TailCut(rd)
    Psi, R_X, R_X_pinv = phase_two(D22, T - nu, rd, cut)
    if len(R_X):
        X2, K2, G2 = _phase_two_outputs(Psi, R_X, R_X_pinv, rd)
        X = list(X2[::-1]) + X
        K = list(K2[::-1]) + K
        G = G2[::-1] + G
    tail = T - nu - len(R_X)
    if tail:
        X, K, G = [ref.X] * tail + X, [ref.K_X] * tail + K, (ref.G_X,) * tail + G
    trajectory = GrdeTrajectory(tuple(X), tuple(K), tuple(G))
    return HybridSolveResult(trajectory, rd, T, nu, tail, off_norm, threshold, tail_reason=cut.reason)


def solve_hybrid(problem: LQProblem, rd: ReductionData) -> HybridSolveResult:
    """Hybrid backward solve: nu full steps, then the reduced recursion.

    After nu full steps the difference to the reference solution is checked
    to be confined to the trailing diagonal block; beyond tolerance, or on
    a horizon shorter than nu, the solver falls back to the full recursion
    and reports why, with the measured norms.  With nu = 0 (dim U = 0) the
    reduced recursion is the difference recursion Psi_t = X_t - X_circ on
    the whole state: it runs all T steps, reported as reduced ones, and
    stops at a certified stationary tail like any other.
    """
    result = _solve_reduced(problem, rd, _hybrid_rule)
    if result.used_fallback:
        result = replace(result, trajectory=solve_full(problem))
    return result

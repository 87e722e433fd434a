"""Constrained generalised discrete algebraic Riccati equation (CGDARE).

A symmetric X solves the generalised DARE when

    D(X) = X - A^T X A + (A^T X B + S)(R + B^T X B)^+ (B^T X A + S^T) - Q = 0,

and the constrained equation additionally demands ker(R + B^T X B) be
contained in ker(A^T X B + S).  This module evaluates residuals, packages
the derived closed-loop quantities, searches for a reference solution by
fixed-point iteration, and compares pairs of solutions, whose difference is
pinned down on the closed loop's nilpotent eigenspace.  Scaling the
weights by c scales every solution by c, so the residual tests here are read
against the Popov matrix's ||Pi||_F and the kernel condition against ||S_X||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    RESIDUAL_ABS,
    RESIDUAL_REL,
    check_symmetric,
    inertia,
    nilpotent_eigenspace,
    subspace_distance,
    symmetrize,
)
from .model import LQProblem, PopovTriple
from .grde import _schur_step, riccati_map


class ReferenceRejectedError(ValueError):
    """A user-supplied candidate solution failed verification."""


def gdare_residual(X, triple: PopovTriple) -> np.ndarray:
    """The defect D(X); its norm is zero exactly at generalised DARE solutions."""
    Xs = check_symmetric(X, "candidate solution")
    return Xs - riccati_map(Xs, triple)


@dataclass(frozen=True)
class CgdareSolution:
    """A candidate solution together with everything derived from it.

    R_X = R + B^T X B, S_X = A^T X B + S, K_X = R_X^+ S_X^T is the feedback
    gain, A_X = A - B K_X the closed loop.  T_orth = [U, U_c] is the
    orthogonal basis of `linalg.nilpotent_eigenspace`: U, its first dim_u
    columns, spans the generalised eigenspace of A_X at the eigenvalue zero,
    nu is its nilpotency index, and T_orth^T A_X T_orth = [[N0, *], [0, Z]].
    kernel_condition_ok records the constraint ker R_X <= ker S_X; the
    candidate is accepted when that holds and ||D(X)|| <= RESIDUAL_ABS * ||Pi||_F.
    """

    X: np.ndarray
    triple: PopovTriple
    residual_norm: float
    kernel_condition_ok: bool
    R_X: np.ndarray
    S_X: np.ndarray
    K_X: np.ndarray
    A_X: np.ndarray
    inertia_RX: tuple
    T_orth: np.ndarray
    dim_u: int
    nu: int

    @property
    def U(self) -> np.ndarray:
        return self.T_orth[:, : self.dim_u]

    def accepted(self) -> bool:
        return self.kernel_condition_ok and self.residual_norm <= _residual_band(self.triple)


def _residual_band(triple: PopovTriple) -> float:
    return RESIDUAL_ABS * float(np.linalg.norm(triple.Pi))


def closed_loop(X, triple: PopovTriple) -> CgdareSolution:
    """Evaluate a candidate X: residual, constraint, gain, closed loop, eigenspace."""
    Xs = check_symmetric(X, "candidate solution")
    if Xs.shape[0] != triple.n:
        raise ValueError(f"candidate has size {Xs.shape[0]}, expected {triple.n}")
    A, B, n = triple.A, triple.B, triple.n
    X_prev, K_X, W, R_X_pinv = _schur_step(Xs, triple.AB, triple.Pi)
    R_X, S_X = W[n:, n:], W[:n, n:]
    G = np.eye(triple.m) - R_X_pinv @ R_X
    A_X = A - B @ K_X
    # D(X) = X minus its backward step, taken from the same pseudo-inverse.
    resid = float(np.linalg.norm(Xs - X_prev))
    kercond_ok = float(np.linalg.norm(S_X @ G)) <= RESIDUAL_REL * float(np.linalg.norm(S_X))
    # A_X can cancel to zero exactly (deadbeat loops), leaving pure rounding
    # noise; its kernel structure is judged against the size of its parents.
    loop_scale = float(np.linalg.norm(A)) + float(np.linalg.norm(B @ K_X))
    T_orth, dim_u, nu = nilpotent_eigenspace(A_X, scale=loop_scale)
    return CgdareSolution(
        X=Xs,
        triple=triple,
        residual_norm=resid,
        kernel_condition_ok=kercond_ok,
        R_X=symmetrize(R_X),
        S_X=S_X,
        K_X=K_X,
        A_X=A_X,
        inertia_RX=inertia(R_X),
        T_orth=T_orth,
        dim_u=dim_u,
        nu=nu,
    )


# The search's iteration cap, its overflow guard (absolute: it only has to
# stop the iterates before they overflow) and its polish floor over the band.
_MAX_ITER = 10000
_DIVERGENCE_NORM = 1e100
_POLISH_RATIO = 3e-4


def _polish_steps(step: float, prev_step: float, floor: float) -> int:
    """Steps that take a step norm from `step` to `floor` at the rate step / prev_step."""
    rate = step / prev_step
    if step <= floor or rate == 0.0:
        return 0
    return math.ceil(math.log(floor / step) / math.log(rate))


@dataclass(frozen=True)
class ReferenceSearchResult:
    solution: Optional[CgdareSolution]
    iterations: int
    message: str

    @property
    def found(self) -> bool:
        return self.solution is not None


def find_reference(problem: LQProblem, X_ref: Optional[np.ndarray] = None) -> ReferenceSearchResult:
    """Find (or verify) a reference CGDARE solution for a problem.

    When X_ref is given it is verified and either returned or rejected with
    the measured residuals (ReferenceRejectedError).  Otherwise X <-
    riccati_map(X) runs from zero until the step norm enters the acceptance
    band, then for as many steps as the rate of that step needs to reach
    the polish floor, stopping early if the step stops shrinking.  Divergence
    or stagnation gives a no-solution-found result rather than an
    exception; convergence of the iterates is not guaranteed for every
    problem.
    """
    triple = problem.triple
    band = _residual_band(triple)
    if X_ref is not None:
        sol = closed_loop(X_ref, triple)
        if not sol.accepted():
            raise ReferenceRejectedError(
                "supplied reference rejected: residual "
                f"{sol.residual_norm:.3e} (limit {band:.1e}), "
                f"kernel condition {'ok' if sol.kernel_condition_ok else 'violated'}"
            )
        return ReferenceSearchResult(sol, 0, "supplied reference verified")

    M, Pi = triple.AB, triple.Pi
    X = np.zeros((triple.n, triple.n))
    floor = band * _POLISH_RATIO
    prev_step = np.inf
    stop_at = None
    plateau = 0
    it = 0
    for it in range(1, _MAX_ITER + 1):
        X_next = _schur_step(X, M, Pi)[0]
        if not np.all(np.isfinite(X_next)) or np.linalg.norm(X_next) > _DIVERGENCE_NORM:
            return ReferenceSearchResult(None, it, "iterates diverged")
        step = float(np.linalg.norm(X_next - X))
        X = X_next
        if stop_at is None and step <= band:
            # Near the floor the step norm is close to round-off, and a test
            # against the floor would be settled by rounding, which changes
            # when the problem is scaled or rotated; the two steps giving
            # this rate are far above it.
            stop_at = it + _polish_steps(step, prev_step, floor)
        if stop_at is not None:
            # Polish, stopping early when the step plateaus (round-off limit).
            if it >= stop_at:
                break
            plateau = plateau + 1 if step >= 0.999 * prev_step else 0
            if plateau >= 5:
                break
        prev_step = step
    if stop_at is None:
        return ReferenceSearchResult(None, _MAX_ITER, f"no fixed point within {_MAX_ITER} iterations")

    sol = closed_loop(X, triple)
    if not sol.accepted():
        return ReferenceSearchResult(
            None,
            it,
            f"iteration settled but candidate rejected (residual {sol.residual_norm:.3e})",
        )
    return ReferenceSearchResult(sol, it, "fixed point accepted")


@dataclass(frozen=True)
class ComparisonReport:
    """How two solutions of the same triple relate.

    coincidence_residual measures (X - Y) restricted to the first solution's
    nilpotent eigenspace, where all solutions of the constrained equation
    agree; subspace_distance compares the two eigenspaces themselves.  The
    two difference identities,

        D(X) - D(Y) = Delta - A_Y^T Delta A_X
        D(X) - D(Y) = Delta - A_Y^T Delta A_Y + A_Y^T Delta B R_X^+ B^T Delta A_Y

    with Delta = X - Y, hold whenever both kernel constraints do, solutions
    or not; their residuals are reported for whatever pair was supplied.
    """

    coincidence_residual: float
    subspace_distance: float
    nu_x: int
    nu_y: int
    dim_u_x: int
    dim_u_y: int
    inertia_RX: tuple
    inertia_RY: tuple
    inertia_match: bool
    identity_onestep_residual: float
    identity_quadratic_residual: float


def difference_identity_residuals(X, Y, triple: PopovTriple):
    """Residual norms of the two D(X) - D(Y) identities for a symmetric pair."""
    Xs = check_symmetric(X, "X")
    Ys = check_symmetric(Y, "Y")
    A, B = triple.A, triple.B
    Delta = Xs - Ys

    X_prev, K_X, _, R_X_pinv = _schur_step(Xs, triple.AB, triple.Pi)
    Y_prev, K_Y, _, _ = _schur_step(Ys, triple.AB, triple.Pi)
    A_X = A - B @ K_X
    A_Y = A - B @ K_Y

    lhs = (Xs - X_prev) - (Ys - Y_prev)
    onestep = lhs - (Delta - A_Y.T @ Delta @ A_X)
    quadratic = lhs - (Delta - A_Y.T @ Delta @ A_Y + A_Y.T @ Delta @ B @ R_X_pinv @ B.T @ Delta @ A_Y)
    return float(np.linalg.norm(onestep)), float(np.linalg.norm(quadratic))


def compare_solutions(sol_x: CgdareSolution, sol_y: CgdareSolution) -> ComparisonReport:
    """Compare two accepted solutions of the same triple."""
    tx, ty = sol_x.triple, sol_y.triple
    same = all(
        np.array_equal(getattr(tx, f), getattr(ty, f)) for f in ("A", "B", "Q", "S", "R")
    )
    if not same:
        raise ValueError("solutions belong to different triples")

    Delta = sol_x.X - sol_y.X
    coincidence = float(np.linalg.norm(Delta @ sol_x.U, 2)) if sol_x.U.size else 0.0
    sub_dist = subspace_distance(sol_x.U, sol_y.U)
    onestep, quadratic = difference_identity_residuals(sol_x.X, sol_y.X, tx)
    return ComparisonReport(
        coincidence_residual=coincidence,
        subspace_distance=sub_dist,
        nu_x=sol_x.nu,
        nu_y=sol_y.nu,
        dim_u_x=sol_x.dim_u,
        dim_u_y=sol_y.dim_u,
        inertia_RX=sol_x.inertia_RX,
        inertia_RY=sol_y.inertia_RX,
        inertia_match=sol_x.inertia_RX == sol_y.inertia_RX,
        identity_onestep_residual=onestep,
        identity_quadratic_residual=quadratic,
    )

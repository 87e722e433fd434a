"""Constrained generalised discrete algebraic Riccati equation (CGDARE).

A symmetric X solves the generalised DARE when

    D(X) = X - A^T X A + (A^T X B + S)(R + B^T X B)^+ (B^T X A + S^T) - Q = 0,

and the constrained equation additionally demands ker(R + B^T X B) be
contained in ker(A^T X B + S).  This module evaluates residuals, packages
the derived closed-loop quantities and searches for a reference solution
among the iterates of X <- riccati_map(X) from zero: by doubling, which
reaches the 2^k-th iterate in k steps, and one step at a time where the
curvature stays singular.  Scaling the weights by c scales every solution
by c, so the residual tests here are read against the Popov matrix's
||Pi||_F and the kernel condition against ||S_X||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .linalg import (
    RESIDUAL_ABS,
    check_symmetric,
    inertia,
    is_nonsingular,
    nilpotent_eigenspace,
    residual_limit,
    symmetrize,
)
from .model import LQProblem, PopovTriple, _read_only
from .grde import _schur_step


class ReferenceRejectedError(ValueError):
    """A user-supplied candidate solution failed verification."""


def gdare_residual(X, triple: PopovTriple) -> np.ndarray:
    """The defect D(X); its norm is zero exactly at generalised DARE solutions."""
    Xs = check_symmetric(X, "candidate solution", triple.n)
    return Xs - _schur_step(Xs, triple.AB, triple.Pi)[0]


@dataclass(frozen=True)
class CgdareSolution:
    """A candidate solution together with everything derived from it.

    R_X = R + B^T X B, S_X = A^T X B + S, K_X = R_X^+ S_X^T is the feedback
    gain, G_X = I - R_X^+ R_X the null-space projector and A_X = A - B K_X
    the closed loop; K_X and G_X are those of grde's backward step at X, so
    X, K_X and G_X are read-only and shared by every step that sits at X
    (the reduced solve's stationary tail).  T_orth = [U, U_c] is the
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
    G_X: np.ndarray
    A_X: np.ndarray
    T_orth: np.ndarray
    dim_u: int
    nu: int

    @property
    def U(self) -> np.ndarray:
        return self.T_orth[:, : self.dim_u]

    @cached_property
    def inertia_RX(self) -> tuple:
        """Inertia (n_plus, n_minus, n_zero) of R_X, computed when first read."""
        return inertia(self.R_X)

    def accepted(self) -> bool:
        return self.kernel_condition_ok and self.residual_norm <= _residual_band(self.triple)


def _residual_band(triple: PopovTriple) -> float:
    return RESIDUAL_ABS * float(np.linalg.norm(triple.Pi))


def loop_and_scale(triple: PopovTriple, K_X: np.ndarray):
    """A_X = A - B K_X and ||A||_F + ||B K_X||_F: A_X can cancel to rounding noise
    (a deadbeat loop), so its structure is judged against its parents' size."""
    BK = triple.B @ K_X
    return triple.A - BK, float(np.linalg.norm(triple.A)) + float(np.linalg.norm(BK))


def closed_loop(X, triple: PopovTriple) -> CgdareSolution:
    """Evaluate a candidate X: residual, constraint, gain, closed loop, eigenspace."""
    Xs = check_symmetric(X, "candidate solution", triple.n)
    n = triple.n
    X_prev, K_X, W, R_X_pinv, _ = _schur_step(Xs, triple.AB, triple.Pi)
    R_X, S_X = W[n:, n:], W[:n, n:]
    G = np.eye(triple.m) - R_X_pinv @ R_X
    A_X, loop_scale = loop_and_scale(triple, K_X)
    # D(X) = X minus its backward step, taken from the same pseudo-inverse.
    resid = float(np.linalg.norm(Xs - X_prev))
    kercond_ok = float(np.linalg.norm(S_X @ G)) <= residual_limit(float(np.linalg.norm(S_X)))
    T_orth, dim_u, nu = nilpotent_eigenspace(A_X, scale=loop_scale)
    return CgdareSolution(
        X=_read_only(Xs),
        triple=triple,
        residual_norm=resid,
        kernel_condition_ok=kercond_ok,
        R_X=symmetrize(R_X),
        S_X=S_X,
        K_X=_read_only(K_X),
        G_X=_read_only(G),
        A_X=A_X,
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


def _doubling(triple: PopovTriple, band: float):
    """(X_{b + 2^k}, k) of X <- riccati_map(X) by structure-preserving doubling.

    On Y = X - X_b the step is Y -> H_0 + A_0^T Y (I + G_0 Y)^{-1} A_0, and
    the k-th doubling (Chu, Fan, Lin and Wang 2004) gives H_k = X_{b + 2^k} - X_b.
    X is None once ||H_k|| passes the overflow guard; None where doubling
    cannot run (find_reference).
    """
    n, A, B, M, Pi = triple.n, triple.A, triple.B, triple.AB, triple.Pi
    X_b, W = np.zeros((n, n)), Pi  # W = [[Q_b + X_b, S_b], [S_b^T, R_b]]
    if not is_nonsingular(W[n:, n:]):
        X_b = _schur_step(X_b, M, Pi, certify=False)[0]  # its curvature R is singular
        W = M.T @ (X_b @ M) + Pi
        if not is_nonsingular(W[n:, n:]):
            return None
    KG = np.linalg.solve(W[n:, n:], np.hstack([W[n:, :n], B.T]))  # R_b^{-1} [S_b^T, B^T]
    A_k = A - B @ KG[:, :n]
    G = symmetrize(B @ KG[:, n:])
    H = symmetrize(W[:n, :n] - X_b - W[:n, n:] @ KG[:, :n])  # X_{b+1} - X_b
    floor = band * _POLISH_RATIO
    prev_step = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, math.ceil(math.log2(_MAX_ITER)) + 1):
            try:
                V = np.linalg.solve(np.eye(n) + G @ H, np.hstack([A_k, G]))
            except np.linalg.LinAlgError:
                return None
            H_next = symmetrize(H + A_k.T @ (H @ V[:, :n]))
            if not np.linalg.norm(H_next) <= _DIVERGENCE_NORM:  # also catches inf and nan
                return None, k
            G = symmetrize(G + A_k @ V[:, n:] @ A_k.T)
            A_k = A_k @ V[:, :n]
            step = float(np.linalg.norm(H_next - H))
            H = H_next
            if step <= floor or band >= step >= prev_step:
                return X_b + H, k
            prev_step = step
    return None


def _fixed_point(triple: PopovTriple, band: float) -> ReferenceSearchResult:
    """X <- riccati_map(X) from zero, one step at a time, and its verdict.

    It runs where doubling cannot (find_reference).  Each step inverts
    its curvature where certified, as a sweep does, and the first that is
    not makes the rest take the SVD pseudo-inverse: there the curvature is
    most often singular at every step.
    """
    M, Pi = triple.AB, triple.Pi
    X = np.zeros((triple.n, triple.n))
    floor = band * _POLISH_RATIO
    prev_step = np.inf
    stop_at = None
    plateau = 0
    it = 0
    certify = True
    # Not grde._sweep: the search keeps only its last iterate, where a sweep
    # would hold all of up to _MAX_ITER of them.
    for it in range(1, _MAX_ITER + 1):
        X_next, _, _, _, certify = _schur_step(X, M, Pi, certify)
        if not np.linalg.norm(X_next) <= _DIVERGENCE_NORM:  # also catches inf and nan
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
    return ReferenceSearchResult(sol, it, "fixed point accepted after single steps")


def find_reference(problem: LQProblem, X_ref: Optional[np.ndarray] = None) -> ReferenceSearchResult:
    """Find (or verify) a reference CGDARE solution for a problem.

    When X_ref is given it is verified and either returned or rejected with
    the measured residuals (ReferenceRejectedError).  Otherwise X <-
    riccati_map(X) runs from zero by doubling from the first of X_0 = 0 and
    X_1 whose curvature R + B^T X B is non-singular, until the change over
    a doubling reaches the polish floor or stops shrinking inside the
    acceptance band.  Where doubling cannot run (that curvature singular at
    both, a singular I + G_k H_k, no stop within the doublings that cover
    _MAX_ITER steps) or its candidate is rejected, it runs one step at a
    time until the step norm enters the band, then for as many steps as the
    rate of that step needs to reach the polish floor, stopping early if the
    step stops shrinking.  iterations counts the doublings or the steps of
    the path taken, which message names.  Divergence or stagnation gives a
    no-solution-found result rather than an exception.
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

    doubled = _doubling(triple, band)
    if doubled is not None:
        X, k = doubled
        if X is None:
            return ReferenceSearchResult(None, k, "iterates diverged")
        sol = closed_loop(X, triple)
        if sol.accepted():
            return ReferenceSearchResult(sol, k, "fixed point accepted after doubling")
    return _fixed_point(triple, band)

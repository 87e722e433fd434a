"""Constrained generalised discrete algebraic Riccati equation (CGDARE).

A symmetric X solves the generalised DARE when

    D(X) = X - A^T X A + (A^T X B + S)(R + B^T X B)^+ (B^T X A + S^T) - Q = 0,

and the constrained equation additionally demands ker(R + B^T X B) be
contained in ker(A^T X B + S).  This module evaluates residuals, packages
the derived closed-loop quantities and searches for a reference solution
among the iterates of X <- riccati_map(X) from zero by doubling, which
reaches the 2^k-th iterate in k steps; input directions that no iterate's
curvature sees are compressed out.  Scaling the weights by c scales every
solution by c, so the residual tests here are read against the Popov
matrix's ||Pi||_F and the kernel condition against ||S_X||.
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
    svd_cutoff,
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


# The search's doubling cap (2^14 steps of the map), its overflow guard
# (absolute: it only has to stop the iterates before they overflow) and its
# polish floor over the band.
_MAX_DOUBLINGS = 14
_DIVERGENCE_NORM = 1e100
_POLISH_RATIO = 3e-4


@dataclass(frozen=True)
class ReferenceSearchResult:
    solution: Optional[CgdareSolution]
    iterations: int
    message: str

    @property
    def found(self) -> bool:
        return self.solution is not None


def _doubling(triple: PopovTriple, band: float):
    """(X_{b + 2^k}, k, note) of X <- riccati_map(X) from zero by doubling.

    The base X_b is the first of X_0 = 0, X_1, ..., X_n whose curvature
    R_b = R + B^T X_b B is non-singular.  Where X_n's is still singular, its
    kernel is permanent, and doubling runs with it compressed out: on the
    inputs u = V w, V an orthonormal basis of the right singular vectors the
    rank cutoff keeps, that is on (B V, S V, V^T R V).  No iterate changes.
    X_k is the k-step optimal cost from a zero terminal weight, so Pi >= 0
    gives 0 = X_0 <= X_1 <= ..., and ker X_k only shrinks.  x is in ker X_k
    exactly where some u has [x; u] in ker Pi and A x + B u in ker X_{k-1},
    so ker X_k depends on ker X_{k-1} alone: once it stays, it stays, and
    after at most n drops ker X_k = ker X_n for every k >= n.  The
    curvature's kernel is {v : R v = 0, B v in ker X_k}, as R >= 0 and
    B^T X_k B >= 0.  On it R >= 0, a block of Pi >= 0, gives S v = 0, and
    X_k B v = 0 for every k >= n, so A^T X_k B + S vanishes there and the
    pseudo-inverse's step is the compressed curvature's inverse.  The same
    kernel shows that a curvature non-singular at X_b stays so later.

    On Y = X - X_b the step is Y -> H_0 + A_0^T Y (I + G_0 Y)^{-1} A_0, and
    the k-th doubling (Chu, Fan, Lin and Wang 2004) gives H_k = X_{b + 2^k} - X_b.
    It stops once ||H_k - H_{k-1}||_F reaches the polish floor or stops
    shrinking inside the band.  X is None, and note says why, where the
    iterates pass the overflow guard, I + G_k H_k is singular or no doubling
    up to _MAX_DOUBLINGS stops; else note names the base.
    """
    n, m, A, B, M, Pi = triple.n, triple.m, triple.A, triple.B, triple.AB, triple.Pi
    X_b, W, b, compressed = np.zeros((n, n)), Pi, 0, ""  # W = [[Q_b + X_b, S_b], [S_b^T, R_b]]
    while not is_nonsingular(W[n:, n:]):
        if b == n:
            _, s, Vt = np.linalg.svd(W[n:, n:])
            V = Vt[: np.count_nonzero(s > svd_cutoff(s, Vt.shape))].T
            E = np.block([[np.eye(n), np.zeros((n, V.shape[1]))], [np.zeros((m, n)), V]])
            B, W = B @ V, E.T @ W @ E
            compressed = f", {m - V.shape[1]} of {m} inputs compressed out"
            break
        X_b = _schur_step(X_b, M, Pi, certify=False)[0]
        W = M.T @ (X_b @ M) + Pi
        b += 1
    note = f"doubling from X_{b}{compressed}"
    KG = np.linalg.solve(W[n:, n:], np.hstack([W[n:, :n], B.T]))  # R_b^{-1} [S_b^T, B^T]
    A_k = A - B @ KG[:, :n]
    G = symmetrize(B @ KG[:, n:])
    H = symmetrize(W[:n, :n] - X_b - W[:n, n:] @ KG[:, :n])  # X_{b+1} - X_b
    floor = band * _POLISH_RATIO
    prev_step = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, _MAX_DOUBLINGS + 1):
            try:
                F = np.linalg.solve(np.eye(n) + G @ H, np.hstack([A_k, G]))
            except np.linalg.LinAlgError:
                return None, k, f"I + G_k H_k singular at doubling {k}"
            H_next = symmetrize(H + A_k.T @ (H @ F[:, :n]))
            if not math.sqrt(np.vdot(H_next, H_next)) <= _DIVERGENCE_NORM:  # also catches inf and nan
                return None, k, "iterates diverged"
            dH = H_next - H
            step = math.sqrt(np.vdot(dH, dH))
            if step <= floor or band >= step >= prev_step:
                return X_b + H_next, k, note
            G = symmetrize(G + A_k @ F[:, n:] @ A_k.T)
            A_k = A_k @ F[:, :n]
            H, prev_step = H_next, step
    return None, _MAX_DOUBLINGS, f"no fixed point within {_MAX_DOUBLINGS} doublings"


def find_reference(problem: LQProblem, X_ref: Optional[np.ndarray] = None) -> ReferenceSearchResult:
    """Find (or verify) a reference CGDARE solution for a problem.

    When X_ref is given it is verified and either returned or rejected with
    the measured residuals (ReferenceRejectedError).  Otherwise X <-
    riccati_map(X) runs from zero by doubling (_doubling), and closed_loop
    evaluates its candidate on the problem's own triple.  iterations counts
    the doublings, and message names the base and any inputs compressed
    out.  Divergence, a doubling that cannot go on or does not stop, and a
    rejected candidate give a no-solution-found result, not an exception.
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

    X, k, note = _doubling(triple, band)
    if X is None:
        return ReferenceSearchResult(None, k, note)
    sol = closed_loop(X, triple)
    if not sol.accepted():
        return ReferenceSearchResult(
            None, k, f"candidate rejected after {note} (residual {sol.residual_norm:.3e}, band {band:.1e})"
        )
    return ReferenceSearchResult(sol, k, f"fixed point accepted after {note}")

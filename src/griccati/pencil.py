"""Extended symplectic pencil N - z M and its singularity bookkeeping.

The pencil couples the dynamics and the weights in one (2n+m)-square pair;
its determinant factors through any solution of the constrained algebraic
equation, which turns statements about the pencil into checkable statements
about the closed loop A_X and the curvature R_X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    is_nonsingular,
    numerical_rank,
    pinv,
    spectral_radius,
    zero_multiplicity,
)
from .model import PopovTriple
from .cgdare import CgdareSolution


@dataclass(frozen=True)
class SymplecticPencil:
    """The pair (M, N) of the extended pencil, each (2n+m) square."""

    M: np.ndarray
    N: np.ndarray
    n: int
    m: int

    @property
    def size(self) -> int:
        return 2 * self.n + self.m


def build(triple: PopovTriple) -> SymplecticPencil:
    """Assemble M = diag-ish [[I,0,0],[0,-A^T,0],[0,-B^T,0]] and
    N = [[A,0,B],[Q,-I,S],[S^T,0,R]]."""
    n, m = triple.n, triple.m
    A, B, Q, S, R = triple.A, triple.B, triple.Q, triple.S, triple.R
    M = np.zeros((2 * n + m, 2 * n + m))
    M[:n, :n] = np.eye(n)
    M[n : 2 * n, n : 2 * n] = -A.T
    M[2 * n :, n : 2 * n] = -B.T
    N = np.zeros((2 * n + m, 2 * n + m))
    N[:n, :n] = A
    N[:n, 2 * n :] = B
    N[n : 2 * n, :n] = Q
    N[n : 2 * n, n : 2 * n] = -np.eye(n)
    N[n : 2 * n, 2 * n :] = S
    N[2 * n :, :n] = S.T
    N[2 * n :, 2 * n :] = R
    return SymplecticPencil(M=M, N=N, n=n, m=m)


class NSingularCriterion(NamedTuple):
    """N is singular exactly when R is singular or A - B R^+ S^T is."""

    n_singular: bool
    r_singular: bool
    drift_singular: bool

    @property
    def consistent(self) -> bool:
        return self.n_singular == (self.r_singular or self.drift_singular)


def _drift_singular(triple: PopovTriple, tol: Tolerance) -> bool:
    """Singularity of A - B R^+ S^T, judged against the terms forming it."""
    feed = triple.B @ pinv(triple.R, tol) @ triple.S.T
    scale = float(np.linalg.norm(triple.A)) + float(np.linalg.norm(feed))
    return not is_nonsingular(triple.A - feed, tol, scale=scale)


def n_singular_criterion(pencil: SymplecticPencil, triple: PopovTriple, tol: Tolerance = DEFAULT_TOL) -> NSingularCriterion:
    """Evaluate both sides of the N-singularity equivalence numerically."""
    n_sing = not is_nonsingular(pencil.N, tol)
    r_sing = not is_nonsingular(triple.R, tol)
    return NSingularCriterion(n_sing, r_sing, _drift_singular(triple, tol))


class ClosedLoopSingularCriterion(NamedTuple):
    """A_X is singular exactly when rank R < rank R_X or A - B R^+ S^T is singular."""

    a_x_singular: bool
    rank_drop: bool
    drift_singular: bool
    rank_R: int
    rank_RX: int

    @property
    def consistent(self) -> bool:
        return self.a_x_singular == (self.rank_drop or self.drift_singular)


def closed_loop_singular_criterion(
    solution: CgdareSolution, tol: Tolerance = DEFAULT_TOL
) -> ClosedLoopSingularCriterion:
    triple = solution.triple
    a_x_sing = solution.U.shape[1] > 0
    rank_R = numerical_rank(triple.R, tol)
    rank_RX = numerical_rank(solution.R_X, tol)
    drift_sing = _drift_singular(triple, tol)
    return ClosedLoopSingularCriterion(a_x_sing, rank_R < rank_RX, drift_sing, rank_R, rank_RX)


def det_identity_check(
    pencil: SymplecticPencil,
    solution: CgdareSolution,
    z_samples: Sequence[complex],
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Worst relative defect of the determinant factorisation over z samples.

    det(N - z M) = (-1)^n det(A_X - z I) det(I - z A_X^T) det(R_X), each side
    evaluated by pivoted LU.  The defect at each z is normalised by
    1 + |det(N - z M)|.
    """
    n = pencil.n
    A_X, R_X = solution.A_X, solution.R_X
    eye_n = np.eye(n)
    sign = (-1.0) ** n
    det_RX = np.linalg.det(R_X)
    worst = 0.0
    for z in z_samples:
        zc = complex(z)
        lhs = np.linalg.det(pencil.N.astype(complex) - zc * pencil.M.astype(complex))
        rhs = sign * np.linalg.det(A_X.astype(complex) - zc * eye_n) * np.linalg.det(
            eye_n.astype(complex) - zc * A_X.T.astype(complex)
        ) * det_RX
        defect = abs(lhs - rhs) / (1.0 + abs(lhs))
        worst = max(worst, defect)
    return worst


class MuReport(NamedTuple):
    """Zero-eigenvalue multiplicities and their additivity.

    mu_* are algebraic multiplicities of the eigenvalue zero computed by
    kernel-chain growth (dim ker(M^size)), which stays integer-exact for
    defective eigenvalues.  eig_count_* are the raw counts of eigenvalues
    with modulus below rank_rel * (1 + spectral radius); they agree with
    mu_* on non-defective spectra and scatter on Jordan blocks, which is
    why they are only a cross-check.
    """

    mu_AX: int
    mu_RX: int
    mu_block: int
    additive: bool
    eig_count_AX: int
    eig_count_RX: int
    eig_count_block: int


def _eig_count_near_zero(M: np.ndarray, tol: Tolerance) -> int:
    if M.shape[0] == 0:
        return 0
    w = np.linalg.eigvals(M)
    cutoff = tol.rank_rel * (1.0 + spectral_radius(M))
    return int(np.count_nonzero(np.abs(w) <= cutoff))


def mu_bookkeeping(solution: CgdareSolution, tol: Tolerance = DEFAULT_TOL) -> MuReport:
    """Multiplicity bookkeeping mu(block) = mu(A_X) + mu(R_X)."""
    triple = solution.triple
    block = np.block([[triple.A, triple.B], [triple.S.T, triple.R]])
    mu_ax = solution.U.shape[1]
    mu_rx = zero_multiplicity(solution.R_X, tol)
    mu_blk = zero_multiplicity(block, tol)
    return MuReport(
        mu_AX=mu_ax,
        mu_RX=mu_rx,
        mu_block=mu_blk,
        additive=(mu_blk == mu_ax + mu_rx),
        eig_count_AX=_eig_count_near_zero(solution.A_X, tol),
        eig_count_RX=_eig_count_near_zero(solution.R_X, tol),
        eig_count_block=_eig_count_near_zero(block, tol),
    )

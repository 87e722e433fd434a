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

from .linalg import RANK_REL, is_nonsingular, nilpotent_eigenspace, numerical_rank, pinv
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


def _drift_singular(triple: PopovTriple) -> bool:
    """Singularity of A - B R^+ S^T, judged against the terms forming it."""
    feed = triple.B @ pinv(triple.R) @ triple.S.T
    scale = float(np.linalg.norm(triple.A)) + float(np.linalg.norm(feed))
    return not is_nonsingular(triple.A - feed, scale=scale)


def n_singular_criterion(pencil: SymplecticPencil, triple: PopovTriple) -> NSingularCriterion:
    """Evaluate both sides of the N-singularity equivalence numerically."""
    n_sing = not is_nonsingular(pencil.N)
    r_sing = not is_nonsingular(triple.R)
    return NSingularCriterion(n_sing, r_sing, _drift_singular(triple))


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


def closed_loop_singular_criterion(solution: CgdareSolution) -> ClosedLoopSingularCriterion:
    triple = solution.triple
    a_x_sing = solution.dim_u > 0
    rank_R = numerical_rank(triple.R)
    rank_RX = numerical_rank(solution.R_X)
    drift_sing = _drift_singular(triple)
    return ClosedLoopSingularCriterion(a_x_sing, rank_R < rank_RX, drift_sing, rank_R, rank_RX)


def det_identity_check(
    pencil: SymplecticPencil,
    solution: CgdareSolution,
    z_samples: Sequence[complex],
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

    mu_* are algebraic multiplicities of the eigenvalue zero, dim ker(M^size),
    read from the staircase of `linalg.nilpotent_eigenspace` (for A_X, the
    reference's own dim U); they stay integer-exact for defective
    eigenvalues.  eig_count_* are the raw counts of eigenvalues
    with modulus below RANK_REL * (1 + spectral radius); they agree with
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


def _eig_count_near_zero(M: np.ndarray) -> int:
    if M.shape[0] == 0:
        return 0
    w = np.abs(np.linalg.eigvals(M))
    return int(np.count_nonzero(w <= RANK_REL * (1.0 + float(w.max()))))


def mu_bookkeeping(solution: CgdareSolution) -> MuReport:
    """Multiplicity bookkeeping mu(block) = mu(A_X) + mu(R_X)."""
    triple = solution.triple
    block = np.block([[triple.A, triple.B], [triple.S.T, triple.R]])
    mu_ax = solution.dim_u
    mu_rx = nilpotent_eigenspace(solution.R_X)[1]
    mu_blk = nilpotent_eigenspace(block)[1]
    return MuReport(
        mu_AX=mu_ax,
        mu_RX=mu_rx,
        mu_block=mu_blk,
        additive=(mu_blk == mu_ax + mu_rx),
        eig_count_AX=_eig_count_near_zero(solution.A_X),
        eig_count_RX=_eig_count_near_zero(solution.R_X),
        eig_count_block=_eig_count_near_zero(block),
    )

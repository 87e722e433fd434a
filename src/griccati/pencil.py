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

from .linalg import is_nonsingular, nilpotent_eigenspace, numerical_rank
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


def n_singular_criterion(pencil: SymplecticPencil, triple: PopovTriple) -> NSingularCriterion:
    """Evaluate both sides of the N-singularity equivalence numerically."""
    n_sing = not is_nonsingular(pencil.N)
    r_sing = not is_nonsingular(triple.R)
    return NSingularCriterion(n_sing, r_sing, triple.drift_singular)


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
    return ClosedLoopSingularCriterion(a_x_sing, rank_R < rank_RX, triple.drift_singular, rank_R, rank_RX)


def det_identity_check(
    pencil: SymplecticPencil,
    solution: CgdareSolution,
    z_samples: Sequence[complex],
) -> float:
    """Worst relative defect of the determinant factorisation over z samples.

    det(N - z M) = (-1)^n det(A_X - z I) det(I - z A_X^T) det(R_X).  The
    left side is a pivoted LU of the pencil stack, in the samples' dtype;
    the right side's A_X factors are prod_i (lambda_i - z)(1 - z lambda_i)
    from one eigen-solve, their real part for real z.  The defect at each
    z is normalised by 1 + |det(N - z M)|; no samples give 0.
    """
    z = np.asarray(z_samples).reshape(-1, 1)
    pencils = z[:, :, None] * pencil.M
    np.subtract(pencil.N, pencils, out=pencils)
    lhs, lam = np.linalg.det(pencils), np.linalg.eigvals(solution.A_X)
    rhs = (-1.0) ** pencil.n * np.prod((lam - z) * (1.0 - z * lam), axis=1) * np.linalg.det(solution.R_X)
    rhs = rhs if np.iscomplexobj(z) else rhs.real
    return float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs)), initial=0.0))


class MuReport(NamedTuple):
    """Zero-eigenvalue multiplicities and their additivity.

    mu_* are algebraic multiplicities of the eigenvalue zero, dim ker(M^size),
    read from the staircase of `linalg.nilpotent_eigenspace` (for A_X, the
    reference's own dim U); they stay integer-exact for defective
    eigenvalues.
    """

    mu_AX: int
    mu_RX: int
    mu_block: int
    additive: bool


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
    )

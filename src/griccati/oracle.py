"""Condensed batch formulation of the finite-horizon LQ cost.

Stacks the whole input sequence into one vector u and writes the cost as
J(u) = u^T H u + 2 g^T u + c, which gives an independent route to the
optimal cost for cross-checking the Riccati recursion.  Nothing here shares
code with the recursion beyond the shared linear algebra helpers.

H is assembled by a condensing recursion (Frison and Jorgensen, CDC 2013)
in O(T n^3 + T^2 n m^2) flops and O(T^2 m^2 + T n^2) memory, without forming
the stacked state-by-input map.  The minimiser comes from one LU solve
where a Cholesky certificate proves H positive definite beyond the rank
cutoff, and from one symmetric eigen-solve of H where it does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import residual_limit, symmetric_lstsq
from .model import LQProblem, require_valid


@dataclass(frozen=True)
class BatchQP:
    """Quadratic data of the stacked-input cost J(u) = u^T H u + 2 g^T u + c."""

    H: np.ndarray
    g: np.ndarray
    c: float

    @property
    def size(self) -> int:
        return self.H.shape[0]

    def cost(self, u) -> float:
        u = np.asarray(u, dtype=float).reshape(-1)
        return float(u @ self.H @ u + 2.0 * self.g @ u + self.c)


def batch_matrices(problem: LQProblem, x0=None) -> BatchQP:
    """Assemble H, g, c for the stacked input u = (u_0, ..., u_{T-1}) from
    problem.initial_state(x0): the given x0, else the problem's own.

    By definition, with X = (x_0, ..., x_T) = Phi x0 + Gamma u (Phi stacks
    powers of A, Gamma is block lower triangular with blocks A^{i-1-j} B),
    Qbar = diag(Q, ..., Q, P), Rbar = diag(R, ..., R) and Sbar placing S on
    the first T diagonal blocks:

        H = Gamma^T Qbar Gamma + Gamma^T Sbar + Sbar^T Gamma + Rbar
        g = (Gamma^T Qbar + Sbar^T) Phi x0
        c = x0^T Phi^T Qbar Phi x0

    None of these is formed.  With the Lyapunov sums M_T = P,
    M_s = Q + A^T M_{s+1} A and F_j = B^T M_{j+1} A + S^T,

        H_jj = B^T M_{j+1} B + R,  H_jk = F_j A^{j-k-1} B (j > k),  g_j = F_j A^j x0,

    and c is summed along the free response A^t x0.  The responses and the
    M_s come from one doubling loop of log2(T) stacked products, and every
    H_jk below the diagonal is a block of one (T m x n)(n x T m) product of
    the stacked F_j with [A^{T-1} B, ..., B]: O(T n^3 + T^2 n m^2) flops
    against the O(T^3 n m^2) of Gamma^T Qbar Gamma, and O(T^2 m^2 + T n^2)
    memory.
    """
    require_valid(problem)
    x0 = problem.initial_state(x0)
    n, m, T = problem.n, problem.m, problem.T
    t3 = problem.triple
    A, B, Q, S, R, P = t3.A, t3.B, t3.Q, t3.S, t3.R, problem.P

    # Free and impulse responses A^t [x0 B] (t = 0..T) and Lyapunov sums
    # M_T = P, M_s = Q + A^T M_{s+1} A, by doubling: with the first k of each
    # known, A^k gives responses k..2k-1, and M_{s-k} = L_k + (A^k)^T M_s A^k
    # with L_k = sum_{i<k} (A^i)^T Q A^i gives M_{T-k}..M_{T-2k+1}.
    resp = np.empty((T + 1, n, 1 + m))
    resp[0, :, 0], resp[0, :, 1:] = x0, B
    M = np.empty((T + 1, n, n))
    M[T] = P
    Ak, Lk, k = A, Q, 1
    while k <= T:
        h = min(k, T + 1 - k)  # entries still missing, at most k
        resp[k : k + h] = Ak @ resp[:h]
        M[T + 1 - k - h : T + 1 - k] = Lk + Ak.T @ (M[T + 1 - h :] @ Ak)
        k += h
        if k <= T:
            Lk, Ak = Lk + Ak.T @ (Lk @ Ak), Ak @ Ak
    free, impulse = resp[:, :, 0], resp[:T, :, 1:]
    # F_j = B^T M_{j+1} A + S^T couples u_j with x_j over stages j..T, so
    # H_jk = F_j A^{j-k-1} B below the diagonal.
    BM = B.T @ M[1:]
    F = BM @ A + S.T
    # Block (j, i) of W is F_j A^{T-1-i} B, so H_jk sits at i = T - j + k.
    W = F.reshape(T * m, n) @ impulse[::-1].transpose(1, 0, 2).reshape(n, T * m)
    H = np.zeros((T * m, T * m))
    for j in range(1, T):
        H[j * m : (j + 1) * m, : j * m] = W[j * m : (j + 1) * m, (T - j) * m :]
    # Half of H_jj on the diagonal blocks, so that H + H^T also symmetrises them.
    H.reshape(T, m, T, m)[np.arange(T), :, np.arange(T), :] = 0.5 * (BM @ B + R)
    H += H.T
    g = (F @ free[:T, :, None]).reshape(-1)
    c = float(np.sum((free[:T] @ Q) * free[:T]) + free[T] @ P @ free[T])
    return BatchQP(H, g, c)


def batch_optimal(qp: BatchQP):
    """Minimum-norm minimiser and optimal value of the batch cost.

    u* = -H^+ g and J* = c + g^T u* = c - g^T H^+ g.  The pseudo-inverse
    matters: H is singular whenever some input direction has zero curvature,
    and the minimum-norm representative is then the canonical choice.  H^+ g
    comes from `linalg.symmetric_lstsq`: where a Cholesky factorisation of
    H shifted by twice the rank cutoff completes, H has full rank,
    H^+ g = H^{-1} g and one LU solve gives it; elsewhere (such a direction,
    or one too close to it) one symmetric eigen-solve drops the same
    directions as an SVD pseudo-inverse but stays accurate where H is
    ill-conditioned.  At long horizons the SVD's U and V part ways in the
    small singular directions: on an n = 12, T = 84 problem with
    cond(H) ~ 2e7 its J* misses the recursion's cost by 8e-4 relative, the
    eigen-solve's by 5e-11 and the LU solve's by 5e-10.  Where the true
    optimum is 0, c - g^T H^+ g cancels and may round below it: a negative
    J* within residual_limit(c), c >= J* the free-run cost, reads 0.
    """
    H_pinv_g, _ = symmetric_lstsq(qp.H, qp.g)
    u_star = -H_pinv_g
    j_star = qp.c + float(qp.g @ u_star)
    if -residual_limit(qp.c) <= j_star < 0.0:
        j_star = 0.0
    return u_star, j_star

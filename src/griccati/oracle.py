"""Condensed batch formulation of the finite-horizon LQ cost.

Stacks the whole input sequence into one vector u and writes the cost as
J(u) = u^T H u + 2 g^T u + c, which gives an independent route to the
optimal cost for cross-checking the Riccati recursion.  Nothing here shares
code with the recursion beyond the shared linear algebra helpers.

H is assembled from the block structure of the stacked dynamics (block
Toeplitz input map, block-diagonal weights), as in condensing methods for
linear-quadratic control (Frison and Jorgensen, CDC 2013), so memory is
O(T^2 n m) rather than the O(T^2 n^2) of the dense stacked weights; the
minimiser comes from one symmetric eigen-solve of H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import RESIDUAL_ABS, symmetric_lstsq, symmetrize
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
    """Assemble H, g, c for the stacked input u = (u_0, ..., u_{T-1}).

    With state stack X = (x_0, ..., x_T) = Phi x0 + Gamma u (Phi stacks
    powers of A, Gamma is block lower triangular with blocks A^{i-1-j} B),
    block-diagonal weights Qbar = diag(Q, ..., Q, P) and Rbar = diag(R, ..., R),
    and the cross-weight Sbar placing S on the first T diagonal blocks:

        H = Gamma^T Qbar Gamma + Gamma^T Sbar + Sbar^T Gamma + Rbar
        g = (Gamma^T Qbar + Sbar^T) Phi x0
        c = x0^T Phi^T Qbar Phi x0

    Only Gamma^T is stored, never Phi, Qbar or Sbar.  Gamma is block
    Toeplitz, so its block row j is the impulse response
    [0, B^T, (AB)^T, ..., (A^{T-1} B)^T] shifted right by j blocks, and the
    block-diagonal weights act on Gamma^T's n-wide column blocks as one 2-D
    product each.  g and c need only the free response x_t = A^t x0.  The
    largest array is Gamma^T, T m x (T+1) n.
    """
    require_valid(problem)
    if x0 is None:
        x0 = problem.x0
    if x0 is None:
        raise ValueError("no initial state: problem has no x0 and none was supplied")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    n, m, T = problem.n, problem.m, problem.T
    if x0.shape[0] != n:
        raise ValueError(f"x0 has length {x0.shape[0]}, expected {n}")
    t3 = problem.triple
    A, B, Q, S, R, P = t3.A, t3.B, t3.Q, t3.S, t3.R, problem.P

    # Free response x_t = A^t x0 for t = 0..T, and the transposed impulse
    # response (A^{k-1} B)^T for k = 1..T after a zero block at k = 0.
    free = np.empty((T + 1, n))
    impulse = np.zeros((T + 1, m, n))
    free[0] = x0
    for t in range(T):
        free[t + 1] = A @ free[t]
        impulse[t + 1] = B.T if t == 0 else impulse[t] @ A.T
    impulse = impulse.transpose(1, 0, 2).reshape(m, (T + 1) * n)

    GammaT = np.zeros((T * m, (T + 1) * n))
    for j in range(T):
        GammaT[j * m : (j + 1) * m, j * n :] = impulse[:, : (T + 1 - j) * n]

    # Gamma^T Qbar and Gamma^T Sbar, one n-wide column block at a time as a
    # single product; the last block takes P in place of Q and no S.
    GQ = (GammaT.reshape(-1, n) @ Q).reshape(T * m, (T + 1) * n)
    GQ[:, T * n :] = GammaT[:, T * n :] @ P
    GS = (GammaT.reshape(-1, n) @ S).reshape(T * m, (T + 1) * m)[:, : T * m]

    H = GQ @ GammaT.T + GS + GS.T
    # Rbar: R on the T diagonal blocks of the (T, m, T, m) view.
    H.reshape(T, m, T, m)[np.arange(T), :, np.arange(T), :] += R
    H = symmetrize(H)
    g = GQ @ free.reshape(-1) + (free[:T] @ S).reshape(-1)
    c = float(np.sum((free[:T] @ Q) * free[:T]) + free[T] @ P @ free[T])
    return BatchQP(H, g, c)


def batch_optimal(qp: BatchQP):
    """Minimum-norm minimiser and optimal value of the batch cost.

    u* = -H^+ g and J* = c + g^T u* = c - g^T H^+ g.  The pseudo-inverse
    matters: H is singular whenever some input direction has zero curvature,
    and the minimum-norm representative is then the canonical choice.  H^+ g
    comes from one symmetric eigen-solve (`linalg.symmetric_lstsq`), which
    drops the same directions as an SVD pseudo-inverse but stays accurate
    where H is ill-conditioned.  At long horizons the SVD's U and V part
    ways in the small singular directions: on an n = 12, T = 84 problem with
    cond(H) ~ 2e7 its J* misses the recursion's cost by 8e-4 relative, the
    eigen-solve's by 5e-11.  Tiny negative values of J* (round-off on
    problems whose true optimum is 0) are clamped.
    """
    H_pinv_g, _ = symmetric_lstsq(qp.H, qp.g)
    u_star = -H_pinv_g
    j_star = qp.c + float(qp.g @ u_star)
    if -RESIDUAL_ABS <= j_star < 0.0:
        j_star = 0.0
    return u_star, j_star

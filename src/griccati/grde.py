"""Generalised Riccati difference equation: backward recursion and simulation.

The recursion uses the Moore-Penrose pseudo-inverse of the control curvature
R + B^T X B, so it stays well defined when R (or the curvature itself) is
singular.  Optimal inputs are then a feedback term plus an arbitrary
component in the curvature's null space, captured by a projector G_t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import _pinv, check_symmetric, symmetrize
from .model import LQProblem, PopovTriple, _fmt_matrix, require_valid


@dataclass(frozen=True)
class GrdeTrajectory:
    """Backward-recursion output.

    X holds T+1 symmetric matrices X_0 ... X_T (X[T] is the terminal weight).
    K and G hold T gain matrices and null-space projectors; K[t] and G[t]
    are built from X_{t+1} and shape the optimal input at time t.
    """

    X: tuple
    K: tuple
    G: tuple

    @property
    def horizon(self) -> int:
        return len(self.X) - 1


def _schur_step(X_next, M, Pi):
    """Generalised Schur complement of the Popov block W = M^T X_next M + Pi.

    With k = rows of M, W = [[W11, W12], [W21, R_X]] is split after k, and
    from one pinv of R_X this returns (symmetrize(W11 - W12 L), L, W, R_X^+)
    with L = R_X^+ W21.  M = [A B] with the Popov matrix as Pi is the full
    backward step, L its gain K; the reduction applies the same map to the
    trailing block.  X_next must be symmetric and is not checked.
    """
    k = M.shape[0]
    W = M.T @ (X_next @ M) + Pi
    R_X_pinv = _pinv(W[k:, k:])
    L = R_X_pinv @ W[k:, :k]
    return symmetrize(W[:k, :k] - W[:k, k:] @ L), L, W, R_X_pinv


def _sweep(X_end, M, Pi, steps: int):
    """`steps` Schur-complement steps back from X_end, in backward order.

    Returns the lists X (X_end first, steps + 1 entries), L, R_X and R_X^+;
    whatever else a solver reports is formed from them after the loop.
    """
    k = M.shape[0]
    X, L, R_X, R_X_pinv = [X_end], [], [], []
    for _ in range(steps):
        X_prev, L_t, W, R_pinv_t = _schur_step(X[-1], M, Pi)
        X.append(X_prev)
        L.append(L_t)
        R_X.append(W[k:, k:])
        R_X_pinv.append(R_pinv_t)
    return X, L, R_X, R_X_pinv


def _projectors(R_X, R_X_pinv) -> tuple:
    """G = I - R_X^+ R_X for every step of a sweep, in one stacked product."""
    if not len(R_X):
        return ()
    return tuple(np.eye(R_X[0].shape[-1]) - np.asarray(R_X_pinv) @ np.asarray(R_X))


def gain_and_projector(X_next, triple: PopovTriple):
    """Feedback gain K and null-space projector G for one backward step.

    K = (R + B^T X B)^+ (S^T + B^T X A),  G = I - (R + B^T X B)^+ (R + B^T X B).
    """
    _, K, W, R_X_pinv = _schur_step(X_next, triple.AB, triple.Pi)
    n = triple.n
    return K, np.eye(triple.m) - R_X_pinv @ W[n:, n:]


def riccati_map(X, triple: PopovTriple) -> np.ndarray:
    """One backward step of the generalised Riccati difference equation.

    X_prev = A^T X A - (A^T X B + S)(R + B^T X B)^+ (B^T X A + S^T) + Q,
    re-symmetrised against round-off drift.
    """
    Xs = check_symmetric(X, "riccati_map input")
    if Xs.shape[0] != triple.n:
        raise ValueError(f"riccati_map input has size {Xs.shape[0]}, expected {triple.n}")
    return _schur_step(Xs, triple.AB, triple.Pi)[0]


def solve_full(problem: LQProblem) -> GrdeTrajectory:
    """Full backward recursion from the terminal weight down to time 0."""
    require_valid(problem)
    triple = problem.triple
    X, K, R_X, R_X_pinv = _sweep(symmetrize(problem.P), triple.AB, triple.Pi, problem.T)
    return GrdeTrajectory(tuple(X[::-1]), tuple(K[::-1]), _projectors(R_X, R_X_pinv)[::-1])


def optimal_cost(traj: GrdeTrajectory, x0) -> float:
    """Value of the optimal cost x0^T X_0 x0."""
    x = np.asarray(x0, dtype=float).reshape(-1)
    return float(x @ traj.X[0] @ x)


def simulate(problem: LQProblem, traj: GrdeTrajectory, x0=None, v: Optional[list] = None):
    """Roll the closed loop forward with u_t = -K_t x_t + G_t v_t.

    v is an optional list of T free vectors (length m) steering the
    zero-curvature input directions; they change the trajectory but never
    the cost.  Returns (states, inputs, cost) where states is (T+1) x n and
    inputs is T x m.
    """
    if traj.horizon != problem.T:
        raise ValueError(f"trajectory horizon {traj.horizon} does not match problem horizon {problem.T}")
    if x0 is None:
        x0 = problem.x0
    if x0 is None:
        raise ValueError("no initial state: problem has no x0 and none was supplied")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != problem.n:
        raise ValueError(f"x0 has length {x.shape[0]}, expected {problem.n}")
    if v is not None and len(v) != problem.T:
        raise ValueError(f"v must supply {problem.T} vectors, got {len(v)}")

    t3 = problem.triple
    A, B, Q, S, R = t3.A, t3.B, t3.Q, t3.S, t3.R
    states = np.zeros((problem.T + 1, problem.n))
    inputs = np.zeros((problem.T, problem.m))
    states[0] = x
    cost = 0.0
    for t in range(problem.T):
        u = -traj.K[t] @ states[t]
        if v is not None:
            u = u + traj.G[t] @ np.asarray(v[t], dtype=float).reshape(-1)
        inputs[t] = u
        cost += float(states[t] @ Q @ states[t] + 2.0 * states[t] @ S @ u + u @ R @ u)
        states[t + 1] = A @ states[t] + B @ u
    cost += float(states[problem.T] @ problem.P @ states[problem.T])
    return states, inputs, cost


def trajectory_to_json(traj: GrdeTrajectory) -> str:
    """Serialise a trajectory with the same number format as problem files."""

    def fmt_matrix_list(mats):
        blocks = ["    " + _fmt_matrix(M, "    ") for M in mats]
        return "[\n" + ",\n".join(blocks) + "\n  ]" if blocks else "[]"

    lines = ["{"]
    lines.append(f'  "T": {traj.horizon},')
    lines.append(f'  "X": {fmt_matrix_list(traj.X)},')
    lines.append(f'  "K": {fmt_matrix_list(traj.K)},')
    lines.append(f'  "G": {fmt_matrix_list(traj.G)}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_trajectory(traj: GrdeTrajectory, path) -> None:
    with open(path, "w") as fh:
        fh.write(trajectory_to_json(traj))

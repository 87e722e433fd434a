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

from .linalg import DEFAULT_TOL, Tolerance, check_symmetric, pinv, symmetrize
from .model import LQProblem, PopovTriple, _fmt, require_valid


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


def _curvature(X_next, triple: PopovTriple, tol: Tolerance):
    """R_X = R + B^T X B, S_X = A^T X B + S and, from the one pinv of R_X,
    the gain K = R_X^+ S_X^T and the projector G = I - R_X^+ R_X."""
    XB = X_next @ triple.B
    R_X = triple.R + triple.B.T @ XB
    S_X = triple.A.T @ XB + triple.S
    R_X_pinv = pinv(R_X, tol)
    return R_X, S_X, R_X_pinv @ S_X.T, np.eye(triple.m) - R_X_pinv @ R_X


def backward_step(X_next, triple: PopovTriple, tol: Tolerance = DEFAULT_TOL):
    """(X_t, K_t, G_t) from X_{t+1}, all from one pinv of the curvature R_X.

    X_t = A^T X A - S_X K + Q, re-symmetrised.  X_next must be symmetric and
    is not checked; riccati_map is the checked entry point.
    """
    _, S_X, K, G = _curvature(X_next, triple, tol)
    return symmetrize(triple.A.T @ X_next @ triple.A - S_X @ K + triple.Q), K, G


def gain_and_projector(X_next, triple: PopovTriple, tol: Tolerance = DEFAULT_TOL):
    """Feedback gain K and null-space projector G for one backward step.

    K = (R + B^T X B)^+ (S^T + B^T X A),  G = I - (R + B^T X B)^+ (R + B^T X B).
    """
    return _curvature(X_next, triple, tol)[2:]


def riccati_map(X, triple: PopovTriple, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """One backward step of the generalised Riccati difference equation.

    X_prev = A^T X A - (A^T X B + S)(R + B^T X B)^+ (B^T X A + S^T) + Q,
    re-symmetrised against round-off drift.
    """
    Xs = check_symmetric(X, tol, "riccati_map input")
    if Xs.shape[0] != triple.n:
        raise ValueError(f"riccati_map input has size {Xs.shape[0]}, expected {triple.n}")
    return backward_step(Xs, triple, tol)[0]


def solve_full(problem: LQProblem, tol: Tolerance = DEFAULT_TOL) -> GrdeTrajectory:
    """Full backward recursion from the terminal weight down to time 0."""
    require_valid(problem, tol)
    triple = problem.triple
    X = [None] * (problem.T + 1)
    K = [None] * problem.T
    G = [None] * problem.T
    X[problem.T] = symmetrize(problem.P)
    for t in range(problem.T - 1, -1, -1):
        X[t], K[t], G[t] = backward_step(X[t + 1], triple, tol)
    return GrdeTrajectory(tuple(X), tuple(K), tuple(G))


def optimal_cost(traj: GrdeTrajectory, x0) -> float:
    """Value of the optimal cost x0^T X_0 x0."""
    x = np.asarray(x0, dtype=float).reshape(-1)
    return float(x @ traj.X[0] @ x)


def simulate(
    problem: LQProblem,
    traj: GrdeTrajectory,
    x0=None,
    v: Optional[list] = None,
    tol: Tolerance = DEFAULT_TOL,
):
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
        blocks = []
        for M in mats:
            rows = ["      [" + ", ".join(_fmt(v) for v in row) + "]" for row in np.atleast_2d(M)]
            blocks.append("    [\n" + ",\n".join(rows) + "\n    ]")
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

"""Generalised Riccati difference equation: backward recursion and simulation.

The recursion uses the Moore-Penrose pseudo-inverse of the control curvature
R + B^T X B, so it stays well defined when R (or the curvature itself) is
singular; wherever linalg._certified_nonsingular proves a curvature of full
rank, whatever X is, the step inverts it by LU instead.  Optimal inputs are
then a feedback term plus an arbitrary component in the curvature's null
space, captured by a projector G_t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import _certified_nonsingular, _pinv, as_vector, check_symmetric, symmetrize
from .model import LQProblem, PopovTriple, _fmt_matrix, _json_object, require_valid


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


def _schur_step(X_next, M, Pi, certify: bool = True):
    """Generalised Schur complement of the Popov block W = M^T X_next M + Pi.

    With k = rows of M, W = [[W11, W12], [W21, R_X]] is split after k, and
    from one factorisation of R_X (_certified_inverse) this returns
    (symmetrize(W11 - W12 L), L, W, R_X^+, certified) with L = R_X^+ W21.
    certified says whether the inverse was kept, so a sweep whose
    curvature stays singular stops asking.  M = [A B] with the Popov matrix
    as Pi is the full backward step, L its gain K; the reduction applies the
    same map to the trailing block.  X_next must be symmetric and is not
    checked; no other premise is made on it.
    """
    k = M.shape[0]
    W = M.T @ (X_next @ M) + Pi
    R_X_pinv, certified = _certified_inverse(W[k:, k:], certify=certify)
    L = R_X_pinv @ W[k:, :k]
    return symmetrize(W[:k, :k] - W[:k, k:] @ L), L, W, R_X_pinv, certified


def _certified_inverse(R_X, scale: float = 0.0, certify: bool = True):
    """(R_X^+, certified), every curvature's one factorisation: np.linalg.inv
    where certify is set and linalg._certified_nonsingular(R_X, scale) proves
    that the SVD keeps every singular value (R_X^{-1} = R_X^+), else the pinv."""
    try:
        R_X_inv = np.linalg.inv(R_X) if certify else None
    except np.linalg.LinAlgError:
        R_X_inv = None
    if R_X_inv is not None and _certified_nonsingular(R_X, scale, R_X_inv):
        return R_X_inv, True
    return _pinv(R_X), False


def _sweep(X_end, M, Pi, steps: int, stop=None):
    """`steps` Schur-complement steps back from X_end, in backward order, or
    fewer: stop(||X||_F), if given, is asked before each step and ends the
    sweep.  Each step inverts its curvature where certified (see
    _schur_step); the first that is not makes the rest of the sweep take
    the SVD, so a curvature that stays singular costs one failed inverse.

    Returns the lists X (X_end first), L, R_X and R_X^+ (or R_X^{-1}, where
    certified); whatever else a solver reports is formed from them after
    the loop.
    """
    k = M.shape[0]
    X, L, R_X, R_X_pinv = [X_end], [], [], []
    certify = True
    for _ in range(steps):
        if stop is not None and stop(float(np.linalg.norm(X[-1]))):
            break
        X_prev, L_t, W, R_pinv_t, certify = _schur_step(X[-1], M, Pi, certify)
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
    _, K, W, R_X_pinv, _ = _schur_step(X_next, triple.AB, triple.Pi)
    n = triple.n
    return K, np.eye(triple.m) - R_X_pinv @ W[n:, n:]


def riccati_map(X, triple: PopovTriple) -> np.ndarray:
    """One backward step of the generalised Riccati difference equation.

    X_prev = A^T X A - (A^T X B + S)(R + B^T X B)^+ (B^T X A + S^T) + Q,
    re-symmetrised against round-off drift.
    """
    Xs = check_symmetric(X, "riccati_map input", triple.n)
    return _schur_step(Xs, triple.AB, triple.Pi)[0]


def solve_full(problem: LQProblem) -> GrdeTrajectory:
    """Full backward recursion from the terminal weight down to time 0."""
    require_valid(problem)
    triple = problem.triple
    X, K, R_X, R_X_pinv = _sweep(symmetrize(problem.P), triple.AB, triple.Pi, problem.T)
    return GrdeTrajectory(tuple(X[::-1]), tuple(K[::-1]), _projectors(R_X, R_X_pinv)[::-1])


def optimal_cost(traj: GrdeTrajectory, x0) -> float:
    """Value of the optimal cost x0^T X_0 x0; x0 must be finite, of X_0's size."""
    x = as_vector(x0, traj.X[0].shape[0], "field x0")
    return float(x @ traj.X[0] @ x)


def simulate(problem: LQProblem, traj: GrdeTrajectory, x0=None, v: Optional[list] = None):
    """Roll the closed loop forward with u_t = -K_t x_t + G_t v_t.

    x0 goes through problem.initial_state: the given one, else the
    problem's own.  v is an optional list of T free vectors (finite, length
    m) steering the zero-curvature input directions; they change the
    trajectory but never the cost.  Returns (states, inputs, cost) where
    states is (T+1) x n and inputs is T x m.
    """
    if traj.horizon != problem.T:
        raise ValueError(f"trajectory horizon {traj.horizon} does not match problem horizon {problem.T}")
    x = problem.initial_state(x0)
    if v is not None:
        if len(v) != problem.T:
            raise ValueError(f"v must supply {problem.T} vectors, got {len(v)}")
        v = [as_vector(v_t, problem.m, f"v[{t}]") for t, v_t in enumerate(v)]

    t3 = problem.triple
    A, B, Q, S, R = t3.A, t3.B, t3.Q, t3.S, t3.R
    states = np.zeros((problem.T + 1, problem.n))
    inputs = np.zeros((problem.T, problem.m))
    states[0] = x
    for t in range(problem.T):
        u = -traj.K[t] @ states[t]
        if v is not None:
            u = u + traj.G[t] @ v[t]
        inputs[t] = u
        states[t + 1] = A @ states[t] + B @ u
    # Stage costs x^T Q x + 2 x^T S u + u^T R u of all t < T at once.
    x, u, x_T = states[:-1], inputs, states[-1]
    cost = np.sum((x @ Q) * x) + 2.0 * np.sum((x @ S) * u) + np.sum((u @ R) * u)
    return states, inputs, float(cost + x_T @ problem.P @ x_T)


def trajectory_to_json(traj: GrdeTrajectory) -> str:
    """Serialise a trajectory with the same number format as problem files."""

    def fmt_matrix_list(mats):
        blocks = ["    " + _fmt_matrix(M, "    ") for M in mats]
        return "[\n" + ",\n".join(blocks) + "\n  ]" if blocks else "[]"

    return _json_object([("T", traj.horizon)] + [(f, fmt_matrix_list(getattr(traj, f))) for f in "XKG"])


def save_trajectory(traj: GrdeTrajectory, path) -> None:
    with open(path, "w") as fh:
        fh.write(trajectory_to_json(traj))

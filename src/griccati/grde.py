"""Generalised Riccati difference equation: backward recursion and simulation.

The recursion uses the Moore-Penrose pseudo-inverse of the control curvature
R + B^T X B, so it stays well defined when R (or the curvature itself) is
singular; wherever linalg._certified_nonsingular proves a curvature of full
rank, whatever X is, the step inverts it by LU instead (a failed LU gives
NaN, not an exception).  A long sweep checks its first curvature alone and
the others in one stacked call (see _sweep), with the plain loop's outputs
bit for bit.  Optimal inputs are then a feedback term plus an arbitrary
component in the curvature's null space, captured by a projector G_t.

A sweep without a stop rule (solve_full, the reduced solve's first phase)
replays its own float cycle: once the converging iterate returns, bit for
bit, to a state it held before, the rest of the sweep is the plain loop's
replayed, exactly (see _sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import _certified_nonsingular, _lu_inverse, _pinv, as_vector, check_symmetric, symmetrize
from .model import LQProblem, PopovTriple, _fmt_matrix, _json_object, _read_only, require_valid


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


def _schur_step(X_next, M, Pi, certify: bool | None = True):
    """Generalised Schur complement of the Popov block W = M^T X_next M + Pi.

    With k = rows of M, W = [[W11, W12], [W21, R_X]] is split after k, and
    from one factorisation of R_X (_certified_inverse) this returns
    (symmetrize(W11 - W12 L), L, W, R_X^+, certified) with L = R_X^+ W21;
    the sum and the difference are formed in place, each by the formula's
    own IEEE operation.
    certified says whether the inverse was kept, so a sweep whose
    curvature stays singular stops asking; certify=None keeps the LU
    inverse unchecked, for a sweep that certifies its steps together.
    M = [A B] with the Popov matrix as Pi is the full backward step, L its
    gain K; the reduction applies the same map to the trailing block.
    X_next must be symmetric and is not checked; no other premise is made
    on it.
    """
    k = M.shape[0]
    W = M.T @ (X_next @ M)
    W += Pi
    R_X_pinv, certified = _certified_inverse(W[k:, k:], certify=certify)
    L = R_X_pinv @ W[k:, :k]
    S = W[:k, k:] @ L
    return symmetrize(np.subtract(W[:k, :k], S, out=S)), L, W, R_X_pinv, certified


def _certified_inverse(R_X, scale: float = 0.0, certify: bool | None = True):
    """(R_X^+, certified), every curvature's one factorisation: _lu_inverse
    where certify is set and linalg._certified_nonsingular(R_X, scale) proves
    that the SVD keeps every singular value (R_X^{-1} = R_X^+), else the pinv.
    certify=None gives (_lu_inverse(R_X), None), all NaN where the LU
    factorisation fails: the caller certifies it (see _sweep)."""
    if certify is None:
        return _lu_inverse(R_X), None
    if certify:
        with np.errstate(all="ignore"):
            R_X_inv = _lu_inverse(R_X)
        if _certified_nonsingular(R_X, scale, R_X_inv):
            return R_X_inv, True
    return _pinv(R_X), False


class _States:
    """The states (certify flag, exact bits of X) that a sweep has held.

    Every state is keyed on the hash of its flag and diagonal; only a
    diagonal held before is keyed on the hash of the whole matrix, and a
    full key that matches is confirmed byte for byte, so a hash collision
    costs a comparison, never a wrong replay.  The memory cost is one
    hashed key per step.
    """

    def __init__(self):
        self.by_diagonal = {}  # diagonal key -> steps not yet keyed in full
        self.by_matrix = {}  # full key -> steps

    def repeat(self, X: list, certify: bool):
        """Record the state (X[-1], certify); the step that held it before, or None."""
        s, X_s = len(X) - 1, X[-1]
        key = (certify, hash(X_s.diagonal().tobytes()))
        unkeyed = self.by_diagonal.get(key)
        if unkeyed is None:
            self.by_diagonal[key] = [s]
            return None
        for i in unkeyed:
            self.by_matrix.setdefault((certify, hash(X[i].tobytes())), []).append(i)
        unkeyed.clear()
        bits = X_s.tobytes()
        held = self.by_matrix.setdefault((certify, hash(bits)), [])
        first = next((i for i in held if X[i].tobytes() == bits), None)
        held.append(s)
        return first


# Shorter sweeps certify step by step; one stacked check costs more there.
_STACKED_FROM = 8


def _sweep(X_end, M, Pi, steps: int, stop=None):
    """`steps` Schur-complement steps back from X_end, in backward order, or
    fewer: stop(||X||_F), if given, is asked before each step and ends the
    sweep.  Each step inverts its curvature where certified (see
    _schur_step); the first that is not makes the rest of the sweep take
    the SVD, so a curvature that stays singular costs one failed inverse.

    Step 0 certifies its own curvature, and so does every step of a sweep
    of fewer than _STACKED_FROM steps, as in the plain loop.  In a longer
    sweep each later step keeps its LU inverse unchecked, with numpy's
    floating-point errors ignored (an inverse that fails its check may
    overflow before the check sees it; an overflow in a step that
    certifies then goes unreported too, where the plain loop would warn),
    and linalg._certified_nonsingular checks them all in one stacked call,
    before the sweep replays or when it ends.  Where a slice fails, or an LU
    factorisation does (a NaN inverse, not an exception), the sweep returns
    to that step and takes the rest by the SVD, as the plain loop would have
    from there: the lists are the plain loop's, and the waste is at most one
    pass over the unchecked steps.  The states it recorded after that step
    have the certify flag set, which no later state has, so no replay reads
    them; it records that step's state again without the flag, which is the
    state of the step it now takes there (an uncertified curvature takes the
    SVD either way).  stop is asked again for the steps redone, so it must
    answer from its argument alone.

    A sweep without a stop rule replays its own float cycle.  A step is a
    deterministic function of its state, the certify flag and the exact
    bits of X, so once the sweep holds a state it held before (_States),
    every later step repeats the cycle between the two: those steps take
    the cycle's arrays by reference, made read-only, and the lists are the
    plain loop's bit for bit.  The premise is a float evaluation that
    repeats, as OpenBLAS gives at a fixed thread count; a BLAS whose results
    depend on memory alignment gives another valid evaluation, not a
    different answer.  A sweep with a stop rule ends at its certified tail
    and looks for no cycle.

    Returns the lists X (X_end first) and L, and the stacks (len(L), m, m)
    of R_X and R_X^+ (or R_X^{-1}, where certified); whatever else a solver
    reports is formed from them after the loop.  Each step writes its two
    m x m blocks into `steps`-long buffers, allocated once and sliced to
    the steps taken (a redone tail overwrites its rows), so no Popov block
    W outlives its step.
    """
    k = M.shape[0]
    m = M.shape[1] - k
    X, L = [X_end], []
    R_X, R_X_inv = np.empty((steps, m, m)), np.empty((steps, m, m))
    states = _States() if stop is None else None

    def plain(certify, limit):
        """The plain loop's steps, certify carried from step to step, until
        limit are taken: (certify, first, ended), first the step that held
        the state the sweep holds again.  certify=None keeps each LU inverse
        unchecked and records its state as certified; an LU factorisation
        that fails (a NaN inverse) returns certify False before its step."""
        while len(L) < limit:
            if stop is not None and stop(math.sqrt(np.vdot(X[-1], X[-1]))):
                return certify, None, True
            if states is not None and (first := states.repeat(X, certify is not False)) is not None:
                return certify, first, True
            X_prev, L_t, W, R_inv_t, certify = _schur_step(X[-1], M, Pi, certify)
            if certify is None and R_inv_t.size and R_inv_t[0, 0] != R_inv_t[0, 0]:
                return False, None, False
            X.append(X_prev)
            R_X[len(L)], R_X_inv[len(L)] = W[k:, k:], R_inv_t
            L.append(L_t)
        return certify, None, len(L) == steps

    certify, first, ended = plain(True, 1 if steps >= _STACKED_FROM else steps)
    if certify and not ended:
        with np.errstate(all="ignore"):
            certify, first, _ = plain(None, steps)
        s = len(L)
        certified = _certified_nonsingular(R_X[1:s], 0.0, R_X_inv[1:s])
        failed = s if certify is False else None  # its LU factorisation failed
        if not certified.all():
            failed = 1 + int(certified.argmin())
        if failed is not None:
            del X[failed + 1 :], L[failed:]
            _, first, _ = plain(False, steps)
    elif not ended:
        _, first, _ = plain(certify, steps)
    s = len(L)
    if first is not None:
        left, period = steps - s, s - first
        for seq, start in ((X, first + 1), (L, first)):
            cycle = [_read_only(a) for a in seq[start:]]
            seq += (cycle * (left // period + 1))[:left]
        replayed = first + np.arange(left) % period
        R_X[s:], R_X_inv[s:] = R_X[replayed], R_X_inv[replayed]
        s = steps
    return X, L, R_X[:s], R_X_inv[:s]


def _projectors(R_X, R_X_pinv) -> tuple:
    """G = I - R_X^+ R_X for every step of a sweep, from its stacks."""
    return tuple(np.eye(R_X.shape[-1]) - R_X_pinv @ R_X)


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
    """Full backward recursion from the terminal weight down to time 0.

    Once the sweep holds a state it held before, the rest of the horizon
    replays the cycle between the two (see _sweep): the trajectory is the
    plain loop's bit for bit, and its replayed steps share the cycle's X and
    K arrays, made read-only.
    """
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

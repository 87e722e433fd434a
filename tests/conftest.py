import itertools

import numpy as np
import pytest

from griccati import grde, model
from griccati.linalg import pinv, svd_cutoff
from griccati.model import LQProblem, PopovTriple

PHI = (1.0 + np.sqrt(5.0)) / 2.0


def scalar_two_step():
    """Scalar A = B = Q = R = 1, S = 0, P = 0, two steps, x0 = 1."""
    return LQProblem(PopovTriple([[1.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]]), [[0.0]], 2, [1.0])


def scalar_j_problem(T=5):
    """Decoupled pair: a dead coordinate (A = 0, unreachable) plus the scalar unit system."""
    return LQProblem(
        PopovTriple(np.diag([0.0, 1.0]), [[0.0], [1.0]], np.eye(2), np.zeros((2, 1)), [[1.0]]),
        np.zeros((2, 2)),
        T,
        [1.0, 1.0],
    )


def benchmark_pools(seeds):
    """(workload, problem) for every problem of the benchmark's four pools at
    the given run seeds, generated as bench/pipeline.py does."""
    corpus_kinds = ("generic", "singular_R", "nilpotent_block")
    make = model.random_problem
    pools = (
        ("headline_dead_psi", 48, lambda s, i: make(20, 2, s, "nilpotent_block", horizon=500, nilpotent_dim=15)),
        ("live_psi", 48, lambda s, i: make(12, 2, s, "nilpotent_block", horizon=500, nilpotent_dim=2)),
        ("wide_generic", 24, lambda s, i: make(50, 5, s, "generic", horizon=200)),
        ("corpus_5x2", 200, lambda s, i: make(5, 2, s, corpus_kinds[i % 3], horizon=1 + (i // 3) % 20)),
    )
    for seed in seeds:
        for name, size, problem in pools:
            for i in range(size):
                yield name, problem(seed * 100_003 + i, i)


def plain_sweep(problem):
    """solve_full's X, K and G by the plain backward loop: one
    grde._schur_step per step, carrying the certify flag from step to step,
    with no replay; G is formed after the loop as solve_full forms it."""
    t = problem.triple
    X, K, R_X, R_X_pinv = [grde.symmetrize(problem.P)], [], [], []
    certify = True
    for _ in range(problem.T):
        X_prev, K_t, W, R_pinv_t, certify = grde._schur_step(X[-1], t.AB, t.Pi, certify)
        X.append(X_prev)
        K.append(K_t)
        R_X.append(W[problem.n :, problem.n :])
        R_X_pinv.append(R_pinv_t)
    stacks = (np.reshape(R, (-1, problem.m, problem.m)) for R in (R_X, R_X_pinv))
    return tuple(X[::-1]), tuple(K[::-1]), grde._projectors(*stacks)[::-1]


def textbook_step(X_next, M, Pi):
    """(X_prev, L) of one backward step whose curvature W22 is inverted, out
    of place as the formula reads: W = M^T (X_next M) + Pi, L = W22^{-1} W21
    and the symmetric part 0.5 (D + D^T) of D = W11 - W12 L."""
    k = M.shape[0]
    W = M.T @ (X_next @ M) + Pi
    L = np.linalg.inv(W[k:, k:]) @ W[k:, :k]
    D = W[:k, :k] - W[:k, k:] @ L
    return 0.5 * (D + D.T), L


def riccati_iterate(triple, steps):
    """The steps-th iterate of the plain X <- riccati_map(X) from zero, one
    step at a time: the reference search's independent check."""
    X = np.zeros((triple.n, triple.n))
    for _ in range(steps):
        X = grde.riccati_map(X, triple)
    return X


def same_bits(traj, want) -> bool:
    """Whether a trajectory's X, K and G equal want's, element for element."""
    return all(
        len(getattr(traj, f)) == len(w) and all(np.array_equal(a, b) for a, b in zip(getattr(traj, f), w))
        for f, w in zip("XKG", want)
    )


def scaled_problem(problem, c):
    """The same problem with Q, S, R and P multiplied by c."""
    t = problem.triple
    return LQProblem(PopovTriple(t.A, t.B, c * t.Q, c * t.S, c * t.R), c * problem.P, problem.T, problem.x0)


def rotated_problem(problem, V):
    """The same problem in the state coordinates z = V^T x, V orthogonal."""
    t = problem.triple
    return LQProblem(
        PopovTriple(V.T @ t.A @ V, V.T @ t.B, V.T @ t.Q @ V, V.T @ t.S, t.R),
        V.T @ problem.P @ V,
        problem.T,
        V.T @ problem.x0,
    )


def dare_scalar_roots(a, b, q, r):
    """Both real roots of the scalar algebraic equation for (a, b, q, r), s = 0.

    Clearing the denominator of x = a^2 x - a^2 b^2 x^2 / (r + b^2 x) + q
    gives b^2 x^2 + (r - a^2 r - q b^2) x - q r = 0; the product of the
    roots is -qr/b^2 < 0, so one root is positive and one negative.
    """
    beta = r - a * a * r - q * b * b
    sq = np.sqrt(beta * beta + 4.0 * b * b * q * r)
    return (-beta + sq) / (2.0 * b * b), (-beta - sq) / (2.0 * b * b)


def jordan_block(j):
    return np.diag(np.ones(j - 1), 1) if j > 1 else np.zeros((1, 1))


def jordan_chain_weight(J, Q1):
    """Unique solution of X = J^T X J + Q1 for nilpotent J (finite sum)."""
    X = np.zeros_like(Q1)
    term = Q1.copy()
    for _ in range(J.shape[0]):
        X = X + term
        term = J.T @ term @ J
    return X


def multi_root_family(j, coords, seed=0):
    """Problem with one unreachable Jordan block and decoupled scalar loops.

    coords is a list of (a, b, q, r) tuples, one independent scalar system
    per input channel.  Returns (problem, solutions): all 2^len(coords)
    algebraic solutions, each of the form diag(X1, x_1, ..., x_k) with X1
    the Jordan-chain weight and x_i either scalar root.
    """
    rng = np.random.default_rng(seed)
    k = len(coords)
    n = j + k
    J = jordan_block(j)
    A = np.zeros((n, n))
    A[:j, :j] = J
    B = np.zeros((n, k))
    Q = np.zeros((n, n))
    L1 = rng.normal(size=(j, j))
    Q1 = L1 @ L1.T + 0.2 * np.eye(j)
    Q[:j, :j] = Q1
    R = np.zeros((k, k))
    root_pairs = []
    for i, (a, b, q, r) in enumerate(coords):
        A[j + i, j + i] = a
        B[j + i, i] = b
        Q[j + i, j + i] = q
        R[i, i] = r
        root_pairs.append(dare_scalar_roots(a, b, q, r))
    S = np.zeros((n, k))
    problem = LQProblem(PopovTriple(A, B, Q, S, R), np.zeros((n, n)), 8, np.ones(n))
    X1 = jordan_chain_weight(J, Q1)
    solutions = []
    for combo in itertools.product(*root_pairs):
        X = np.zeros((n, n))
        X[:j, :j] = X1
        for i, x in enumerate(combo):
            X[j + i, j + i] = x
        solutions.append(X)
    return problem, solutions


def simulated_cost(problem, u_flat):
    """Cost of an explicit input sequence by rolling the dynamics forward.

    Deliberately shares nothing with the batch QP assembly; this is the
    independent oracle for its H, g, c.
    """
    t = problem.triple
    u = np.asarray(u_flat, dtype=float).reshape(problem.T, problem.m)
    x = np.asarray(problem.x0, dtype=float).copy()
    cost = 0.0
    for step in range(problem.T):
        cost += x @ t.Q @ x + 2.0 * x @ t.S @ u[step] + u[step] @ t.R @ u[step]
        x = t.A @ x + t.B @ u[step]
    return cost + x @ problem.P @ x


def grid_minimize(f, dim, radius=2.0, levels=9, pts=11):
    """Nested grid refinement; crude but independent of any linear algebra."""
    center = np.zeros(dim)
    best = (f(center), center.copy())
    for _ in range(levels):
        axes = [np.linspace(c - radius, c + radius, pts) for c in center]
        for combo in itertools.product(*axes):
            point = np.array(combo)
            val = f(point)
            if val < best[0]:
                best = (val, point)
        center = best[1]
        radius *= 2.0 / (pts - 1)
    return best


def null_space(M):
    """Orthonormal basis of M's numerical kernel, one column per direction,
    by the package's rank cutoff."""
    _, s, Vt = np.linalg.svd(M)
    rank = int(np.count_nonzero(s > svd_cutoff(s, M.shape)))
    return Vt[rank:].T


def projector_distance(U, V):
    """Spectral-norm distance between the orthogonal projectors onto span U and span V."""
    return float(np.linalg.norm(U @ U.T - V @ V.T, 2)) if U.shape[0] else 0.0


def _riccati_parts(X, triple):
    """D(X), the closed loop A_X and (R + B^T X B)^+, written out from the definitions."""
    A, B, Q, S, R = triple.A, triple.B, triple.Q, triple.S, triple.R
    S_X = A.T @ X @ B + S
    R_X_pinv = pinv(R + B.T @ X @ B)
    D = X - A.T @ X @ A + S_X @ R_X_pinv @ S_X.T - Q
    return D, A - B @ R_X_pinv @ S_X.T, R_X_pinv


def difference_identity_residuals(X, Y, triple):
    """Residual norms of the two identities, for Delta = X - Y,

        D(X) - D(Y) = Delta - A_Y^T Delta A_X
        D(X) - D(Y) = Delta - A_Y^T Delta A_Y + A_Y^T Delta B R_X^+ B^T Delta A_Y,

    which hold whenever both kernel constraints do, solutions or not.
    """
    D_X, A_X, R_X_pinv = _riccati_parts(X, triple)
    D_Y, A_Y, _ = _riccati_parts(Y, triple)
    Delta, B = X - Y, triple.B
    lhs = D_X - D_Y
    onestep = lhs - (Delta - A_Y.T @ Delta @ A_X)
    quadratic = lhs - (Delta - A_Y.T @ Delta @ A_Y + A_Y.T @ Delta @ B @ R_X_pinv @ B.T @ Delta @ A_Y)
    return float(np.linalg.norm(onestep)), float(np.linalg.norm(quadratic))


def delta_recursion_residuals(problem, reference, traj):
    """Worst residuals of the difference recursion and of its deadbeat range.

    With Delta_t = X_t - X for the reference X and its closed loop A_X:
    the step residual is the worst ||Delta_t - F_{t+1} Delta_{t+1} A_X||,
    F_{t+1} = A_X^T (I - Delta_{t+1} B (R + B^T X_{t+1} B)^+ B^T), and the
    deadbeat residual the worst ||Delta_{T-tau} U|| over tau in [nu, T],
    where the difference must annihilate the nilpotent eigenspace U.
    """
    A_X, U, T = reference.A_X, reference.U, problem.T
    B, R = problem.triple.B, problem.triple.R
    deltas = [X - reference.X for X in traj.X]
    step = []
    for s in range(T):
        F = A_X.T @ (np.eye(problem.n) - deltas[s + 1] @ B @ pinv(R + B.T @ traj.X[s + 1] @ B) @ B.T)
        step.append(np.linalg.norm(deltas[s] - F @ deltas[s + 1] @ A_X))
    deadbeat = [np.linalg.norm(deltas[T - tau] @ U) for tau in range(reference.nu, T + 1)] if U.size else []
    return float(max(step, default=0.0)), float(max(deadbeat, default=0.0))


def random_psd(rng, n, ridge=0.0):
    L = rng.normal(size=(n, n))
    return L @ L.T / n + ridge * np.eye(n)


@pytest.fixture
def report_builds(monkeypatch):
    """The terminal weight of every validation report built during the test, in order.

    Counts the work a validation does, not the calls that ask for it: a
    problem keeps its report, so asking again builds nothing.
    """
    built = []
    build = model._validation_report

    def counting(triple, terminal):
        built.append(terminal)
        return build(triple, terminal)

    monkeypatch.setattr(model, "_validation_report", counting)
    return built


@pytest.fixture(scope="session")
def corpus200():
    """200 mixed-kind problems, n <= 6, m <= 3, T <= 20, fixed seeds."""
    from griccati.model import random_problem

    kinds = ("generic", "singular_R", "nilpotent_block")
    problems = []
    for i in range(200):
        kind = kinds[i % 3]
        n = 1 + (i * 7) % 6
        if kind == "nilpotent_block":
            n = max(2, n)
        m = 1 + i % 3
        T = 1 + (i * 13) % 20
        problems.append((kind, random_problem(n, m, 10_000 + i, kind, horizon=T)))
    return problems


@pytest.fixture(scope="session")
def corpus200_refs(corpus200):
    """Reference solutions for the mixed corpus where the search converges."""
    from griccati.cgdare import find_reference

    out = []
    for kind, problem in corpus200:
        res = find_reference(problem)
        out.append((kind, problem, res.solution if res.found else None))
    return out


@pytest.fixture(scope="session")
def nilpotent50():
    """50 nilpotent_block problems, n <= 8, T <= 50, with references."""
    from griccati.cgdare import find_reference
    from griccati.model import random_problem

    out = []
    for i in range(50):
        n = 2 + i % 7
        m = 1 + i % 2
        T = 5 + (i * 9) % 46
        problem = random_problem(n, m, 20_000 + i, "nilpotent_block", horizon=T)
        res = find_reference(problem)
        out.append((problem, res.solution if res.found else None))
    return out

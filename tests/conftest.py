import itertools

import numpy as np
import pytest

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


def random_psd(rng, n, ridge=0.0):
    L = rng.normal(size=(n, n))
    return L @ L.T / n + ridge * np.eye(n)


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

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from griccati import linalg
from griccati.grde import optimal_cost, solve_full
from griccati.model import LQProblem, PopovTriple, random_problem
from griccati.oracle import BatchQP, batch_matrices, batch_optimal

from conftest import grid_minimize, scalar_two_step, simulated_cost


def dense_batch_matrices(problem, x0=None):
    """The batch QP by its definition, with every stacked matrix formed densely.

    X = (x_0, ..., x_T) = Phi x0 + Gamma u, Qbar = diag(Q, ..., Q, P),
    Rbar = diag(R, ..., R), Sbar with S on the first T diagonal blocks:
    H = Gamma^T Qbar Gamma + Gamma^T Sbar + Sbar^T Gamma + Rbar,
    g = (Gamma^T Qbar + Sbar^T) Phi x0, c = x0^T Phi^T Qbar Phi x0.
    Memory is O(((T+1) n)^2), so this is a reference for small problems only.
    """
    x0 = np.asarray(problem.x0 if x0 is None else x0, dtype=float).reshape(-1)
    n, m, T = problem.n, problem.m, problem.T
    t3 = problem.triple
    A, B, Q, S, R = t3.A, t3.B, t3.Q, t3.S, t3.R
    powers = [np.eye(n)]
    for _ in range(T):
        powers.append(A @ powers[-1])
    Phi = np.vstack(powers)
    Gamma = np.zeros(((T + 1) * n, T * m))
    for i in range(1, T + 1):
        for j in range(i):
            Gamma[i * n : (i + 1) * n, j * m : (j + 1) * m] = powers[i - 1 - j] @ B
    Qbar = np.zeros(((T + 1) * n, (T + 1) * n))
    for t in range(T):
        Qbar[t * n : (t + 1) * n, t * n : (t + 1) * n] = Q
    Qbar[T * n :, T * n :] = problem.P
    Sbar = np.zeros(((T + 1) * n, T * m))
    for t in range(T):
        Sbar[t * n : (t + 1) * n, t * m : (t + 1) * m] = S
    Rbar = np.kron(np.eye(T), R)
    H = Gamma.T @ Qbar @ Gamma + Gamma.T @ Sbar + Sbar.T @ Gamma + Rbar
    g = (Gamma.T @ Qbar + Sbar.T) @ Phi @ x0
    c = float(x0 @ Phi.T @ Qbar @ Phi @ x0)
    return BatchQP(0.5 * (H + H.T), g, c)


def _rel(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)) if b.size else 0.0


def test_canonical_two_step_assembly_frozen():
    # Hand computation for A=B=Q=R=1, S=0, P=0, T=2, x0=1: rolling the
    # dynamics gives x_1 = 1 + u_0 and x_2 never enters the cost (P = 0), so
    #   J = x_0^2 + u_0^2 + x_1^2 + u_1^2 = 2 + 2 u_0 + 2 u_0^2 + u_1^2.
    # In the J = c + 2 g.u + u.H u convention that is H = [[2, 0], [0, 1]],
    # g = (1, 0), c = 2, with minimiser u* = (-0.5, 0) and J* = 1.5.
    qp = batch_matrices(scalar_two_step())
    assert np.allclose(qp.H, [[2.0, 0.0], [0.0, 1.0]], atol=1e-12)
    assert np.allclose(qp.g, [1.0, 0.0], atol=1e-12)
    assert abs(qp.c - 2.0) <= 1e-12
    u, J = batch_optimal(qp)
    assert np.allclose(u, [-0.5, 0.0], atol=1e-12)
    assert abs(J - 1.5) <= 1e-12


def test_canonical_two_step_against_brute_force():
    # Independent confirmation: minimise the simulated cost (which never
    # touches the batch assembly) by nested grid search.
    problem = scalar_two_step()
    best_val, best_u = grid_minimize(lambda u: simulated_cost(problem, u), dim=2)
    assert abs(best_val - 1.5) <= 1e-6
    assert np.allclose(best_u, [-0.5, 0.0], atol=1e-4)


def test_quadratic_model_matches_simulation():
    # c + 2 g.u + u.H u must equal the rolled-out cost for arbitrary u.
    rng = np.random.default_rng(14)
    for i in range(20):
        problem = random_problem(2 + i % 3, 1 + i % 2, 1000 + i)
        qp = batch_matrices(problem)
        for _ in range(5):
            u = rng.normal(size=problem.T * problem.m)
            assert abs(qp.cost(u) - simulated_cost(problem, u)) <= 1e-8 * (1.0 + abs(qp.cost(u)))


def test_one_step_formulas():
    # T = 1 collapses to H = R + B^T P B, g = (S^T + B^T P A) x0,
    # c = x0^T (Q + A^T P A) x0.
    rng = np.random.default_rng(3)
    n, m = 3, 2
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, m))
    L = rng.normal(size=(n + m, n + m))
    Pi = L @ L.T
    Q, S, R = Pi[:n, :n], Pi[:n, n:], Pi[n:, n:]
    LP = rng.normal(size=(n, n))
    P = LP @ LP.T
    x0 = rng.normal(size=n)
    qp = batch_matrices(LQProblem(PopovTriple(A, B, Q, S, R), P, 1, x0))
    assert np.allclose(qp.H, R + B.T @ P @ B, atol=1e-10)
    assert np.allclose(qp.g, (S.T + B.T @ P @ A) @ x0, atol=1e-10)
    assert abs(qp.c - x0 @ (Q + A.T @ P @ A) @ x0) <= 1e-10 * (1.0 + abs(qp.c))


def test_agrees_with_backward_recursion():
    for i in range(30):
        kind = ("generic", "singular_R", "nilpotent_block")[i % 3]
        problem = random_problem(2 + i % 4, 1 + i % 3, 1100 + i, kind)
        traj = solve_full(problem)
        J_grde = optimal_cost(traj, problem.x0)
        _, J_oracle = batch_optimal(batch_matrices(problem))
        assert abs(J_grde - J_oracle) <= 1e-8 * (1.0 + abs(J_oracle)), (kind, i)


def _assert_minimum(qp, u_star, J_star, rng):
    """No random perturbation of u_star beats J_star."""
    for _ in range(10):
        delta = rng.normal(size=u_star.shape[0])
        assert qp.cost(u_star + delta) >= J_star - 1e-9 * (1.0 + abs(J_star))


def test_minimiser_is_a_minimum():
    # No random perturbation may beat the computed minimiser, including on
    # problems with singular H (free directions must be flat, not descent).
    rng = np.random.default_rng(6)
    for i in range(10):
        qp = batch_matrices(random_problem(3, 2, 1200 + i, "singular_R"))
        _assert_minimum(qp, *batch_optimal(qp), rng)


def test_edge_cases_on_both_paths():
    # The empty horizon, more inputs than states and a single input with
    # R = 0, each where H is certified positive definite (LU) and where it
    # is not (the eigen path): the recursion, batch-QP and simulated costs
    # agree, and the minimiser is a minimum.  singular_R draws R = 0 for
    # the 2 x 4 seed 3 and every m = 1; P = 0 leaves that m = 1 problem's
    # last input free.
    rng = np.random.default_rng(16)
    single = random_problem(4, 1, 1, "singular_R", horizon=10)
    cases = [
        (random_problem(4, 2, 1800, "generic", horizon=0), None),
        (random_problem(2, 4, 1, "singular_R", horizon=10), True),
        (random_problem(2, 4, 2, "singular_R", horizon=10), True),
        (random_problem(2, 4, 3, "singular_R", horizon=10), False),
        (single, True),
        (replace(single, P=np.zeros((4, 4))), False),
    ]
    assert not single.triple.R.any()
    for problem, certified in cases:
        qp = batch_matrices(problem)
        assert qp.size == problem.T * problem.m
        if certified is not None:
            assert linalg._certified_positive_definite(qp.H) == certified, (problem.m, certified)
        u_star, J_star = batch_optimal(qp)
        costs = (optimal_cost(solve_full(problem), problem.x0), J_star, simulated_cost(problem, u_star))
        assert max(costs) - min(costs) <= 1e-8 * (1.0 + max(map(abs, costs))), (problem.m, certified, costs)
        _assert_minimum(qp, u_star, J_star, rng)


def test_singular_curvature_free_direction_flat():
    # Dead input channel: H has an exact kernel; moving along it must not
    # change the cost at all.
    n, m = 2, 2
    A = np.array([[0.3, 0.1], [0.0, 0.2]])
    B = np.array([[1.0, 0.0], [0.5, 0.0]])
    Q = np.eye(n)
    R = np.diag([1.0, 0.0])
    problem = LQProblem(PopovTriple(A, B, Q, np.zeros((n, m)), R), np.zeros((n, n)), 3, [1.0, -2.0])
    qp = batch_matrices(problem)
    u_star, J_star = batch_optimal(qp)
    kick = np.zeros_like(u_star)
    kick[1::m] = 7.0  # second channel of every step
    assert abs(qp.cost(u_star + kick) - J_star) <= 1e-9 * (1.0 + abs(J_star))


def test_cost_clamp_non_negative():
    # With PSD data the optimal value is mathematically >= 0; tiny negative
    # round-off must be clamped to exactly 0.0, not returned as -1e-17.
    for i in range(20):
        problem = random_problem(2 + i % 3, 1 + i % 2, 1300 + i, "singular_R")
        _, J = batch_optimal(batch_matrices(problem))
        assert J >= 0.0


def test_cost_clamp_is_relative_to_the_free_run_cost():
    # x_1 = 1.1 x_0 + 0.3 u_0 with only the terminal weight 0.7 c: u_0 zeroes
    # the cost, and c - g^T H^+ g rounds below 0 by about 1e-16 c: at unit
    # weights, and by 6e-5 at weights x 1e12, beyond an absolute 1e-9.  Every
    # such J* is the round-off of a true optimum of 0, within residual_limit(c).
    z = np.zeros((1, 1))
    raws = {}
    for k in range(-12, 13, 3):
        problem = LQProblem(PopovTriple([[1.1]], [[0.3]], z, z, z), [[0.7 * 10.0**k]], 1, [0.7])
        qp = batch_matrices(problem)
        raws[k] = qp.c - float(qp.g @ linalg.symmetric_lstsq(qp.H, qp.g)[0])
        assert abs(raws[k]) <= linalg.residual_limit(qp.c), k
        _, J = batch_optimal(qp)
        assert J == max(raws[k], 0.0), k
    assert raws[0] < 0.0 and raws[12] < -1e-9


def test_x0_required():
    problem = scalar_two_step()
    stripped = LQProblem(problem.triple, problem.P, problem.T)
    with pytest.raises(ValueError, match="x0|initial"):
        batch_matrices(stripped)
    qp = batch_matrices(stripped, x0=[2.0])
    assert abs(qp.c - 8.0) <= 1e-12  # scales quadratically


def _growing(problem, rho=1.1):
    """The problem with A rescaled to spectral radius rho."""
    A = problem.triple.A
    A = A * (rho / max(abs(np.linalg.eigvals(A))))
    return replace(problem, triple=replace(problem.triple, A=A))


def _assembly_cases():
    # Three kinds, horizons including the empty one, m > n, nonzero S
    # (generic and singular_R draw one), and T = 60 with rho(A) = 1.1, where
    # the backward Lyapunov sums grow with A.
    for kind in ("generic", "singular_R", "nilpotent_block"):
        for n, m in ((4, 2), (2, 4)):
            for T in (0, 1, 2, 7, 20):
                yield kind, random_problem(n, m, 1500 + T, kind, horizon=T)
        yield kind, _growing(random_problem(4, 2, 1560, kind, horizon=60))


def test_assembly_matches_dense_definition():
    # The condensing recursion against the dense formula it replaces, with
    # the problem's x0 and an explicit x0 overriding it.
    rng = np.random.default_rng(15)
    for kind, problem in _assembly_cases():
        n, m, T = problem.n, problem.m, problem.T
        if kind == "generic":
            assert np.linalg.norm(problem.triple.S) > 1e-3
        for x0 in (None, rng.normal(size=n)):
            qp = batch_matrices(problem, x0=x0)
            ref = dense_batch_matrices(problem, x0=x0)
            assert qp.H.shape == ref.H.shape == (T * m, T * m)
            assert qp.g.shape == ref.g.shape == (T * m,)
            assert _rel(qp.H, ref.H) <= 1e-13, (kind, n, m, T)
            assert _rel(qp.g, ref.g) <= 1e-13, (kind, n, m, T)
            assert abs(qp.c - ref.c) <= 1e-13 * abs(ref.c), (kind, n, m, T)
            if T == 0:
                x = problem.x0 if x0 is None else x0
                assert abs(qp.c - x @ problem.P @ x) <= 1e-14 * abs(qp.c)


def test_long_horizon_cost_pinned():
    # live_psi's worst verify problem: n = 12, T = 84, 168 inputs and
    # cond(H) ~ 2e7.  The dense assembly with an SVD pseudo-inverse missed
    # the recursion's cost by 7.1e-7; an SVD pseudo-inverse of this H, whose
    # U and V part ways in the small singular directions, misses by 8e-4
    # (one BLAS thread).  H is certified positive definite, so u* comes from
    # an LU solve: it misses by 4.7e-10 on the condensing recursion and
    # 5.2e-11 on the dense assembly, where the symmetric eigen-solve misses
    # by 5.3e-11 and 7.9e-10.  J* = c + g^T u* cancels c ~ 4.2e6 down to
    # 4.44, so 1e-15 relative changes in H or in the solve move the miss
    # between 5e-11 and 1.1e-9.  Rolled out through the dynamics, which
    # cancels nothing, the same u* misses by about 2e-16.
    problem = replace(random_problem(12, 2, 100035, "nilpotent_block", horizon=500, nilpotent_dim=2), T=84)
    qp = batch_matrices(problem)
    assert qp.size == 168
    u, J = batch_optimal(qp)
    J_ref = optimal_cost(solve_full(problem), problem.x0)
    assert abs(J - J_ref) <= 1e-9 * abs(J_ref)
    assert abs(simulated_cost(problem, u) - J_ref) <= 1e-12 * abs(J_ref)


def test_assembly_memory_is_hessian_plus_lyapunov_sums():
    # The recursion holds H and one product of the same size, (T m)^2 each,
    # and the T + 1 Lyapunov sums, (T + 1) n^2; no (T m) x ((T+1) n) stacked
    # input map.  The bound allows four of each: 2.65 MB here, where the
    # dense stacked-input assembly peaked at 8.0 MB.
    problem = random_problem(20, 1, 1600, "generic", horizon=150)
    n, m, T = problem.n, problem.m, problem.T
    tracemalloc.start()
    try:
        batch_matrices(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * ((T * m) ** 2 + (T + 1) * n**2) * 8

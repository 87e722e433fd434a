import numpy as np
import pytest

from griccati import cgdare, closedform, grde, linalg, reduction
from griccati.grde import (
    GrdeTrajectory,
    gain_and_projector,
    optimal_cost,
    riccati_map,
    simulate,
    solve_full,
    trajectory_to_json,
)
from griccati.linalg import pinv
from griccati.model import (
    LQProblem,
    PopovTriple,
    ProblemValidationError,
    random_problem,
)

from conftest import scalar_two_step


def test_scalar_two_step_golden():
    # Backward recursion by hand: X_2 = 0, X_1 = 1, X_0 = 1 + 1 - 1/2 = 1.5.
    traj = solve_full(scalar_two_step())
    assert np.allclose([X[0, 0] for X in traj.X], [1.5, 1.0, 0.0], atol=1e-12)
    assert np.allclose([K[0, 0] for K in traj.K], [0.5, 0.0], atol=1e-12)
    assert np.allclose([G[0, 0] for G in traj.G], [0.0, 0.0], atol=1e-12)
    assert abs(optimal_cost(traj, [1.0]) - 1.5) <= 1e-12


def test_riccati_map_input_checks():
    triple = scalar_two_step().triple
    with pytest.raises(ValueError):
        riccati_map(np.array([[0.0, 1.0], [0.0, 0.0]]), PopovTriple(np.eye(2), np.ones((2, 1)), np.eye(2), np.zeros((2, 1)), [[1.0]]))
    with pytest.raises(ValueError):
        riccati_map(np.eye(2), triple)


def test_uncontrolled_closed_form():
    # With B = 0 the recursion telescopes:
    #   X_t = (A^T)^{T-t} P A^{T-t} + sum_{k<T-t} (A^T)^k Q A^k
    # and the gain/projector are the constant K = R^+ S^T, G = I - R^+ R.
    rng = np.random.default_rng(4)
    for _ in range(10):
        n, m, T = 3, 2, 6
        A = rng.normal(size=(n, n)) * 0.6
        LQ = rng.normal(size=(n, n))
        Q = LQ @ LQ.T / n
        LR = rng.normal(size=(m, m))
        R = LR @ LR.T + 0.2 * np.eye(m)
        LP = rng.normal(size=(n, n))
        P = LP @ LP.T / n
        problem = LQProblem(PopovTriple(A, np.zeros((n, m)), Q, np.zeros((n, m)), R), P, T)
        traj = solve_full(problem)
        for t in range(T + 1):
            Ak = np.linalg.matrix_power(A, T - t)
            expect = Ak.T @ P @ Ak
            for k in range(T - t):
                Ak2 = np.linalg.matrix_power(A, k)
                expect = expect + Ak2.T @ Q @ Ak2
            assert np.linalg.norm(traj.X[t] - expect) <= 1e-9 * max(1.0, np.linalg.norm(expect))
        K_const = pinv(R) @ np.zeros((m, n))
        for t in range(T):
            assert np.linalg.norm(traj.K[t] - K_const) <= 1e-12
            assert np.linalg.norm(traj.G[t] - (np.eye(m) - pinv(R) @ R)) <= 1e-10


def test_iterates_stay_symmetric_psd():
    # P = 0 and a PSD weight matrix keep every iterate PSD.
    for i in range(20):
        kind = ("generic", "singular_R", "nilpotent_block")[i % 3]
        problem = random_problem(2 + i % 4, 1 + i % 2, 600 + i, kind)
        problem = LQProblem(problem.triple, np.zeros((problem.n, problem.n)), problem.T, problem.x0)
        traj = solve_full(problem)
        for X in traj.X:
            assert np.linalg.norm(X - X.T) <= 1e-12 * max(1.0, np.linalg.norm(X))
            w = np.linalg.eigvalsh(X)
            assert w.min() >= -1e-9 * max(1.0, w.max())


def test_projector_properties():
    for i in range(20):
        problem = random_problem(3, 2, 700 + i, "singular_R")
        traj = solve_full(problem)
        t3 = problem.triple
        for t in range(problem.T):
            R_X = t3.R + t3.B.T @ traj.X[t + 1] @ t3.B
            G = traj.G[t]
            assert np.linalg.norm(G @ G - G) <= 1e-9
            assert np.linalg.norm(R_X @ G) <= 1e-9 * max(1.0, np.linalg.norm(R_X))


def test_horizon_zero():
    problem = LQProblem(scalar_two_step().triple, [[2.0]], 0, [3.0])
    traj = solve_full(problem)
    assert len(traj.X) == 1 and len(traj.K) == 0
    assert abs(optimal_cost(traj, [3.0]) - 18.0) <= 1e-12


def test_solve_full_requires_valid_problem():
    bad = LQProblem(PopovTriple([[0.5]], [[1.0]], [[0.0]], [[1.0]], [[0.0]]), [[0.0]], 2)
    with pytest.raises(ProblemValidationError):
        solve_full(bad)


def test_simulate_cost_matches_quadratic_form():
    for i in range(15):
        kind = ("generic", "singular_R", "nilpotent_block")[i % 3]
        problem = random_problem(2 + i % 3, 1 + i % 2, 800 + i, kind)
        traj = solve_full(problem)
        states, inputs, cost = simulate(problem, traj)
        expect = optimal_cost(traj, problem.x0)
        assert abs(cost - expect) <= 1e-8 * (1.0 + abs(expect))
        assert states.shape == (problem.T + 1, problem.n)
        assert inputs.shape == (problem.T, problem.m)


def test_simulate_free_directions_cost_invariant():
    # A dead input channel (zero column of B, zero row/column of R) keeps
    # R_X singular at every step, so the projector admits genuinely free
    # directions: the trajectory of inputs moves, the cost must not.
    rng = np.random.default_rng(8)
    for i in range(10):
        n, m = 3, 2
        A = rng.normal(size=(n, n)) * 0.5
        B = np.zeros((n, m))
        B[:, 0] = rng.normal(size=n)
        L = rng.normal(size=(n, n))
        Q = L @ L.T / n
        R = np.diag([1.0, 0.0])
        problem = LQProblem(
            PopovTriple(A, B, Q, np.zeros((n, m)), R), np.zeros((n, n)), 5, rng.normal(size=n)
        )
        traj = solve_full(problem)
        _, inputs0, cost0 = simulate(problem, traj)
        v = [rng.normal(size=m) for _ in range(problem.T)]
        _, inputs1, cost1 = simulate(problem, traj, v=v)
        assert abs(cost1 - cost0) <= 1e-7 * (1.0 + abs(cost0))
        assert np.linalg.norm(inputs1 - inputs0) > 1e-6, "free direction did not move the input"


def test_simulate_needs_initial_state():
    problem = scalar_two_step()
    problem = LQProblem(problem.triple, problem.P, problem.T)  # drop x0
    traj = solve_full(problem)
    with pytest.raises(ValueError, match="initial state"):
        simulate(problem, traj)
    with pytest.raises(ValueError, match="x0"):
        simulate(problem, traj, x0=[1.0, 2.0])


def test_simulate_horizon_mismatch():
    p1 = scalar_two_step()
    p2 = LQProblem(p1.triple, p1.P, 3, [1.0])
    with pytest.raises(ValueError, match="horizon"):
        simulate(p2, solve_full(p1))


def test_one_pseudo_inverse_per_step(monkeypatch):
    # Every solver takes one curvature pseudo-inverse per step, counted per
    # slice of a stacked call: the Schur-complement step takes one, and the
    # closed form takes those of its whole sweep in one stacked call.
    # closed_loop takes its residual, gain and kernel condition from one.
    slices = []

    def counting_pinv(A):
        slices.append(int(np.prod(A.shape[:-2])))
        return linalg._pinv(A)

    for module in (grde, closedform):
        monkeypatch.setattr(module, "_pinv", counting_pinv)
    problem = random_problem(4, 2, 41, "singular_R", horizon=9)
    solve_full(problem)
    assert sum(slices) == problem.T
    slices.clear()
    cgdare.closed_loop(np.eye(problem.n), problem.triple)
    assert sum(slices) == 1

    problem = random_problem(6, 2, 42, "nilpotent_block", horizon=12, nilpotent_dim=3)
    rd = reduction.build_reduction(problem, cgdare.find_reference(problem).solution)
    assert 1 <= rd.nu < problem.T
    for solve in (reduction.solve_hybrid, closedform.solve_closed_form):
        slices.clear()
        assert not solve(problem, rd).used_fallback
        assert sum(slices) == problem.T, solve.__name__
    # nu full steps, then the closed form's one stacked call.
    assert len(slices) == rd.nu + 1


def _with_cross_weight(problem, rng):
    """The problem with [a; R w][a; R w]^T added to its weight matrix.

    The weight stays positive semidefinite and ker R does not move, so the
    problem keeps its kind, but S becomes nonzero wherever R is.
    """
    t3 = problem.triple
    a = rng.normal(size=problem.n)
    b = t3.R @ rng.normal(size=problem.m)
    triple = PopovTriple(t3.A, t3.B, t3.Q + np.outer(a, a), t3.S + np.outer(a, b), t3.R + np.outer(b, b))
    return LQProblem(triple, problem.P, problem.T, problem.x0)


def test_gains_match_their_definition():
    rng = np.random.default_rng(12)
    for kind in ("generic", "singular_R", "nilpotent_block"):
        checked = 0
        for seed in range(900, 912):
            problem = _with_cross_weight(random_problem(4, 2, seed, kind, horizon=8), rng)
            t3 = problem.triple
            if not np.any(t3.S):
                continue  # singular_R with R = 0 forces S = 0
            traj = solve_full(problem)
            for t in range(problem.T):
                X = traj.X[t + 1]
                R_X = t3.R + t3.B.T @ X @ t3.B
                S_X = t3.A.T @ X @ t3.B + t3.S
                K = pinv(R_X) @ (t3.S.T + t3.B.T @ X @ t3.A)
                G = np.eye(problem.m) - pinv(R_X) @ R_X
                X_t = t3.A.T @ X @ t3.A - S_X @ pinv(R_X) @ S_X.T + t3.Q
                assert np.linalg.norm(traj.X[t] - X_t) <= 1e-12 * (1.0 + np.linalg.norm(X_t)), (kind, seed, t)
                assert np.linalg.norm(traj.K[t] - K) <= 1e-12 * (1.0 + np.linalg.norm(K)), (kind, seed, t)
                assert np.linalg.norm(traj.G[t] - G) <= 1e-12 * (1.0 + np.linalg.norm(G)), (kind, seed, t)
            checked += 1
        assert checked >= 8, kind


def test_gain_and_projector_shapes():
    problem = random_problem(4, 2, 31)
    K, G = gain_and_projector(np.eye(4), problem.triple)
    assert K.shape == (2, 4)
    assert G.shape == (2, 2)


def test_trajectory_json_shape():
    import json

    traj = solve_full(scalar_two_step())
    doc = json.loads(trajectory_to_json(traj))
    assert doc["T"] == 2
    assert len(doc["X"]) == 3 and len(doc["K"]) == 2 and len(doc["G"]) == 2
    assert doc["X"][0] == [[1.5]]


def test_trajectory_json_text_pinned():
    # The trajectory file shares the problem file's matrix layout and
    # 17-digit number format; the text is pinned byte for byte.
    traj = GrdeTrajectory(
        X=(np.array([[1.0 / 3.0, 0.1], [0.1, 2.0]]), np.array([[-1e-20, 0.0], [0.0, 12345.678]])),
        K=(np.array([[0.5, -2.0 / 7.0]]),),
        G=(np.array([[0.0]]),),
    )
    assert trajectory_to_json(traj) == (
        '{\n  "T": 1,\n  "X": [\n    [\n      [0.33333333333333331, 0.10000000000000001],\n'
        '      [0.10000000000000001, 2]\n    ],\n    [\n      [-9.9999999999999995e-21, 0],\n'
        '      [0, 12345.678]\n    ]\n  ],\n  "K": [\n    [\n      [0.5, -0.2857142857142857]\n'
        '    ]\n  ],\n  "G": [\n    [\n      [0]\n    ]\n  ]\n}\n'
    )
    empty = GrdeTrajectory(X=(np.eye(1),), K=(), G=())
    assert trajectory_to_json(empty) == (
        '{\n  "T": 0,\n  "X": [\n    [\n      [1]\n    ]\n  ],\n  "K": [],\n  "G": []\n}\n'
    )

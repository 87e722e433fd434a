import dataclasses

import numpy as np
import pytest

from griccati import reduction
from griccati.cgdare import closed_loop, find_reference
from griccati.closedform import _gramian_rule, solve_closed_form
from griccati.grde import gain_and_projector, solve_full
from griccati.linalg import symmetrize
from griccati.model import LQProblem, PopovTriple, problem_from_json, problem_to_json, random_problem
from griccati.reduction import build_reduction, checkpoint_blocks, reduced_step, solve_hybrid

from conftest import PHI, dare_scalar_roots, delta_recursion_residuals, scalar_j_problem


def _assert_trajectories_match(t_a, t_b, rtol=1e-8):
    assert t_a.horizon == t_b.horizon
    for field in ("X", "K", "G"):
        for t, (Ma, Mb) in enumerate(zip(getattr(t_a, field), getattr(t_b, field))):
            scale = 1.0 + max(np.linalg.norm(Ma), np.linalg.norm(Mb))
            assert np.linalg.norm(Ma - Mb) <= rtol * scale, (field, t)


def _drift_singular_problem(seed, n=3, m=2, T=10):
    """R strictly PD but A - B R^-1 S^T of rank n-1, with the unreachable
    direction NOT orthogonal to the input map — the stress case for the
    reduced recursion's curvature term."""
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, m))
    L = rng.normal(size=(m, m))
    R = L @ L.T + 0.5 * np.eye(m)
    S = 0.3 * rng.normal(size=(n, m))
    W = rng.normal(size=(n, n - 1)) @ rng.normal(size=(n - 1, n)) * 0.4
    A = B @ np.linalg.solve(R, S.T) + W
    M = rng.normal(size=(n, n))
    Q = S @ np.linalg.solve(R, S.T) + M @ M.T / n + 0.2 * np.eye(n)
    LP = rng.normal(size=(n, n))
    P = LP @ LP.T / n
    return LQProblem(PopovTriple(A, B, Q, S, R), P, T, rng.normal(size=n))


def live_scalar_problem(q, T, P=None, dead_input=False):
    """scalar_j_problem's shape with live weight q, and its exact reference.

    A = diag(0, 1), B = [0; 1], Q = diag(1, q), R = 1: the reference is
    diag(1, x) with x the positive root of x^2 = q (1 + x), so dim U = 1,
    nu = 1 and Z = 1 / (1 + x), which tends to 1 as q -> 0.  dead_input
    adds an input that reaches nothing and costs nothing, so R_full is
    singular.
    """
    x = dare_scalar_roots(1.0, 1.0, q, 1.0)[0]
    B, R = np.array([[0.0], [1.0]]), np.eye(1)
    if dead_input:
        B, R = np.hstack([B, np.zeros((2, 1))]), np.diag([1.0, 0.0])
    P = np.zeros((2, 2)) if P is None else P
    triple = PopovTriple(np.diag([0.0, 1.0]), B, np.diag([1.0, q]), np.zeros(B.shape), R)
    return LQProblem(triple, P, T, [1.0, 1.0]), np.diag([1.0, x])


def large_terminal_weight_problem():
    """A nilpotent_block problem whose P = 1e6 I dwarfs the reference
    (||X_circ||_F ~ 3): Psi_{T'} is large and positive definite."""
    problem = random_problem(12, 2, 3, "nilpotent_block", horizon=300, nilpotent_dim=4)
    return dataclasses.replace(problem, P=1e6 * np.eye(problem.n))


def headline_problem():
    return random_problem(20, 2, 42, "nilpotent_block", horizon=500, nilpotent_dim=15)


def _rotated_closed_loop_blocks(rd):
    """N0 and the lower-left block of T_orth^T A_X T_orth, from the reference."""
    ref, k = rd.reference, rd.dim_u
    A_rot = ref.T_orth.T @ ref.A_X @ ref.T_orth
    return A_rot[:k, :k], A_rot[k:, :k]


def test_scalar_decoupled_goldens():
    # A = diag(0, 1), B = [0; 1]: the dead coordinate carries weight 1 and
    # the live one the golden-ratio fixed point.
    problem = scalar_j_problem()
    res = find_reference(problem)
    assert res.found
    assert np.allclose(res.solution.X, np.diag([1.0, PHI]), atol=1e-9)
    rd = build_reduction(problem, res.solution)
    assert rd.nu == 1
    assert rd.dim_u == 1
    assert rd.dim_reduced == 1
    assert abs(rd.Z[0, 0] - (2.0 - PHI)) <= 1e-9          # 0.381966...
    assert abs(abs(rd.B2[0, 0]) - 1.0) <= 1e-9
    assert abs(rd.reference.R_X[0, 0] - (1.0 + PHI)) <= 1e-9     # 2.618034..., B1 = 0
    assert np.linalg.norm(rd.reference.U.T @ problem.triple.B) <= 1e-9
    N0, lower_left = _rotated_closed_loop_blocks(rd)
    assert np.linalg.norm(lower_left) <= 1e-9
    assert np.linalg.norm(np.linalg.matrix_power(N0, rd.nu)) <= 1e-12


def test_reduced_step_frozen_value():
    # Terminal slack P - X has reduced block Psi = -phi; one backward step
    # must give 1 - phi = -0.618034 (second golden-ratio conjugate).
    problem = scalar_j_problem()
    res = find_reference(problem)
    rd = build_reduction(problem, res.solution)
    out = reduced_step(np.array([[-PHI]]), rd)
    assert abs(out[0, 0] - (1.0 - PHI)) <= 1e-9
    assert np.allclose(reduced_step(np.zeros((1, 1)), rd), 0.0, atol=1e-12)
    with pytest.raises(ValueError, match="size"):
        reduced_step(np.zeros((2, 2)), rd)


def test_build_reduction_invariants():
    for i in range(10):
        problem = random_problem(3 + i % 4, 1 + i % 2, 1700 + i, "nilpotent_block")
        res = find_reference(problem)
        assert res.found
        rd = build_reduction(problem, res.solution)
        n = problem.n
        T_orth = rd.reference.T_orth
        assert T_orth.shape == (n, n)
        assert np.linalg.norm(T_orth.T @ T_orth - np.eye(n)) <= 1e-12
        assert rd.dim_u >= 1
        assert rd.nu >= 1
        # Rotated closed loop is block upper triangular with nilpotent
        # leading block.
        N0, lower_left = _rotated_closed_loop_blocks(rd)
        assert np.linalg.norm(np.linalg.matrix_power(N0, rd.nu)) <= 1e-8
        assert np.linalg.norm(lower_left) <= 1e-8
        assert np.all(np.linalg.eigvalsh(rd.reference.R_X) > 0)


def test_build_reduction_rejects_unaccepted_reference():
    problem = scalar_j_problem()
    bogus = closed_loop(np.diag([5.0, 5.0]), problem.triple)  # not a solution
    assert not bogus.accepted()
    with pytest.raises(ValueError, match="reference"):
        build_reduction(problem, bogus)


def _weighted_integrator(q):
    """x1 is dead, x2 an integrator with state weight q: X_circ = diag(1, (q + sqrt(q^2 + 4q)) / 2)."""
    triple = PopovTriple(np.diag([0.0, 1.0]), [[0.0], [1.0]], np.diag([1.0, q]), np.zeros((2, 1)), [[1.0]])
    return LQProblem(triple, np.zeros((2, 2)), 30)


def test_build_reduction_rejects_another_triples_reference():
    # Unchecked, the q = 0.5 reference made the hybrid return X_0[1, 1] = 1.0
    # for q = 2 without falling back; the full recursion gives 1 + sqrt(3).
    # Both reduced solves refuse a reduction built for q = 0.5 in the same way.
    problem, half = _weighted_integrator(2.0), _weighted_integrator(0.5)
    with pytest.raises(ValueError, match="different Popov triple"):
        build_reduction(problem, find_reference(half).solution)
    rd_half = build_reduction(half, find_reference(half).solution)
    for solve in (solve_hybrid, solve_closed_form):
        with pytest.raises(ValueError, match="different Popov triple"):
            solve(problem, rd_half)
    # A reloaded problem has equal arrays in a distinct triple, and is accepted.
    reloaded = problem_from_json(problem_to_json(problem))[0]
    assert reloaded.triple is not problem.triple
    result = solve_hybrid(reloaded, build_reduction(reloaded, find_reference(problem).solution))
    assert not result.used_fallback and abs(result.trajectory.X[0][1, 1] - (1.0 + np.sqrt(3.0))) <= 1e-12
    _assert_trajectories_match(result.trajectory, solve_full(problem), rtol=1e-12)
    # So is a reduction built for the original, and it gives the same X bit for bit.
    reloaded_half = problem_from_json(problem_to_json(half))[0]
    X, X_reloaded = (solve_hybrid(p, rd_half).trajectory.X for p in (half, reloaded_half))
    assert len(X) == len(X_reloaded) and all(np.array_equal(a, b) for a, b in zip(X, X_reloaded))


def test_hybrid_matches_full_on_nilpotent_corpus(nilpotent50):
    checked = 0
    for problem, reference in nilpotent50[:20]:
        if reference is None:
            continue
        rd = build_reduction(problem, reference)
        result = solve_hybrid(problem, rd)
        assert not result.used_fallback, result.fallback_reason
        _assert_trajectories_match(result.trajectory, solve_full(problem))
        assert result.full_steps == min(rd.nu, problem.T)
        assert result.reduced_steps == problem.T - result.full_steps
        assert result.checkpoint_off_norm <= result.checkpoint_threshold
        checked += 1
    assert checked >= 15


def test_hybrid_drift_singular_unaligned_input():
    # Unreachable direction with U^T B != 0: the reduced recursion must use
    # the curvature of the original problem, R_full + B2^T Psi B2, not
    # R + B2^T (X22 + Psi) B2 built from the reduced block alone, to track
    # the full recursion.  Regression guard for that easy-to-make error,
    # which drifts at ~1e-5 per step; the public reduced_step is held to it
    # on the first reduced step.
    hit = 0
    for seed in (101, 102, 104, 107, 110):
        problem = _drift_singular_problem(seed)
        res = find_reference(problem)
        if not res.found:
            continue
        rd = build_reduction(problem, res.solution)
        if rd.dim_u == 0:
            continue
        assert np.linalg.norm(rd.reference.U.T @ problem.triple.B) > 1e-3, "construction should give B1 != 0"
        full = solve_full(problem)
        Psi, Psi_prev = (
            checkpoint_blocks(full.X[t] - rd.X_circ, rd)[2] for t in (problem.T - rd.nu, problem.T - rd.nu - 1)
        )
        err = np.linalg.norm(reduced_step(Psi, rd) - Psi_prev) / np.linalg.norm(Psi_prev)
        assert err <= 1e-10, (seed, err)
        result = solve_hybrid(problem, rd)
        assert not result.used_fallback, result.fallback_reason
        _assert_trajectories_match(result.trajectory, full)
        hit += 1
    assert hit >= 3, f"too few usable drift-singular instances ({hit})"


def test_hybrid_nu_zero_runs_reduced_recursion():
    # Generic problems: no nilpotent part, so U is empty and the reduced
    # recursion is the difference recursion Psi_t = X_t - X_circ on the whole
    # state.  All T steps are reduced ones, with no fallback (the checkpoint
    # blocks are empty), nu = 0 and the whole state as the reduced block.
    # On the long n = 50 horizon Psi decays like A_X^s, and a certified tail
    # takes over well before the horizon ends.
    for n, m, seed, horizon in ((3, 2, 1800, 8), (5, 2, 1801, 20), (50, 5, 1, 200)):
        problem = random_problem(n, m, seed, "generic", horizon=horizon)
        res = find_reference(problem)
        assert res.found
        rd = build_reduction(problem, res.solution)
        assert rd.nu == 0 and rd.dim_u == 0 and rd.dim_reduced == problem.n
        result = solve_hybrid(problem, rd)
        assert not result.used_fallback and result.fallback_reason == ""
        assert (result.nu, result.dim_u, result.dim_reduced) == (0, 0, problem.n)
        assert result.full_steps == 0 and result.reduced_steps == problem.T
        assert result.tail_reason == ""
        _assert_trajectories_match(result.trajectory, solve_full(problem))
    assert 0 < result.tail_steps < problem.T


def test_nu_zero_assembly_equals_rotated_product():
    # A non-singular A_X leaves the staircase's T_orth = I exactly, so the
    # X_circ + Psi assembly is the rotated X_circ + U_c Psi U_c^T bit for bit.
    # The rule inverts each certified curvature, as the hybrid solve does.
    problem = random_problem(5, 2, 1801, "generic", horizon=20)
    rd = build_reduction(problem, find_reference(problem).solution)
    T_orth = rd.reference.T_orth
    assert rd.dim_u == 0 and np.array_equal(T_orth, np.eye(problem.n))
    Psi_T = checkpoint_blocks(symmetrize(problem.P) - rd.X_circ, rd)[2]
    Psi, R_X, R_X_pinv = reduction._hybrid_rule(Psi_T, problem.T, rd, lambda Psi: False)
    assert len(R_X) == problem.T
    X = reduction._phase_two_outputs(Psi, R_X, R_X_pinv, rd)[0]
    U_c = T_orth[:, rd.dim_u :]
    assert np.array_equal(X, symmetrize(rd.X_circ + U_c @ Psi[1:] @ U_c.T))
    hybrid = solve_hybrid(problem, rd).trajectory.X
    assert all(np.array_equal(a, b) for a, b in zip(X, hybrid[::-1][1:]))


def test_nu_zero_outputs_are_symmetric_without_symmetrize():
    # With dim U = 0 the phase-two X_t = X_circ + Psi_t is not symmetrised:
    # both rules return symmetrised Psi_t, so the sum already equals its
    # symmetric part bit for bit, on the iterated and the Gramian rule alike.
    for n, m, seed, horizon in ((5, 2, 1801, 20), (12, 3, 4, 40)):
        problem = random_problem(n, m, seed, "generic", horizon=horizon)
        rd = build_reduction(problem, find_reference(problem).solution)
        assert rd.dim_u == 0
        Psi_T = checkpoint_blocks(symmetrize(problem.P) - rd.X_circ, rd)[2]
        for rule in (reduction._hybrid_rule, _gramian_rule):
            Psi, R_X, R_X_pinv = rule(Psi_T, problem.T, rd, lambda Psi: False)
            X = reduction._phase_two_outputs(Psi, R_X, R_X_pinv, rd)[0]
            assert len(X) == problem.T
            assert np.array_equal(X, symmetrize(X)), rule.__name__


def test_outputs_with_dim_u_are_exactly_symmetric():
    # With dim U > 0 phase two forms X_t = X_circ + U_c Psi_t U_c^T by two
    # products, whose rounding is not symmetric: without its symmetrize, 5
    # of these 8 problems kept an X_t unequal to its transpose.  Every X_t of
    # either reduced route must equal its transpose exactly.
    for seed in range(1, 9):
        problem = random_problem(20, 2, seed, "nilpotent_block", horizon=500, nilpotent_dim=15)
        rd = build_reduction(problem, find_reference(problem).solution)
        assert rd.dim_u > 0
        for solve in (solve_hybrid, solve_closed_form):
            result = solve(problem, rd)
            assert not result.used_fallback
            assert all(np.array_equal(X, X.T) for X in result.trajectory.X), (seed, solve.__name__)


def test_hybrid_headline_matches_full_sweep_to_rounding():
    # n = 20, nu = 15, T = 500: the nilpotent block settles one step after
    # nu.  A reference short of the polish floor left the hybrid's X 2e-12
    # to 4e-12 off the full sweep on these seeds; the doubled reference is
    # polished to rounding.
    for seed in (8, 9, 11):
        problem = random_problem(20, 2, seed, "nilpotent_block", horizon=500, nilpotent_dim=15)
        result = solve_hybrid(problem, build_reduction(problem, find_reference(problem).solution))
        assert not result.used_fallback and result.tail_steps > 0
        worst = max(
            np.linalg.norm(Xa - Xb) / np.linalg.norm(Xb)
            for Xa, Xb in zip(result.trajectory.X, solve_full(problem).X)
        )
        assert worst <= 1e-13, (seed, worst)


def test_nu_zero_singular_full_curvature_iterates_whole_horizon():
    # A generic problem plus an input that reaches nothing and costs
    # nothing: R_full is singular but A_X is not, so nu = 0 and the tail
    # certificate is refused; every step is iterated.
    base = random_problem(4, 2, 1802, "generic", horizon=60)
    t = base.triple
    R = np.zeros((3, 3))
    R[:2, :2] = t.R
    zero = np.zeros((4, 1))
    triple = PopovTriple(t.A, np.hstack([t.B, zero]), t.Q, np.hstack([t.S, zero]), R)
    problem = LQProblem(triple, base.P, base.T, base.x0)
    rd = build_reduction(problem, find_reference(problem).solution)
    assert rd.dim_u == 0 and np.linalg.matrix_rank(rd.reference.R_X) == 2
    result = solve_hybrid(problem, rd)
    assert not result.used_fallback
    assert result.full_steps == 0 and result.reduced_steps == problem.T
    assert result.tail_steps == 0 and "R_full" in result.tail_reason
    _assert_trajectories_match(result.trajectory, solve_full(problem), rtol=1e-10)


def test_hybrid_whole_state_nilpotent():
    # B = 0 and A nilpotent: U is everything, the reduced block is empty and
    # the tail of the trajectory is exactly constant.
    n, m, T = 2, 1, 6
    A = np.diag(np.ones(n - 1), 1)
    problem = LQProblem(
        PopovTriple(A, np.zeros((n, m)), np.eye(n), np.zeros((n, m)), [[1.0]]),
        0.5 * np.eye(n),
        T,
        [1.0, 1.0],
    )
    res = find_reference(problem)
    assert res.found
    rd = build_reduction(problem, res.solution)
    assert rd.dim_u == n and rd.dim_reduced == 0 and rd.nu == n
    result = solve_hybrid(problem, rd)
    assert not result.used_fallback
    full = solve_full(problem)
    _assert_trajectories_match(result.trajectory, full)
    for t in range(T - rd.nu + 1):
        assert np.linalg.norm(full.X[t] - res.solution.X) <= 1e-10
    # Nothing is left to bound, so every reduced step is tail, down to T = nu + 1.
    for horizon in (T, rd.nu + 1):
        short = dataclasses.replace(problem, T=horizon)
        result = solve_hybrid(short, rd)
        assert (result.tail_steps, result.tail_reason) == (horizon - rd.nu, "")
        _assert_trajectories_match(result.trajectory, solve_full(short))


def test_hybrid_multiple_jordan_blocks():
    # Two unreachable chains of sizes 2 and 1: dim U = 3, index nu = 2.
    A = np.zeros((4, 4))
    A[0, 1] = 1.0
    A[3, 3] = 0.8
    B = np.array([[0.0], [0.0], [0.0], [1.0]])
    rng = np.random.default_rng(0)
    L = rng.normal(size=(3, 3))
    Q = np.zeros((4, 4))
    Q[:3, :3] = L @ L.T / 3 + 0.2 * np.eye(3)
    Q[3, 3] = 1.0
    problem = LQProblem(
        PopovTriple(A, B, Q, np.zeros((4, 1)), [[1.0]]), np.zeros((4, 4)), 9, [1.0, -1.0, 2.0, 0.5]
    )
    res = find_reference(problem)
    assert res.found
    rd = build_reduction(problem, res.solution)
    assert rd.dim_u == 3
    assert rd.nu == 2
    result = solve_hybrid(problem, rd)
    assert not result.used_fallback
    _assert_trajectories_match(result.trajectory, solve_full(problem))


def test_hybrid_short_horizon_fallback():
    problem = random_problem(4, 1, 1900, "nilpotent_block", horizon=1, nilpotent_dim=3)
    res = find_reference(problem)
    assert res.found
    rd = build_reduction(problem, res.solution)
    assert rd.nu > problem.T
    result = solve_hybrid(problem, rd)
    assert result.used_fallback
    assert "horizon" in result.fallback_reason
    assert result.tail_steps == 0
    _assert_trajectories_match(result.trajectory, solve_full(problem))


def test_hybrid_fallback_validates_once(report_builds):
    # The fallback runs solve_full on the problem solve_hybrid has
    # validated, and the problem keeps its report.
    problem = random_problem(4, 1, 1900, "nilpotent_block", horizon=1, nilpotent_dim=3)
    rd = build_reduction(problem, find_reference(problem).solution)
    result = solve_hybrid(problem, rd)
    assert result.used_fallback and "horizon" in result.fallback_reason
    assert len(report_builds) == 1


def test_result_counts_derive_from_the_solve():
    # Horizon 1 is shorter than nu = 3 and falls back; horizon 12 does not.
    for T in (1, 12):
        problem = random_problem(4, 1, 1900, "nilpotent_block", horizon=T, nilpotent_dim=3)
        rd = build_reduction(problem, find_reference(problem).solution)
        result = solve_hybrid(problem, rd)
        assert result.used_fallback == (T < rd.nu), result.fallback_reason
        assert (result.nu, result.dim_u, result.dim_reduced) == (rd.nu, rd.dim_u, rd.dim_reduced)
        assert result.reduced_steps == T - result.full_steps
        assert result.used_fallback is bool(result.fallback_reason)


@pytest.mark.parametrize("solve", [solve_hybrid, solve_closed_form])
def test_hybrid_horizon_equals_index(solve):
    problem = random_problem(3, 1, 1901, "nilpotent_block", horizon=2, nilpotent_dim=2)
    res = find_reference(problem)
    assert res.found
    rd = build_reduction(problem, res.solution)
    assert rd.nu == 2
    result = solve(problem, rd)
    assert not result.used_fallback
    assert result.full_steps == 2 and result.reduced_steps == 0 and result.tail_steps == 0
    _assert_trajectories_match(result.trajectory, solve_full(problem))


@pytest.mark.parametrize("solve", [solve_hybrid, solve_closed_form])
def test_hybrid_horizon_one_past_index(solve):
    problem = random_problem(3, 1, 1901, "nilpotent_block", horizon=3, nilpotent_dim=2)
    rd = build_reduction(problem, find_reference(problem).solution)
    assert rd.nu == 2 and rd.dim_reduced > 0
    result = solve(problem, rd)
    assert not result.used_fallback
    assert result.full_steps == 2 and result.reduced_steps == 1 and result.tail_steps in (0, 1)
    _assert_trajectories_match(result.trajectory, solve_full(problem), rtol=1e-12)


def test_tail_headline_matches_full_and_is_read_only():
    problem = headline_problem()
    ref = find_reference(problem).solution
    rd = build_reduction(problem, ref)
    result = solve_hybrid(problem, rd)
    assert not result.used_fallback and result.tail_reason == ""
    assert 0 < result.tail_steps < result.reduced_steps == problem.T - rd.nu
    _assert_trajectories_match(result.trajectory, solve_full(problem), rtol=1e-10)
    # The tail is the reference's own step: one shared array per output,
    # equal bit for bit to the full step's gain and projector at X_circ.
    assert rd.reference is ref and rd.X_circ is ref.X
    K, G = gain_and_projector(ref.X, problem.triple)
    for field, shared, step in (("X", ref.X, ref.X), ("K", ref.K_X, K), ("G", ref.G_X, G)):
        assert all(M is shared for M in getattr(result.trajectory, field)[: result.tail_steps])
        assert np.array_equal(shared, step)
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 1.0


@pytest.mark.parametrize("q, tail", [(1e-6, "never"), (1e-2, "late"), (1.0, "early")])
def test_tail_comes_late_or_never_as_rho_z_nears_one(q, tail):
    # Psi decays like Z^(2s), so the slower Z, the later the cut.
    problem, X_ref = live_scalar_problem(q, 300)
    rd = build_reduction(problem, find_reference(problem, X_ref=X_ref).solution)
    result = solve_hybrid(problem, rd)
    assert result.tail_reason == ""
    reduced = problem.T - rd.nu
    if tail == "never":  # rho(Z) = 0.999: Psi shrinks by under half over the horizon
        assert rd.Z[0, 0] > 0.99 and result.tail_steps == 0
    elif tail == "late":  # rho(Z) = 0.905
        assert 0 < result.tail_steps < reduced // 2
    else:  # rho(Z) = 1 / phi^2
        assert result.tail_steps > reduced * 3 // 4
    _assert_trajectories_match(result.trajectory, solve_full(problem), rtol=1e-12)


@pytest.mark.parametrize("solve", [solve_hybrid, solve_closed_form])
@pytest.mark.parametrize("q", [0.0, 1e-2])
def test_tail_refused_when_rho_z_is_one(q, solve):
    # P = X_circ keeps Psi = 0 exactly, so the test for a cut is met before
    # the first phase-two step.  q = 0 makes Z = 1, and the Stein sum
    # refuses the cut; q = 1e-2 gives Z < 1, and the whole reduced horizon
    # is the tail.
    problem, X_ref = live_scalar_problem(q, 40)
    problem = dataclasses.replace(problem, P=X_ref)
    rd = build_reduction(problem, find_reference(problem, X_ref=X_ref).solution)
    assert rd.dim_reduced == 1 and (rd.Z[0, 0] == 1.0) == (q == 0.0)
    result = solve(problem, rd)
    assert result.reduced_steps == problem.T - rd.nu == 39
    if q == 0.0:
        assert result.tail_steps == 0 and "rho(Z)" in result.tail_reason
    else:
        assert result.tail_steps == 39 and result.tail_reason == ""
    _assert_trajectories_match(result.trajectory, solve_full(problem), rtol=1e-14)


def test_tail_refused_for_singular_full_curvature():
    problem, _ = live_scalar_problem(1.0, 60, dead_input=True)
    res = find_reference(problem)
    assert res.found
    rd = build_reduction(problem, res.solution)
    assert np.linalg.matrix_rank(rd.reference.R_X) == 1
    result = solve_hybrid(problem, rd)
    assert not result.used_fallback
    assert result.tail_steps == 0 and "R_full" in result.tail_reason
    _assert_trajectories_match(result.trajectory, solve_full(problem), rtol=1e-10)


def test_tail_after_large_terminal_weight():
    problem = large_terminal_weight_problem()
    rd = build_reduction(problem, find_reference(problem).solution)
    result = solve_hybrid(problem, rd)
    assert not result.used_fallback
    assert result.tail_steps > 0
    _assert_trajectories_match(result.trajectory, solve_full(problem), rtol=1e-10)


def test_hybrid_detects_wrong_reduction():
    # A reduction whose rotation does not belong to the problem must be
    # caught at the checkpoint and answered with the full recursion.
    problem = random_problem(4, 2, 1902, "nilpotent_block", horizon=10, nilpotent_dim=2)
    res = find_reference(problem)
    assert res.found
    rd = build_reduction(problem, res.solution)
    rng = np.random.default_rng(3)
    Qm, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    doctored = dataclasses.replace(rd, reference=dataclasses.replace(rd.reference, T_orth=Qm))
    result = solve_hybrid(problem, doctored)
    assert result.used_fallback
    assert "checkpoint" in result.fallback_reason
    _assert_trajectories_match(result.trajectory, solve_full(problem))


def test_checkpoint_blocks_layout():
    problem = scalar_j_problem()
    res = find_reference(problem)
    rd = build_reduction(problem, res.solution)
    T_orth = rd.reference.T_orth
    Delta = T_orth @ np.diag([3.0, 7.0]) @ T_orth.T
    D11, D12, D22 = checkpoint_blocks(Delta, rd)
    assert D11.shape == (1, 1) and D12.shape == (1, 1) and D22.shape == (1, 1)
    assert abs(D11[0, 0] - 3.0) <= 1e-12
    assert abs(D12[0, 0]) <= 1e-12
    assert abs(D22[0, 0] - 7.0) <= 1e-12


def test_delta_recursion_small():
    problem = scalar_j_problem(T=7)
    res = find_reference(problem)
    step, deadbeat = delta_recursion_residuals(problem, res.solution, solve_full(problem))
    assert step <= 1e-9
    assert deadbeat <= 1e-9

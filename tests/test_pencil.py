from dataclasses import replace

import numpy as np

from griccati.cgdare import closed_loop, find_reference
from griccati.linalg import RANK_REL
from griccati.model import LQProblem, PopovTriple, Xorshift64Star, random_problem
from griccati.pencil import (
    build,
    closed_loop_singular_criterion,
    det_identity_check,
    mu_bookkeeping,
    n_singular_criterion,
)

from conftest import PHI, rotated_problem, scalar_two_step


def test_pencil_layout_frozen():
    pencil = build(scalar_two_step().triple)
    assert pencil.n == 1 and pencil.m == 1 and pencil.size == 3
    assert np.array_equal(pencil.M, [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, -1.0, 0.0]])
    assert np.array_equal(pencil.N, [[1.0, 0.0, 1.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])


def test_pencil_blocks_general_shape():
    triple = random_problem(3, 2, 50).triple
    pencil = build(triple)
    n, m = 3, 2
    assert pencil.M.shape == (2 * n + m, 2 * n + m)
    assert np.array_equal(pencil.M[:n, :n], np.eye(n))
    assert np.array_equal(pencil.M[n : 2 * n, n : 2 * n], -triple.A.T)
    assert np.array_equal(pencil.M[2 * n :, n : 2 * n], -triple.B.T)
    assert np.all(pencil.M[:, 2 * n :] == 0.0)
    assert np.array_equal(pencil.N[:n, :n], triple.A)
    assert np.array_equal(pencil.N[:n, 2 * n :], triple.B)
    assert np.array_equal(pencil.N[n : 2 * n, :n], triple.Q)
    assert np.array_equal(pencil.N[2 * n :, 2 * n :], triple.R)


def test_det_identity_scalar_frozen():
    # n = 1: det N = -1 must match -det(A_X) det(I) det(R_X)
    # = -(2 - phi)(1 + phi) = -1 at z = 0, and the identity holds on a grid.
    triple = scalar_two_step().triple
    pencil = build(triple)
    assert abs(np.linalg.det(pencil.N) - (-1.0)) <= 1e-12
    sol = closed_loop([[PHI]], triple)
    assert abs((2.0 - PHI) * (1.0 + PHI) - 1.0) <= 1e-12
    zs = [0.0, 0.5, -1.3, 2.0, 0.3 + 0.7j, -0.2 - 1.1j]
    assert det_identity_check(pencil, sol, zs) <= 1e-12


def test_det_identity_random_problems():
    worst = 0.0
    rng = np.random.default_rng(12)
    for i in range(20):
        kind = ("generic", "singular_R", "nilpotent_block")[i % 3]
        problem = random_problem(2 + i % 4, 1 + i % 2, 1500 + i, kind)
        res = find_reference(problem)
        if not res.found:
            continue
        pencil = build(problem.triple)
        zs = rng.uniform(-2, 2, size=10).tolist() + (
            rng.uniform(-2, 2, size=5) + 1j * rng.uniform(-2, 2, size=5)
        ).tolist()
        worst = max(worst, det_identity_check(pencil, res.solution, zs))
    assert worst <= 1e-8


def test_det_identity_detects_a_perturbed_closed_loop():
    # analyze passes the identity at a worst defect of 1e-8, on these 20
    # samples.  The accepted solution's defect is at rounding (4.4e-16).
    # The right side is a polynomial in A_X's eigenvalues, so moving them all
    # by eps moves the defect by c eps to first order; c is about 8.5 here
    # (A_X has three eigenvalues at zero, and |det(N - z M)| reaches 30).  A
    # defect of at least eps leaves a margin of 8, and puts each perturbed
    # A_X above analyze's bound by a factor of 100 or more.
    problem = random_problem(4, 2, 11, "nilpotent_block", horizon=12)
    pencil, sol = build(problem.triple), find_reference(problem).solution
    rng = Xorshift64Star(0)
    zs = [rng.interval(-2.0, 2.0) for _ in range(20)]
    assert det_identity_check(pencil, sol, zs) <= 1e-14
    for eps in (1e-4, 1e-6):
        worst = det_identity_check(pencil, replace(sol, A_X=sol.A_X + eps * np.eye(4)), zs)
        assert worst >= eps, (eps, worst)


def _stacked_lu_defect(pencil, solution, z_samples):
    """The defect with the right side's closed-loop factors by stacked LU too."""
    z = np.asarray(z_samples).reshape(-1, 1, 1)
    A_X, eye_n = solution.A_X, np.eye(pencil.n)
    lhs = np.linalg.det(pencil.N - z * pencil.M)
    closed_loop_factors = np.linalg.det(A_X - z * eye_n) * np.linalg.det(eye_n - z * A_X.T)
    rhs = (-1.0) ** pencil.n * closed_loop_factors * np.linalg.det(solution.R_X)
    return float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs)), initial=0.0))


def _samples(rng):
    real = rng.uniform(-2, 2, size=20)
    return real, rng.uniform(-2, 2, size=10) + 1j * rng.uniform(-2, 2, size=10)


def test_det_identity_on_a_long_jordan_chain():
    # The headline shape: A_X carries a nu = 15 Jordan chain at zero.  In
    # the generator's coordinates its computed eigenvalues are exact zeros
    # and the identity holds to 1e-12.  In rotated coordinates the computed
    # eigenvalues of the chain spread to about eps^(1/15) ~ 0.09; their
    # product is still the determinant of a matrix within rounding of A_X,
    # and the defect stays at the stacked-LU form's 1e-12 to 1e-11.
    rng = np.random.default_rng(21)
    problem = random_problem(20, 2, 100_003, "nilpotent_block", horizon=500, nilpotent_dim=15)
    V, _ = np.linalg.qr(rng.normal(size=(20, 20)))
    for case, limit in ((problem, 1e-12), (rotated_problem(problem, V), 1e-10)):
        sol = find_reference(case).solution
        assert sol.nu == 15
        spread = np.sort(np.abs(np.linalg.eigvals(sol.A_X)))[14]
        assert (spread == 0.0) if limit == 1e-12 else (spread > 1e-2), spread
        for zs in _samples(rng):
            assert det_identity_check(build(case.triple), sol, zs) <= limit


def test_det_identity_matches_the_stacked_lu_form():
    # With real and with complex samples the eigenvalue product gives the
    # defect of the stacked LU form it replaced, to rounding, as a float,
    # also where A_X has complex conjugate eigenvalues.
    rng = np.random.default_rng(22)
    complex_loops = 0
    for i in range(12):
        kind = ("generic", "singular_R", "nilpotent_block")[i % 3]
        problem = random_problem(5, 2, 2200 + i, kind)
        res = find_reference(problem)
        if not res.found:
            continue
        pencil, sol = build(problem.triple), res.solution
        complex_loops += bool(np.iscomplex(np.linalg.eigvals(sol.A_X)).any())
        for zs in _samples(rng):
            got = det_identity_check(pencil, sol, zs)
            assert isinstance(got, float)
            assert got <= 1e-12 and abs(got - _stacked_lu_defect(pencil, sol, zs)) <= 1e-12
    assert complex_loops >= 3


def test_n_singular_criterion_cases():
    # Strictly PD R and nonsingular drift: N nonsingular.
    generic = random_problem(3, 2, 61, "generic")
    crit = n_singular_criterion(build(generic.triple), generic.triple)
    assert crit.consistent
    assert not crit.n_singular

    # Singular R forces N singular.
    singular = random_problem(3, 2, 62, "singular_R")
    crit = n_singular_criterion(build(singular.triple), singular.triple)
    assert crit.consistent
    assert crit.n_singular and crit.r_singular

    # R PD but A - B R^-1 S^T = 0: drift-singular route (scalar A=B=S=R=1).
    triple = PopovTriple([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
    crit = n_singular_criterion(build(triple), triple)
    assert crit.consistent
    assert crit.n_singular and crit.drift_singular and not crit.r_singular


def test_n_singular_criterion_consistency_sweep():
    for i in range(30):
        kind = ("generic", "singular_R", "nilpotent_block")[i % 3]
        problem = random_problem(2 + i % 4, 1 + i % 3, 1600 + i, kind)
        crit = n_singular_criterion(build(problem.triple), problem.triple)
        assert crit.consistent, (kind, i, crit)


def test_closed_loop_singular_criterion_cases():
    # Nilpotent block: the closed loop always has a zero eigenvalue.
    problem = random_problem(4, 2, 63, "nilpotent_block")
    res = find_reference(problem)
    assert res.found
    crit = closed_loop_singular_criterion(res.solution)
    assert crit.consistent
    assert crit.a_x_singular

    # Generic small problem: nonsingular closed loop, no rank drop.
    generic = random_problem(3, 2, 64, "generic")
    res = find_reference(generic)
    assert res.found
    crit = closed_loop_singular_criterion(res.solution)
    assert crit.consistent
    assert not crit.a_x_singular
    assert crit.rank_R == crit.rank_RX


def test_closed_loop_rank_drop_route():
    # Dead input channel: rank R < rank R_X never happens (both drop), but a
    # channel that is costless yet reaches the state gives rank R < rank R_X
    # once X is positive on its reachable directions.
    A = np.array([[0.6, 0.1], [0.0, 0.4]])
    B = np.array([[1.0, 0.0], [0.0, 1.0]])
    Q = np.eye(2)
    R = np.diag([1.0, 0.0])  # second channel costless but effective
    problem = LQProblem(PopovTriple(A, B, Q, np.zeros((2, 2)), R), np.zeros((2, 2)), 6)
    res = find_reference(problem)
    assert res.found
    crit = closed_loop_singular_criterion(res.solution)
    assert crit.consistent
    assert crit.rank_R == 1
    assert crit.rank_RX == 2
    assert crit.rank_drop and crit.a_x_singular


def test_mu_bookkeeping_additive_nilpotent():
    for j in (1, 2, 3):
        problem = random_problem(5, 2, 70 + j, "nilpotent_block", nilpotent_dim=j)
        res = find_reference(problem)
        assert res.found
        mu = mu_bookkeeping(res.solution)
        # The unreachable Jordan block contributes exactly j zero
        # eigenvalues to the closed loop; R_X stays nonsingular here.
        assert mu.mu_AX == j
        assert mu.mu_RX == 0
        assert mu.mu_block == mu.mu_AX + mu.mu_RX
        assert mu.additive


def test_mu_bookkeeping_counts_r_kernel():
    # Dead channel: R_X keeps an exact kernel, which the block count must
    # include additively.
    A = np.array([[0.5]])
    B = np.array([[1.0, 0.0]])
    problem = LQProblem(
        PopovTriple(A, B, [[1.0]], np.zeros((1, 2)), np.diag([1.0, 0.0])),
        [[0.0]],
        4,
    )
    res = find_reference(problem)
    assert res.found
    mu = mu_bookkeeping(res.solution)
    assert mu.mu_RX == 1
    assert mu.additive


def test_mu_eig_count_cross_check_non_defective():
    # For semisimple zero eigenvalues the naive eigenvalue count agrees with
    # the kernel-chain multiplicity (it is NOT trusted for defective zeros).
    problem = random_problem(4, 2, 81, "nilpotent_block", nilpotent_dim=1)
    res = find_reference(problem)
    assert res.found
    mu = mu_bookkeeping(res.solution)
    assert mu.mu_AX == 1
    w = np.abs(np.linalg.eigvals(res.solution.A_X))
    assert np.count_nonzero(w <= RANK_REL * (1.0 + w.max())) == 1


def test_det_identity_empty_samples():
    triple = scalar_two_step().triple
    sol = closed_loop([[PHI]], triple)
    assert det_identity_check(build(triple), sol, []) == 0.0
    assert det_identity_check(build(triple), sol, np.zeros(0, dtype=complex)) == 0.0

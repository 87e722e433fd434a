import numpy as np
import pytest

from griccati.cgdare import (
    ReferenceRejectedError,
    closed_loop,
    compare_solutions,
    difference_identity_residuals,
    find_reference,
    gdare_residual,
)
from griccati.model import LQProblem, PopovTriple, random_problem

from conftest import PHI, dare_scalar_roots, multi_root_family, random_psd, scalar_two_step


def _scalar_problem():
    return scalar_two_step()


def test_gdare_residual_frozen_points():
    triple = _scalar_problem().triple
    # At the fixed point phi: residual 0.  At X = 1 the map gives 1.5.
    assert abs(gdare_residual(np.array([[PHI]]), triple)[0, 0]) <= 1e-12
    assert abs(gdare_residual(np.array([[1.0]]), triple)[0, 0] - (-0.5)) <= 1e-12


def test_zero_is_solution_when_schur_vanishes():
    # Q = S R^+ S^T and A' = A - B R^+ S^T: then X = 0 solves the equation.
    rng = np.random.default_rng(1)
    for _ in range(10):
        n, m = 3, 2
        L = rng.normal(size=(m, m))
        R = L @ L.T + 0.1 * np.eye(m)
        S = rng.normal(size=(n, m))
        Q = S @ np.linalg.solve(R, S.T)
        triple = PopovTriple(rng.normal(size=(n, n)), rng.normal(size=(n, m)), Q, S, R)
        assert np.linalg.norm(gdare_residual(np.zeros((n, n)), triple)) <= 1e-9


def test_closed_loop_fields_at_phi():
    triple = _scalar_problem().triple
    sol = closed_loop([[PHI]], triple)
    assert sol.accepted()
    assert abs(sol.R_X[0, 0] - (1.0 + PHI)) <= 1e-12
    assert abs(sol.K_X[0, 0] - PHI / (1.0 + PHI)) <= 1e-12
    # Closed loop 1/(1+phi) = phi^-2 = 2 - phi.
    assert abs(sol.A_X[0, 0] - (2.0 - PHI)) <= 1e-12
    assert sol.inertia_RX == (1, 0, 0)
    assert sol.U.shape == (1, 0)
    assert sol.nu == 0
    assert sol.kernel_condition_ok


def test_kernel_condition_automatic_for_psd():
    # PSD X makes [A B]^T X [A B] + Pi PSD, which forces ker R_X <= ker S_X.
    rng = np.random.default_rng(5)
    for i in range(25):
        problem = random_problem(2 + i % 4, 1 + i % 3, 1400 + i, ("generic", "singular_R")[i % 2])
        X = random_psd(rng, problem.n)
        sol = closed_loop(X, problem.triple)
        assert sol.kernel_condition_ok


def test_find_reference_scalar_golden():
    res = find_reference(_scalar_problem())
    assert res.found
    assert abs(res.solution.X[0, 0] - PHI) <= 1e-9
    assert res.solution.accepted()


def test_find_reference_immediate_for_zero_solution():
    rng = np.random.default_rng(2)
    n, m = 3, 2
    L = rng.normal(size=(m, m))
    R = L @ L.T + 0.1 * np.eye(m)
    S = rng.normal(size=(n, m))
    Q = S @ np.linalg.solve(R, S.T)
    problem = LQProblem(
        PopovTriple(0.5 * rng.normal(size=(n, n)), rng.normal(size=(n, m)), Q, S, R),
        np.zeros((n, n)),
        4,
    )
    res = find_reference(problem)
    assert res.found
    assert np.linalg.norm(res.solution.X) <= 1e-8


def test_find_reference_divergent_reports_failure():
    # Unstable uncontrollable mode: iterates blow up, search must refuse.
    problem = LQProblem(
        PopovTriple([[2.0]], [[0.0]], [[1.0]], [[0.0]], [[1.0]]), [[0.0]], 3
    )
    res = find_reference(problem)
    assert not res.found
    assert "diverg" in res.message


def test_find_reference_divergence_refusal_pinned():
    # The search steps its iterates with the unchecked kernel, so divergence
    # must be caught by its own norm test, never surface as an exception from
    # a pinv of non-finite entries.  A = 2I with B = 0, and a mode at 2 that
    # a live input cannot reach, both pass the norm limit at the same step.
    cases = (
        (2.0 * np.eye(3), np.zeros((3, 2)), np.eye(2)),
        (np.diag([2.0, 0.5, 1.5]), np.array([[0.0], [1.0], [0.0]]), [[0.0]]),
    )
    for A, B, R in cases:
        m = B.shape[1]
        problem = LQProblem(PopovTriple(A, B, np.eye(3), np.zeros((3, m)), R), np.zeros((3, 3)), 5)
        res = find_reference(problem)
        assert (res.found, res.iterations, res.message) == (False, 167, "iterates diverged")


def test_find_reference_accepts_supplied_solution():
    problem = _scalar_problem()
    res = find_reference(problem, X_ref=np.array([[PHI]]))
    assert res.found
    assert res.iterations == 0
    assert abs(res.solution.X[0, 0] - PHI) <= 1e-12


def test_find_reference_rejects_bad_supplied_solution():
    with pytest.raises(ReferenceRejectedError):
        find_reference(_scalar_problem(), X_ref=np.array([[1.0]]))


def test_negative_root_is_also_a_solution():
    # The scalar equation has a second real root 1 - phi < 0; it satisfies
    # the equation with invertible curvature, so closed_loop accepts it.
    x_plus, x_minus = dare_scalar_roots(1.0, 1.0, 1.0, 1.0)
    assert abs(x_plus - PHI) <= 1e-12
    assert abs(x_minus - (1.0 - PHI)) <= 1e-12
    sol = closed_loop([[x_minus]], _scalar_problem().triple)
    assert sol.accepted()
    assert sol.inertia_RX == (1, 0, 0)


def test_difference_identities_random_pairs():
    # Both identities hold for arbitrary symmetric pairs when R is PD
    # (kernel conditions trivially satisfied), not only for solutions.
    rng = np.random.default_rng(9)
    worst = 0.0
    for i in range(100):
        n = 1 + i % 5
        m = 1 + i % 3
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        L = rng.normal(size=(n + m, n + m))
        Pi = L @ L.T / (n + m)
        Pi[n:, n:] += 0.3 * np.eye(m)
        triple = PopovTriple(A, B, Pi[:n, :n], Pi[:n, n:], Pi[n:, n:])
        X = random_psd(rng, n)
        Y = random_psd(rng, n)
        one, quad = difference_identity_residuals(X, Y, triple)
        scale = 1.0 + np.linalg.norm(X) + np.linalg.norm(Y)
        worst = max(worst, one / scale, quad / scale)
    assert worst <= 1e-9


def test_identity_reduces_to_zero_for_equal_args():
    triple = random_problem(3, 2, 77).triple
    X = random_psd(np.random.default_rng(0), 3)
    one, quad = difference_identity_residuals(X, X, triple)
    assert one <= 1e-12 and quad <= 1e-12


def test_compare_solutions_on_constructed_family():
    # One unreachable Jordan block + one controlled scalar: exactly two
    # solutions, agreeing on the nilpotent eigenspace.
    problem, solutions = multi_root_family(j=2, coords=[(0.9, 1.0, 1.0, 1.0)], seed=3)
    assert len(solutions) == 2
    sols = []
    for X in solutions:
        assert np.linalg.norm(gdare_residual(X, problem.triple)) <= 1e-9
        sol = closed_loop(X, problem.triple)
        assert sol.accepted()
        sols.append(sol)
    report = compare_solutions(sols[0], sols[1])
    assert report.nu_x == report.nu_y == 2
    assert report.dim_u_x == report.dim_u_y == 2
    assert report.coincidence_residual <= 1e-9
    assert report.subspace_distance <= 1e-9
    assert report.inertia_match
    assert report.identity_onestep_residual <= 1e-9
    assert report.identity_quadratic_residual <= 1e-9


def test_compare_solutions_rejects_mixed_triples():
    p1 = _scalar_problem()
    p2 = random_problem(1, 1, 8)
    s1 = closed_loop([[PHI]], p1.triple)
    res = find_reference(p2)
    assert res.found
    with pytest.raises(ValueError, match="different triples"):
        compare_solutions(s1, res.solution)


def test_reference_search_on_corpus(corpus200_refs):
    # The fixed-point search should succeed on nearly all of the mixed
    # corpus, and every returned solution must self-verify.
    found = [s for _, _, s in corpus200_refs if s is not None]
    assert len(found) >= 180
    for sol in found:
        assert sol.accepted()
        assert sol.kernel_condition_ok

import re
import warnings

import numpy as np
import pytest

from griccati import solve
from griccati.cgdare import (
    ReferenceRejectedError,
    _doubling,
    _residual_band,
    closed_loop,
    find_reference,
    gdare_residual,
)
from griccati.closedform import solve_closed_form
from griccati.grde import solve_full
from griccati.linalg import NumericalRefusal
from griccati.model import LQProblem, PopovTriple, random_problem
from griccati.reduction import build_reduction, solve_hybrid

from conftest import (
    PHI,
    dare_scalar_roots,
    difference_identity_residuals,
    multi_root_family,
    projector_distance,
    random_psd,
    riccati_iterate,
    scalar_two_step,
)


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
    # Divergence must be caught by the search's own norm test, never surface
    # as an exception or a numpy warning from overflowing entries.  A = 2I
    # with B = 0 (R = I, base X_0), and a mode at 2 that a live input cannot
    # reach (R = 0, base X_1), both take the doubling path, and ||H_k|| =
    # ||X_{b + 2^k} - X_b|| passes the norm limit at the same doubling.
    cases = (
        (2.0 * np.eye(3), np.zeros((3, 2)), np.eye(2)),
        (np.diag([2.0, 0.5, 1.5]), np.array([[0.0], [1.0], [0.0]]), [[0.0]]),
    )
    for A, B, R in cases:
        m = B.shape[1]
        problem = LQProblem(PopovTriple(A, B, np.eye(3), np.zeros((3, m)), R), np.zeros((3, 3)), 5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = find_reference(problem)
        assert not caught, [str(w.message) for w in caught]
        assert (res.found, res.iterations, res.message) == (False, 8, "iterates diverged")


def test_find_reference_reports_no_stop_within_the_cap():
    # A = 1 with no input and Q = 1: X_k = k grows by one a step, below the
    # overflow guard at every doubling, so no doubling stops.
    problem = LQProblem(PopovTriple([[1.0]], [[0.0]], [[1.0]], [[0.0]], [[1.0]]), [[0.0]], 3)
    res = find_reference(problem)
    assert (res.found, res.iterations, res.message) == (False, 14, "no fixed point within 14 doublings")


def _doubled_steps(message, doublings):
    """The iterate that the search's X stands for, X_{b + 2^k} from the base
    X_b that its message names, after k doublings."""
    return int(re.search(r"from X_(\d+)", message).group(1)) + 2**doublings


def test_find_reference_compresses_out_a_permanent_curvature_kernel():
    # R = diag(1, 0) and B's second column zero: R + B^T X B is singular at
    # every iterate, so the search doubles from X_3 = X_n with that input
    # compressed out.  Its answer is the plain iteration's limit, within
    # 1e-10 of the 83rd iterate from zero.
    A = np.array([[0.9, 0.3, 0.0], [0.0, 0.5, 0.2], [0.1, 0.0, 1.1]])
    B = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    triple = PopovTriple(A, B, np.eye(3), np.zeros((3, 2)), np.diag([1.0, 0.0]))
    res = find_reference(LQProblem(triple, np.zeros((3, 3)), 10))
    assert res.found
    assert "from X_3, 1 of 2 inputs compressed out" in res.message, res.message
    X = riccati_iterate(triple, 83)
    assert np.linalg.norm(res.solution.X - X) <= 1e-10 * np.linalg.norm(X)


def _late_and_uncosted(rng):
    """n = m = 3, S = 0, Q = e1 e1^T, and the inputs mixed by a random
    rotation: one moves x2, which is costed only from X_2 on, through x1;
    one moves x3, which is never costed (x3 is in ker X_k for every k); and
    one moves x1 at a cost of its own, R = e3 e3^T before the rotation."""
    A = np.array([[0.0, 0.9, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
    V, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    B = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return A, B @ V, np.diag([1.0, 0.0, 0.0]), V.T @ np.diag([0.0, 0.0, 1.0]) @ V


E1, E2, Z1 = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), np.zeros((1, 1))


@pytest.mark.parametrize(
    "A, B, Q, R, path",
    [
        # The curvature is singular at X_0 and X_1 and regular at X_2.
        pytest.param(0.9 * np.array([[0.0, 1.0], [0.0, 0.0]]), E2, E1 @ E1.T, Z1, "from X_2", id="late_costed"),
        # B = e2 lies in ker X_k for every k: all inputs go, m~ = 0.
        pytest.param(0.5 * np.eye(2), E2, E1 @ E1.T, Z1, "from X_2, 1 of 1 inputs", id="uncosted_state"),
        pytest.param(*_late_and_uncosted(np.random.default_rng(3)), "from X_3, 1 of 3 inputs", id="mixed_3x3"),
        # A strong input, a weak one whose curvature is 1e-6 of the strong
        # one's, and a dead one: the compression keeps the weak input.
        pytest.param(
            np.array([[0.9, 0.3, 0.0], [0.0, 0.5, 0.2], [0.1, 0.0, 1.1]]),
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1e-3, 0.0]]),
            np.eye(3),
            np.diag([1.0, 1e-7, 0.0]),
            "from X_3, 1 of 3 inputs",
            id="weak_live_input",
        ),
    ],
)
def test_reference_base_waits_for_a_regular_curvature(A, B, Q, R, path):
    # Doubling cannot start from X_0 or X_1 here: the base is the first
    # iterate whose curvature is regular, or X_n with its kernel compressed out.
    n, m = B.shape
    triple = PopovTriple(A, B, Q, np.zeros((n, m)), R)
    problem = LQProblem(triple, np.zeros((n, n)), 30, np.ones(n))
    res = find_reference(problem)
    assert res.found and path in res.message, res.message
    X = riccati_iterate(triple, _doubled_steps(res.message, res.iterations))
    assert np.linalg.norm(res.solution.X - X) <= 1e-10 * np.linalg.norm(X)
    got = solve(problem, "reduced")
    assert got.method_used == "reduced", got.fallback_reason
    for Xa, Xb in zip(got.trajectory.X, solve_full(problem).X):
        assert np.linalg.norm(Xa - Xb) <= 1e-10 * np.linalg.norm(Xb)


def _reduction_outcome(problem, solution):
    """nu, dim U, the hybrid's fallback and whether the closed form refuses."""
    rd = build_reduction(problem, solution)
    try:
        solve_closed_form(problem, rd)
        refused = False
    except NumericalRefusal:
        refused = True
    return rd.nu, rd.dim_u, solve_hybrid(problem, rd).used_fallback, refused


ROUND_OFF_BAND = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 5: R = 0 and ||X|| = 1.1e4 ||Pi||_F put the residual band 1.2e-9 at "
    "round-off, so rounding decides the verdict: the plain 513th iterate passes it at 3.8e-10, "
    "while the doubled X, within 1e-10 of it, has residual 4.4e-9",
)


def _plain_cases():
    for kind in ("generic", "singular_R", "nilpotent_block"):
        nilpotent_dim = 2 if kind == "nilpotent_block" else None
        for n, m, dim in ((5, 2, None), (6, 1, None), (3, 4, None), (12, 2, nilpotent_dim)):
            for seed in range(1, 11):
                marks = ROUND_OFF_BAND if (kind, n, m, seed) == ("singular_R", 6, 1, 10) else ()
                yield pytest.param(kind, n, m, dim, seed, id=f"{kind}-{n}x{m}-{seed}", marks=marks)


@pytest.mark.parametrize("kind, n, m, nilpotent_dim, seed", list(_plain_cases()))
def test_doubling_agrees_with_plain_iteration(kind, n, m, nilpotent_dim, seed):
    # The plain step loop is the independent check of the doubling search:
    # the iterate that the doubled X stands for is within 1e-10 of it, gets
    # the same verdict and, where accepted, the same reduction.
    problem = random_problem(n, m, seed, kind, horizon=30, nilpotent_dim=nilpotent_dim)
    triple = problem.triple
    X, k, note = _doubling(triple, _residual_band(triple))
    want = closed_loop(riccati_iterate(triple, _doubled_steps(note, k)), triple)
    assert np.linalg.norm(X - want.X) <= 1e-10 * np.linalg.norm(want.X)
    got = closed_loop(X, triple)
    assert got.accepted() == want.accepted()
    if got.accepted():
        assert _reduction_outcome(problem, got) == _reduction_outcome(problem, want)


def test_search_returns_the_iterate_of_its_last_doubling():
    # a = 0.5, b = r = 1, q = 1e-4: X is 1.3e-4 against ||Pi||_F = 1, so the
    # search stops at its polish floor after k = 5 doublings, where the
    # last doubling still moved X by 2.3e-10 of itself.  Its answer is the
    # iterate that doubling reached, X_{b+2^k}, not the one before it.  The
    # bound: the plain loop and the doubling are two float evaluations of
    # X_{b+2^k} under a contraction of rate a_X^2 = 1/4, each step and
    # doubling rounding at a few ulps of x, so both are within about 20 u |x|
    # of the exact iterate; 1e-13 |x| (450 u) covers that and still
    # resolves the last doubling's step a thousand times over.
    triple = PopovTriple([[0.5]], [[1.0]], [[1e-4]], [[0.0]], [[1.0]])
    search = find_reference(LQProblem(triple, [[0.0]], 1))
    k = search.iterations
    steps = _doubled_steps(search.message, k)
    want = riccati_iterate(triple, steps)[0, 0]
    before = riccati_iterate(triple, steps - 2 ** (k - 1))[0, 0]
    bound = 1e-13 * abs(want)
    assert search.found and k == 5
    assert abs(search.solution.X[0, 0] - want) <= bound < abs(want - before) / 1000


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


def test_solutions_coincide_on_constructed_family():
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
    x, y = sols
    assert x.nu == y.nu == 2
    assert x.dim_u == y.dim_u == 2
    assert np.linalg.norm((x.X - y.X) @ x.U, 2) <= 1e-9
    assert projector_distance(x.U, y.U) <= 1e-9
    assert x.inertia_RX == y.inertia_RX
    one, quad = difference_identity_residuals(x.X, y.X, problem.triple)
    assert one <= 1e-9 and quad <= 1e-9


def test_reference_search_on_corpus(corpus200_refs):
    # The fixed-point search should succeed on nearly all of the mixed
    # corpus, and every returned solution must self-verify.
    found = [s for _, _, s in corpus200_refs if s is not None]
    assert len(found) >= 180
    for sol in found:
        assert sol.accepted()
        assert sol.kernel_condition_ok

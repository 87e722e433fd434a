"""Equivalent rewrites of a problem leave the reference path unchanged.

Scaling Q, S, R and P by c scales every Riccati solution by c and leaves
the gain, the closed loop and its nilpotent eigenspace as they are; an
orthogonal change of state coordinates maps X to V^T X V.  Neither rewrite
may change whether a reference is found, how many iterations the search
takes, nu, dim U, whether the hybrid falls back, the hybrid's X_t, or
the optimal cost divided by c.  Where the hybrid's stationary tail starts
may move by rounding: tail_steps is not compared.
"""

import numpy as np
import pytest

from griccati import solve
from griccati.cgdare import find_reference
from griccati.grde import solve_full
from griccati.linalg import check_symmetric
from griccati.model import LQProblem, PopovTriple, random_problem, validate
from griccati.reduction import build_reduction

from conftest import rotated_problem, scaled_problem

SHAPES = (
    ("generic", 5, 2, None),
    ("generic", 3, 4, None),
    ("singular_R", 5, 2, None),
    ("singular_R", 6, 1, None),
    # m > n: 16 of these 30 problems have inputs with B v = R v = 0, which
    # the search compresses out.
    ("singular_R", 2, 5, None),
    ("singular_R", 3, 4, None),
    ("singular_R", 4, 6, None),
    ("nilpotent_block", 5, 2, None),
    ("nilpotent_block", 12, 2, 2),
    ("nilpotent_block", 8, 2, 4),
    ("nilpotent_block", 20, 2, 8),
    ("nilpotent_block", 20, 2, 15),
)

ILL_CONDITIONED = pytest.mark.xfail(
    strict=True,
    reason="an input that is nearly dead (sigma_min [B; R] = 2.9e-5) leaves the curvature a "
    "singular value 3.7e-8 of its largest, so the problem's own answer moves with the rounding "
    "of its rewritten data: the plain iteration's limit by 4.6e-10 to 5.7e-10 under these "
    "rewrites, the plain full sweep's X_t by 1.2e-9 at weights x 1e6, above the 1e-12 asked here",
)

SEARCH_MISS = pytest.mark.xfail(
    strict=True,
    reason="R = 0.873 > 0 and rho(A_X) = 0.89, but ||X|| = 2.0e4 ||Pi||_F puts the residual "
    "band 1.6e-9 at round-off: the doubled candidate, the 512th iterate, has residual 2.18e-8, "
    "and the plain iteration's 512th and 1025th have 4.4e-9 and 5.6e-9 (ROADMAP item 5, the "
    "band against ||X||)",
)


@SEARCH_MISS
def test_reference_search_finds_generic_6x1_seed_10():
    search = find_reference(random_problem(6, 1, 10, "generic", horizon=30))
    assert search.found, (search.iterations, search.message)


def _cases(ill_conditioned=()):
    for kind, n, m, nilpotent_dim in SHAPES:
        for seed in range(1, 11):
            marks = ill_conditioned if (kind, n, m, seed) == ("singular_R", 2, 5, 1) else ()
            case_id = f"{kind}-{n}x{m}-{nilpotent_dim}-{seed}"
            yield pytest.param(kind, n, m, nilpotent_dim, seed, id=case_id, marks=marks)


def _outcome(problem):
    """What must survive a rewrite, and the reference X and reduced X_0, ..., X_T."""
    res = solve(problem, "reduced")
    if not res.search.found:
        return (False, res.search.iterations), None
    rd = res.reduction
    return (True, res.search.iterations, rd.nu, rd.dim_u, res.method_used), (res.search.solution.X, *res.trajectory.X)


def _rewrites(problem, seed):
    """(label, rewritten problem, weight scale c, the map X -> its rewritten X)."""
    V, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(problem.n, problem.n)))
    return (
        ("weights x 1e6", scaled_problem(problem, 1e6), 1e6, lambda M: 1e6 * M),
        ("weights x 1e-6", scaled_problem(problem, 1e-6), 1e-6, lambda M: 1e-6 * M),
        ("rotated", rotated_problem(problem, V), 1.0, lambda M: V.T @ M @ V),
    )


@pytest.mark.parametrize("kind, n, m, nilpotent_dim, seed", list(_cases()))
def test_scaling_and_rotation_leave_reference_path_unchanged(kind, n, m, nilpotent_dim, seed):
    problem = random_problem(n, m, seed, kind, horizon=30, nilpotent_dim=nilpotent_dim)
    want = _outcome(problem)[0]
    for label, rewritten, _, _ in _rewrites(problem, seed):
        assert _outcome(rewritten)[0] == want, label


@pytest.mark.parametrize("kind, n, m, nilpotent_dim, seed", list(_cases(ILL_CONDITIONED)))
def test_scaling_and_rotation_move_solutions_by_rounding(kind, n, m, nilpotent_dim, seed):
    # The rewritten reference X, the hybrid's X_t and the optimal cost are
    # the original's, mapped, to 1e-12 (the path is pinned above).
    problem = random_problem(n, m, seed, kind, horizon=30, nilpotent_dim=nilpotent_dim)
    mats = _outcome(problem)[1]
    if mats is None:
        return
    for label, rewritten, c, expected in _rewrites(problem, seed):
        got_mats = _outcome(rewritten)[1]
        for X, Y in zip(mats, got_mats):
            assert np.linalg.norm(Y - expected(X)) <= 1e-12 * np.linalg.norm(expected(X)), label
        cost = problem.x0 @ mats[1] @ problem.x0
        got_cost = rewritten.x0 @ got_mats[1] @ rewritten.x0 / c
        assert abs(got_cost - cost) <= 1e-12 * abs(cost), label


PROBES = (
    ("headline", 20, 2, 1, "nilpotent_block", 500, 15),
    ("live_psi", 12, 2, 1, "nilpotent_block", 500, 2),
    ("generic", 6, 2, 3, "generic", 40, None),
    ("singular_R", 5, 2, 7, "singular_R", 20, None),
    ("nilpotent_block", 5, 2, 4, "nilpotent_block", 20, None),
)


@pytest.mark.parametrize(
    "n, m, seed, kind, horizon, nilpotent_dim", [p[1:] for p in PROBES], ids=[p[0] for p in PROBES]
)
def test_reference_search_scale_sweep(n, m, seed, kind, horizon, nilpotent_dim):
    # Weights x 1e9 used to run every probe to the iteration cap, and x 1e-9
    # stopped the search at an absolute 1e-9 that left the hybrid X 1e-4 off.
    problem = random_problem(n, m, seed, kind, horizon=horizon, nilpotent_dim=nilpotent_dim)
    seen = set()
    for k in range(-9, 10, 3):
        scaled = scaled_problem(problem, 10.0**k)
        res = solve(scaled, "reduced")
        assert res.search.found, k
        seen.add((res.search.iterations, res.reduction.nu, res.reduction.dim_u, res.method_used))
        if horizon == 500:  # the cut is certified at every scale
            assert res.hybrid.tail_steps > 0, k
        full = solve_full(scaled)
        for Xa, Xb in zip(res.trajectory.X, full.X):
            assert np.linalg.norm(Xa - Xb) <= 1e-10 * np.linalg.norm(Xb), k
    assert len(seen) == 1, seen


def test_reference_search_count_is_scale_free():
    # A step count whose stop is settled by rounding moves with the weights
    # on this problem (a single-step plateau stop took 205, 205, 182, 70 and
    # 151 steps at these weights); doubling reaches the polish floor in one
    # count at every scale.
    problem = random_problem(12, 2, 29, "nilpotent_block", horizon=30, nilpotent_dim=2)
    results = [find_reference(scaled_problem(problem, c)) for c in (1.0, 1e-9, 1e-3, 1e3, 1e9)]
    assert all(res.found for res in results)
    assert len({res.iterations for res in results}) == 1, [res.iterations for res in results]


def _defective(defect, size):
    """A 3 x 2 problem whose validation fails one check by a relative defect
    of the given size, and passes every check at size 1e-12: Q asymmetric by
    size ||Pi||_F ("popov_symmetric"); S with a component in ker R of size
    ||S|| ("kernel_inclusion"; Pi's eigenvalue of about -size^2 ||S||^2 / Q_33
    stays within the PSD cutoff); or lambda_min(Pi) = -size max|lambda|
    ("popov_psd")."""
    Q, S, R = np.diag([2.0, 1.0, 0.5]), np.zeros((3, 2)), np.diag([1.0, 0.0])
    S[0, 0] = 0.5
    Pi = np.block([[Q, S], [S.T, R]])
    if defect == "popov_symmetric":  # ||Pi - Pi^T||_F = 2 sqrt(2) t
        t = size * np.linalg.norm(Pi) / (2.0 * np.sqrt(2.0))
        Q[0, 1], Q[1, 0] = t, -t
    elif defect == "kernel_inclusion":
        S[2, 1] = size * np.linalg.norm(S)
    else:  # e_5 is in ker Pi and apart from the rest of Pi
        R[1, 1] = -size * np.abs(np.linalg.eigvalsh(Pi)).max()
    A = np.array([[0.5, 1.0, 0.0], [0.0, 0.3, 1.0], [0.2, 0.0, 0.7]])
    B = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    return LQProblem(PopovTriple(A, B, Q, S, R), np.eye(3), 4, np.ones(3))


def test_refusals_are_scale_free():
    # Every residual check is relative to the scale of what it tests, with
    # no absolute floor: an absolute 1e-9 accepted the asymmetric Q at
    # weights x 1e-6 and below and the S outside ker R at x 1e-3 and below.
    V, _ = np.linalg.qr(np.random.default_rng(28).normal(size=(3, 3)))
    skewed = np.eye(3)
    skewed[0, 1] = 1e-4
    for k in range(-12, 13, 3):
        c = 10.0**k
        for rotation in (np.eye(3), V):
            label = (k, rotation is V)
            for defect, size in (("popov_symmetric", 1e-4), ("kernel_inclusion", 1e-6), ("popov_psd", 1e-6)):
                for case, want in ((size, [defect]), (1e-12, [])):
                    problem = rotated_problem(scaled_problem(_defective(defect, case), c), rotation)
                    failed = [chk.name for chk in validate(problem).checks if not chk.passed]
                    assert failed == want, (label, defect, case)
            with pytest.raises(ValueError, match="not symmetric within tolerance"):
                check_symmetric(c * (rotation.T @ skewed @ rotation))
    # A_X = 1.1 - 1 * 1.1 cancels to 0 at c = 1 but to -2.2e-16 at c = 1e-12:
    # the reduction's checks read the scale the loop was formed from.
    for c in (1.0, 1e-12):
        z = np.zeros((1, 1))
        problem = LQProblem(PopovTriple([[1.1]], [[1.0]], [[c]], z, z), z, 5)
        rd = build_reduction(problem, find_reference(problem).solution)
        assert (rd.nu, rd.dim_u, rd.dim_reduced) == (1, 1, 0), c

"""Equivalent rewrites of a problem leave the reference path unchanged.

Scaling Q, S, R and P by c scales every Riccati solution by c and leaves
the gain, the closed loop and its nilpotent eigenspace as they are; an
orthogonal change of state coordinates maps X to V^T X V.  Neither rewrite
may change whether a reference is found, how many iterations the search
takes, nu, dim U, whether the hybrid falls back, or the optimal cost
divided by c.
"""

import numpy as np
import pytest

from griccati.cgdare import find_reference
from griccati.grde import solve_full
from griccati.model import random_problem
from griccati.reduction import build_reduction, solve_hybrid

from conftest import rotated_problem, scaled_problem

SHAPES = (
    ("generic", 5, 2, None),
    ("generic", 3, 4, None),
    ("singular_R", 5, 2, None),
    ("singular_R", 6, 1, None),
    ("nilpotent_block", 5, 2, None),
    ("nilpotent_block", 12, 2, 2),
    ("nilpotent_block", 8, 2, 4),
)

ROUND_OFF_BAND = pytest.mark.xfail(
    strict=True,
    reason="R = 0, rho(A) = 1.12 and ||X|| = 1.1e4 ||Pi||_F: the residual band 1.2e-9 is "
    "1e-13 of ||X||, at round-off, so rounding decides whether the search lands inside it "
    "(at unit scale it stops after 163 iterations at residual 1.68e-9)",
)


def _cases():
    for kind, n, m, nilpotent_dim in SHAPES:
        for seed in range(1, 11):
            marks = ROUND_OFF_BAND if (kind, n, m, seed) == ("singular_R", 6, 1, 10) else ()
            case_id = f"{kind}-{n}x{m}-{nilpotent_dim}-{seed}"
            yield pytest.param(kind, n, m, nilpotent_dim, seed, id=case_id, marks=marks)


def _outcome(problem):
    """What must survive a rewrite, and the reference X and hybrid X_0."""
    res = find_reference(problem)
    if not res.found:
        return (False, res.iterations), None
    rd = build_reduction(problem, res.solution)
    hyb = solve_hybrid(problem, rd)
    return (True, res.iterations, rd.nu, rd.dim_u, hyb.used_fallback), (res.solution.X, hyb.trajectory.X[0])


@pytest.mark.parametrize("kind, n, m, nilpotent_dim, seed", list(_cases()))
def test_scaling_and_rotation_leave_reference_path_unchanged(kind, n, m, nilpotent_dim, seed):
    problem = random_problem(n, m, seed, kind, horizon=30, nilpotent_dim=nilpotent_dim)
    want, mats = _outcome(problem)
    V, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    rewrites = (
        ("weights x 1e6", scaled_problem(problem, 1e6), 1e6, lambda M: 1e6 * M),
        ("weights x 1e-6", scaled_problem(problem, 1e-6), 1e-6, lambda M: 1e-6 * M),
        ("rotated", rotated_problem(problem, V), 1.0, lambda M: V.T @ M @ V),
    )
    for label, rewritten, c, expected in rewrites:
        got, got_mats = _outcome(rewritten)
        assert got == want, label
        if mats is None:
            continue
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
        res = find_reference(scaled)
        assert res.found, k
        rd = build_reduction(scaled, res.solution)
        hyb = solve_hybrid(scaled, rd)
        seen.add((res.iterations, rd.nu, rd.dim_u, hyb.used_fallback))
        full = solve_full(scaled)
        for Xa, Xb in zip(hyb.trajectory.X, full.X):
            assert np.linalg.norm(Xa - Xb) <= 1e-10 * np.linalg.norm(Xb), k
    assert len(seen) == 1, seen

"""Property test of phase two on both reduced routes against solve_full."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from griccati.cgdare import find_reference
from griccati.closedform import solve_closed_form
from griccati.grde import solve_full
from griccati.linalg import NumericalRefusal
from griccati.model import random_problem
from griccati.reduction import build_reduction, solve_hybrid

# The benchmark's gate on X against solve_full.
X_REL_LIMIT = 1e-8


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(["generic", "singular_R", "nilpotent_block"]),
    n=st.integers(2, 8),
    m=st.integers(1, 3),
    T=st.integers(0, 60),
    seed=st.integers(0, 2**64 - 1),
)
def test_phase_two_matches_full_sweep(kind, n, m, T, seed):
    problem = random_problem(n, m, seed, kind, horizon=T)
    ref = find_reference(problem)
    if not ref.found:
        return
    full = solve_full(problem)
    for solve in (solve_hybrid, solve_closed_form):
        rd = build_reduction(problem, ref.solution)
        try:
            result = solve(problem, rd)
        except NumericalRefusal:
            continue
        if result.used_fallback:
            continue
        X = result.trajectory.X
        for Xa, Xb in zip(full.X, X):
            assert np.linalg.norm(Xa - Xb) <= X_REL_LIMIT * (1.0 + np.linalg.norm(Xa)), solve.__name__
        assert result.reduced_steps == T - result.full_steps
        assert 0 <= result.tail_steps <= result.reduced_steps
        sol = rd.reference
        for field, shared in (("X", sol.X), ("K", sol.K_X), ("G", sol.G_X)):
            assert all(np.array_equal(M, shared) for M in getattr(result.trajectory, field)[: result.tail_steps])

import dataclasses

import numpy as np
import pytest

from griccati.cgdare import find_reference
from griccati.closedform import gramian_sweep, solve_closed_form
from griccati.grde import solve_full
from griccati.linalg import NumericalRefusal
from griccati.model import ProblemValidationError, random_problem
from griccati.reduction import ReductionData, build_reduction, checkpoint_blocks, reduced_step, solve_hybrid

from conftest import PHI, scalar_j_problem, scaled_problem
from test_reduction import _assert_trajectories_match, _drift_singular_problem


def _synthetic_rd(Z, B2, R_full, m=None):
    """Minimal reduction record for driving the reduced recursion directly
    (no nilpotent part, identity rotation, S_full = 0 and A2 = 0)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    B2 = np.atleast_2d(np.asarray(B2, dtype=float))
    R_full = np.atleast_2d(np.asarray(R_full, dtype=float))
    d = Z.shape[0]
    m = B2.shape[1] if m is None else m
    return ReductionData(
        T_orth=np.eye(d),
        nu=0,
        N0=np.zeros((0, 0)),
        Z=Z,
        B1=np.zeros((0, m)),
        B2=B2,
        A2=np.zeros((d, d)),
        R_full=R_full,
        S_full=np.zeros((d, m)),
        X_circ=np.zeros((d, d)),
        lower_left_norm=0.0,
        nilpotent_defect=0.0,
    )


def _iterated(Psi_terminal, steps, rd):
    """Psi_{T'-1}, ..., Psi_{T'-steps} by the plain reduced step."""
    seq = [np.asarray(Psi_terminal, dtype=float)]
    for _ in range(steps):
        seq.append(reduced_step(seq[-1], rd))
    return seq[1:]


def scalar_gramian_limit(rd, steps=40):
    """W_s of a 1 x 1 reduced problem, read back from the sweep output.

    For d = 1 the formula reads psi_s = z^(2s) psi / (1 + w_s psi), so
    w_s = (z^(2s) psi / psi_s - 1) / psi; returns w_steps.
    """
    psi = 1.0 - PHI
    last = list(gramian_sweep(np.array([[psi]]), steps, rd))[-1][0, 0]
    return (rd.Z[0, 0] ** (2 * steps) * psi / last - 1.0) / psi


def test_scalar_params_frozen():
    # Decoupled scalar problem, T = 5: phase one leaves Psi_terminal =
    # 1 - phi = -0.618034 at reduced horizon T' = 4.  Z = phi^-2 and
    # C = B2 R_full^-1 B2^T = phi^-2, so W_s tends to C / (1 - Z^2) = 1/sqrt(5).
    problem = scalar_j_problem(5)
    res = find_reference(problem)
    rd = build_reduction(problem, res.solution)
    out = solve_closed_form(problem, rd)
    assert out.reduced_steps == 4
    full = solve_full(problem)
    Psi_terminal = checkpoint_blocks(full.X[problem.T - rd.nu] - rd.X_circ, rd)[2]
    assert abs(Psi_terminal[0, 0] - (1.0 - PHI)) <= 1e-9
    assert abs(scalar_gramian_limit(rd) - 0.4472135955) <= 1e-9
    # And the assembled trajectory must equal the plain recursion.
    for Xa, Xb in zip(out.trajectory.X, full.X):
        assert np.linalg.norm(Xa - Xb) <= 1e-10
    _assert_trajectories_match(out.trajectory, full, rtol=1e-10)


def test_fixed_point_terminal_gives_constant_sweep():
    # Psi_terminal equal to the fixed point 0 of the reduced recursion: the
    # sweep stays there.
    rd = _synthetic_rd([[0.5]], [[1.0]], [[2.0]])
    sweep = list(gramian_sweep(np.zeros((1, 1)), 6, rd))
    assert len(sweep) == 6
    for P in sweep:
        assert abs(P[0, 0]) <= 1e-12


def test_closed_form_matches_iteration_synthetic():
    # Random reduced problems: the sweep must reproduce the iterated
    # recursion step for step.
    rng = np.random.default_rng(33)
    done = 0
    for i in range(40):
        if done >= 30:
            break
        d = 1 + i % 3
        m = 1 + i % 2
        Z = rng.normal(size=(d, d))
        rho = max(abs(np.linalg.eigvals(Z)))
        Z = Z * ((0.4 + 0.5 * rng.random()) / rho)
        B2 = rng.normal(size=(d, m))
        L = rng.normal(size=(m, m))
        R_full = L @ L.T + 0.3 * np.eye(m)
        LP = rng.normal(size=(d, d))
        term = -(LP @ LP.T) / (2.0 * d)
        rd = _synthetic_rd(Z, B2, R_full)
        Tp = 2 + i % 9
        try:
            sweep = list(gramian_sweep(term, Tp, rd))
        except NumericalRefusal:
            continue  # an indefinite draw can make I + W_s Psi singular
        for s, (got, want) in enumerate(zip(sweep, _iterated(term, Tp, rd))):
            assert np.linalg.norm(got - want) <= 1e-12 * (1.0 + np.linalg.norm(want)), (i, s)
        done += 1
    assert done >= 30


def test_long_horizon_mixed_decay_matches_iteration():
    # Stable Z with mixed decay rates at a long reduced horizon: the fast
    # direction of Z^s underflows relative to the slow one, which no
    # positive-power formula minds.
    rd = _synthetic_rd(np.diag([0.9, 0.01]), np.eye(2), np.eye(2))
    term = np.diag([-0.3, -0.2])
    sweep = list(gramian_sweep(term, 200, rd))
    for s, (got, want) in enumerate(zip(sweep, _iterated(term, 200, rd))):
        assert np.linalg.norm(got - want) <= 1e-13 * (1.0 + np.linalg.norm(want)), s


def test_refusal_singular_reference_curvature():
    rd = _synthetic_rd([[0.5]], [[1.0]], [[0.0]])  # R_full = 0
    with pytest.raises(NumericalRefusal, match="curvature"):
        next(gramian_sweep(np.zeros((1, 1)), 3, rd))
    # The cutoff is relative: a tiny but well-conditioned curvature is fine.
    rd = _synthetic_rd(np.diag([0.5, 0.4]), np.eye(2), 1e-12 * np.eye(2))
    assert len(list(gramian_sweep(-np.eye(2), 3, rd))) == 3
    rd = _synthetic_rd(np.diag([0.5, 0.4]), np.eye(2), 1e6 * np.diag([1.0, 1e-12]))
    with pytest.raises(NumericalRefusal, match="curvature"):
        next(gramian_sweep(np.zeros((2, 2)), 3, rd))


def test_refusal_singular_gramian_denominator():
    # Z = 0.5, B2 = R_full = 1 gives W_1 = C = 1, and Psi_terminal = -1
    # makes I + W_1 Psi = 0 on the first step.
    rd = _synthetic_rd([[0.5]], [[1.0]], [[1.0]])
    with pytest.raises(NumericalRefusal, match=r"I \+ W_1 Psi"):
        next(gramian_sweep(np.array([[-1.0]]), 4, rd))
    # A near-cancellation is caught too: a 1 x 1 I + W_1 Psi of -1e-12 is
    # measured against the size of its parts, not against itself.
    rd = _synthetic_rd([[0.5]], [[1e4]], [[1.0]])
    with pytest.raises(NumericalRefusal, match=r"I \+ W_1 Psi"):
        next(gramian_sweep(np.array([[-1e-8 * (1.0 + 1e-12)]]), 4, rd))


def test_solve_closed_form_matches_full(nilpotent50):
    done = 0
    for problem, reference in nilpotent50:
        if reference is None:
            continue
        rd = build_reduction(problem, reference)
        out = solve_closed_form(problem, rd)
        assert out.reduced_steps == problem.T - rd.nu
        _assert_trajectories_match(out.trajectory, solve_full(problem), rtol=1e-10)
        done += 1
    assert done >= 45


@pytest.mark.parametrize(
    "seed, kind, horizon",
    [
        (11100363, "generic", 11),
        (11200366, "generic", 11),
        (11300375, "generic", 13),
        (13600573, "generic", 16),
        (80402447, "nilpotent_block", 12),
    ],
)
def test_solve_closed_form_benchmark_corpus_problems(seed, kind, horizon):
    # The Stein route missed the 1e-8 X limit on these 5x2 problems by up
    # to 1.4e-7.
    problem = random_problem(5, 2, seed, kind, horizon=horizon)
    res = find_reference(problem)
    assert res.found
    out = solve_closed_form(problem, build_reduction(problem, res.solution))
    _assert_trajectories_match(out.trajectory, solve_full(problem), rtol=1e-8)


@pytest.mark.parametrize(
    "n, seed, nilpotent_dim", [(20, 42, 15), (12, 3, 2)], ids=["headline", "live_psi"]
)
def test_solve_closed_form_long_horizon(n, seed, nilpotent_dim):
    problem = random_problem(n, 2, seed, "nilpotent_block", horizon=500, nilpotent_dim=nilpotent_dim)
    res = find_reference(problem)
    assert res.found
    rd = build_reduction(problem, res.solution)
    out = solve_closed_form(problem, rd)
    assert out.reduced_steps == 500 - rd.nu
    _assert_trajectories_match(out.trajectory, solve_full(problem), rtol=1e-8)
    # Same checkpoint and shape of result as the hybrid solve.
    hyb = solve_hybrid(problem, rd)
    assert (out.checkpoint_off_norm, out.full_steps) == (hyb.checkpoint_off_norm, hyb.full_steps)


def test_solve_closed_form_short_horizon_refuses():
    problem = random_problem(4, 1, 2100, "nilpotent_block", horizon=1, nilpotent_dim=3)
    res = find_reference(problem)
    assert res.found
    rd = build_reduction(problem, res.solution)
    with pytest.raises(NumericalRefusal, match="horizon"):
        solve_closed_form(problem, rd)


def test_solve_closed_form_refuses_violated_checkpoint():
    # The rotation of another problem: the checkpoint must catch it at any
    # scale of the weights, so the hybrid falls back and the closed form
    # refuses.  A threshold of residual_rel * (1 + ||Delta||) let the
    # rotation through at weights x 1e-9 and the hybrid X came out 7.5e-3 off.
    Qm, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))
    base = random_problem(4, 2, 1902, "nilpotent_block", horizon=10, nilpotent_dim=2)
    for weight_scale in (1.0, 1e-9):
        problem = scaled_problem(base, weight_scale)
        res = find_reference(problem)
        assert res.found
        rotated = dataclasses.replace(build_reduction(problem, res.solution), T_orth=Qm)
        hyb = solve_hybrid(problem, rotated)
        assert hyb.used_fallback and hyb.fallback_reason == "checkpoint block structure violated", weight_scale
        assert hyb.checkpoint_off_norm > hyb.checkpoint_threshold
        _assert_trajectories_match(hyb.trajectory, solve_full(problem), rtol=1e-12)
        with pytest.raises(NumericalRefusal, match="checkpoint"):
            solve_closed_form(problem, rotated)


def test_solve_closed_form_non_autonomous_matches_full():
    # The input reaches the nilpotent coordinates (B1 != 0).  Phase two
    # inverts R_full, so the closed form applies as it stands.
    checked = 0
    for seed in range(101, 111):
        problem = _drift_singular_problem(seed)
        res = find_reference(problem)
        if not res.found:
            continue
        rd = build_reduction(problem, res.solution)
        if rd.dim_u == 0:
            continue
        assert np.linalg.norm(rd.B1) > 1e-3
        out = solve_closed_form(problem, rd)
        _assert_trajectories_match(out.trajectory, solve_full(problem), rtol=1e-12)
        checked += 1
    assert checked >= 3


def test_empty_reduced_block():
    # dim U = n: the reduced problem is 0 x 0 and the sweep degenerates to
    # bookkeeping; solve_closed_form must still reproduce the recursion.
    from griccati.model import LQProblem, PopovTriple

    A = np.diag(np.ones(1), 1)
    problem = LQProblem(
        PopovTriple(A, np.zeros((2, 1)), np.eye(2), np.zeros((2, 1)), [[1.0]]),
        0.5 * np.eye(2),
        6,
        [1.0, -1.0],
    )
    res = find_reference(problem)
    assert res.found
    rd = build_reduction(problem, res.solution)
    assert rd.dim_reduced == 0
    out = solve_closed_form(problem, rd)
    full = solve_full(problem)
    for Xa, Xb in zip(out.trajectory.X, full.X):
        assert np.linalg.norm(Xa - Xb) <= 1e-10
    _assert_trajectories_match(out.trajectory, full, rtol=1e-10)


def test_every_solver_validates_the_problem():
    # P = -I fails terminal_psd; the reference search never reads P, so each
    # route gets as far as its solver, which must refuse it as solve_full does.
    for problem, nu in (
        (random_problem(6, 2, 3, "nilpotent_block", horizon=20, nilpotent_dim=3), 3),
        (random_problem(4, 2, 5, "generic", horizon=10), 0),
    ):
        problem = dataclasses.replace(problem, P=-np.eye(problem.n))
        rd = build_reduction(problem, find_reference(problem).solution)
        assert rd.nu == nu
        with pytest.raises(ProblemValidationError, match="terminal_psd"):
            solve_full(problem)
        for solve in (solve_hybrid, solve_closed_form):
            with pytest.raises(ProblemValidationError, match="terminal_psd"):
                solve(problem, rd)

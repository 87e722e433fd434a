"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints one summary line so a verbose run reads as a checklist.
The shared corpora live in conftest (session-scoped, fixed seeds).
"""

import time

import numpy as np
import pytest

from griccati.cgdare import (
    closed_loop,
    compare_solutions,
    difference_identity_residuals,
    find_reference,
    gdare_residual,
)
from griccati.closedform import gramian_sweep
from griccati.grde import optimal_cost, solve_full
from griccati.linalg import NumericalRefusal, kernel_basis, pinv, symmetrize
from griccati.model import random_problem
from griccati.oracle import batch_matrices, batch_optimal
from griccati.pencil import (
    build,
    closed_loop_singular_criterion,
    det_identity_check,
    mu_bookkeeping,
    n_singular_criterion,
)
from griccati.reduction import build_reduction, checkpoint_blocks, delta_recursion_check, solve_hybrid

from conftest import PHI, multi_root_family, scalar_j_problem, scalar_two_step
from test_closedform import _iterated, _synthetic_rd, scalar_gramian_limit


def test_criterion_01_oracle_equivalence(corpus200):
    t0 = time.perf_counter()
    worst = 0.0
    for kind, problem in corpus200:
        traj = solve_full(problem)
        j_grde = optimal_cost(traj, problem.x0)
        _, j_oracle = batch_optimal(batch_matrices(problem))
        worst = max(worst, abs(j_grde - j_oracle) / (1.0 + abs(j_oracle)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 10.0
    print(f"[criterion 01] PASS — 200 problems, worst rel cost gap {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_scalar_goldens():
    res = find_reference(scalar_two_step())
    assert res.found
    assert abs(res.solution.X[0, 0] - 1.6180339887) <= 1e-9

    traj = solve_full(scalar_two_step())
    assert np.allclose([X[0, 0] for X in traj.X], [1.5, 1.0, 0.0], atol=1e-12)

    problem = scalar_j_problem()
    ref = find_reference(problem)
    assert ref.found
    rd = build_reduction(problem, ref.solution)
    W = scalar_gramian_limit(rd)
    assert abs(W - 0.4472135955) <= 1e-9
    print(
        f"[criterion 02] PASS — phi err {abs(res.solution.X[0,0]-PHI):.1e}, "
        f"X=(1.5,1,0), Gramian limit err {abs(W-1/np.sqrt(5)):.1e}"
    )


def test_criterion_03_reduction_equivalence(nilpotent50):
    t0 = time.perf_counter()
    found = 0
    worst_traj = 0.0
    worst_ckpt = 0.0
    for problem, reference in nilpotent50:
        assert reference is not None, "reference search failed on a corpus instance"
        found += 1
        rd = build_reduction(problem, reference)
        assert rd.nu >= 1
        result = solve_hybrid(problem, rd)
        assert not result.used_fallback, result.fallback_reason
        full = solve_full(problem)
        for Xa, Xb in zip(full.X, result.trajectory.X):
            rel = np.linalg.norm(Xa - Xb) / (1.0 + np.linalg.norm(Xa))
            worst_traj = max(worst_traj, float(rel))
        # Checkpoint: off blocks of Delta at the splice point.
        if problem.T >= rd.nu:
            Delta = full.X[problem.T - rd.nu] - rd.X_circ
            D11, D12, _ = checkpoint_blocks(Delta, rd)
            worst_ckpt = max(worst_ckpt, float(np.linalg.norm(D11)), float(np.linalg.norm(D12)))
    elapsed = time.perf_counter() - t0
    assert found == 50
    assert worst_traj <= 1e-8
    assert worst_ckpt <= 1e-8
    assert elapsed < 10.0
    print(
        f"[criterion 03] PASS — 50 problems, worst traj rel {worst_traj:.2e}, "
        f"worst checkpoint off-norm {worst_ckpt:.2e}, {elapsed:.2f} s"
    )


def test_criterion_04_deadbeat_and_step_identity(nilpotent50):
    worst_step = 0.0
    worst_dead = 0.0
    for problem, reference in nilpotent50:
        assert reference is not None
        report = delta_recursion_check(problem, reference, solve_full(problem))
        worst_step = max(worst_step, report.max_step_residual)
        worst_dead = max(worst_dead, report.max_deadbeat_residual)
    assert worst_dead <= 1e-8
    assert worst_step <= 1e-9
    print(
        f"[criterion 04] PASS — worst per-step identity residual {worst_step:.2e}, "
        f"worst deadbeat norm {worst_dead:.2e}"
    )


def test_criterion_05_solutions_coincide_on_u():
    families = [
        (1, [(0.9, 1.0, 1.0, 1.0)], 0),
        (1, [(1.1, 0.7, 0.5, 2.0), (0.6, 1.3, 2.0, 0.8)], 1),
        (2, [(0.9, 1.0, 1.0, 1.0)], 2),
        (2, [(1.2, 0.5, 1.5, 1.0), (0.4, 1.0, 0.7, 1.3)], 3),
        (3, [(0.8, 0.9, 1.2, 1.1)], 4),
    ]
    pairs = 0
    worst_coin = 0.0
    worst_sub = 0.0
    for j, coords, seed in families:
        problem, solutions = multi_root_family(j, coords, seed)
        sols = []
        for X in solutions:
            assert np.linalg.norm(gdare_residual(X, problem.triple)) <= 1e-9
            sol = closed_loop(X, problem.triple)
            assert sol.accepted()
            assert sol.nu >= j
            sols.append(sol)
        for a in range(len(sols)):
            for b in range(a + 1, len(sols)):
                rep = compare_solutions(sols[a], sols[b])
                worst_coin = max(worst_coin, rep.coincidence_residual)
                worst_sub = max(worst_sub, rep.subspace_distance)
                pairs += 1
    assert pairs >= 10
    assert worst_coin <= 1e-8
    assert worst_sub <= 1e-8
    print(
        f"[criterion 05] PASS — {pairs} solution pairs, worst coincidence {worst_coin:.2e}, "
        f"worst eigenspace distance {worst_sub:.2e}"
    )


def test_criterion_06_difference_identities():
    from conftest import random_psd
    from griccati.model import PopovTriple

    rng = np.random.default_rng(60)
    worst = 0.0
    for i in range(100):
        n = 1 + i % 5
        m = 1 + i % 3
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        L = rng.normal(size=(n + m, n + m))
        Pi = L @ L.T / (n + m)
        Pi[n:, n:] += 0.4 * np.eye(m)  # strictly PD R
        triple = PopovTriple(A, B, Pi[:n, :n], Pi[:n, n:], Pi[n:, n:])
        X = random_psd(rng, n)
        Y = random_psd(rng, n)
        one, quad = difference_identity_residuals(X, Y, triple)
        scale = 1.0 + np.linalg.norm(X) + np.linalg.norm(Y)
        worst = max(worst, one / scale, quad / scale)
    assert worst <= 1e-9
    print(f"[criterion 06] PASS — 100 random pairs, worst identity residual {worst:.2e}")


def test_criterion_07_pencil_criteria(corpus200_refs):
    rng = np.random.default_rng(70)
    checked = 0
    det_checked = 0
    worst_det = 0.0
    for kind, problem, solution in corpus200_refs:
        if solution is None:
            continue
        checked += 1
        pencil = build(problem.triple)
        ncrit = n_singular_criterion(pencil, problem.triple)
        assert ncrit.consistent, (kind, problem.n, problem.m)
        ccrit = closed_loop_singular_criterion(solution)
        assert ccrit.consistent, (kind, problem.n, problem.m)
        mu = mu_bookkeeping(solution)
        assert mu.additive
        assert mu.mu_block == mu.mu_AX + mu.mu_RX  # exact integers
        if kind == "generic":
            zs = rng.uniform(-2.0, 2.0, size=20).tolist()
            worst_det = max(worst_det, det_identity_check(pencil, solution, zs))
            det_checked += 1
    assert checked >= 180
    assert det_checked >= 50
    assert worst_det <= 1e-8
    print(
        f"[criterion 07] PASS — {checked} instances consistent, det identity on "
        f"{det_checked} generic instances worst {worst_det:.2e}"
    )


def test_criterion_08_closed_form_vs_iterated():
    rng = np.random.default_rng(80)
    done = 0
    worst = 0.0
    attempts = 0
    while done < 30 and attempts < 120:
        attempts += 1
        d = 1 + attempts % 3
        m = 1 + attempts % 2
        Z = rng.normal(size=(d, d))
        rho = max(abs(np.linalg.eigvals(Z)))
        Z = Z * ((0.3 + 0.6 * rng.random()) / rho)
        B2 = rng.normal(size=(d, m))
        L = rng.normal(size=(m, m))
        R_full = L @ L.T + 0.3 * np.eye(m)
        LP = rng.normal(size=(d, d))
        term = -(LP @ LP.T) / (2.0 * d)
        rd = _synthetic_rd(Z, B2, R_full)
        Tp = 2 + attempts % 9
        try:
            sweep = list(gramian_sweep(term, Tp, rd))
        except NumericalRefusal:
            continue
        for got, want in zip(sweep, _iterated(term, Tp, rd)):
            rel = np.linalg.norm(got - want) / (1.0 + np.linalg.norm(want))
            worst = max(worst, float(rel))
        done += 1
    assert done == 30
    assert worst <= 1e-8

    # Refusals must be raised, not approximated around.
    with pytest.raises(NumericalRefusal):
        next(gramian_sweep(np.zeros((1, 1)), 3, _synthetic_rd([[0.5]], [[1.0]], [[0.0]])))
    with pytest.raises(NumericalRefusal):
        next(gramian_sweep(np.array([[-1.0]]), 4, _synthetic_rd([[0.5]], [[1.0]], [[1.0]])))
    print(f"[criterion 08] PASS — 30 reduced problems, worst sweep rel err {worst:.2e}, refusals raised")


def test_criterion_09_primitive_identity_suites():
    rng = np.random.default_rng(90)

    worst_penrose = 0.0
    for i in range(100):
        rows = 1 + int(rng.integers(6))
        cols = 1 + int(rng.integers(6))
        r = 1 + int(rng.integers(min(rows, cols)))
        A = rng.normal(size=(rows, r)) @ rng.normal(size=(r, cols)) if i % 2 else rng.normal(size=(rows, cols))
        P = pinv(A)
        scale = max(1.0, float(np.linalg.norm(A)))
        worst_penrose = max(
            worst_penrose,
            np.linalg.norm(A @ P @ A - A) / scale,
            np.linalg.norm(P @ A @ P - P) / scale,
            np.linalg.norm((A @ P).T - A @ P),
            np.linalg.norm((P @ A).T - P @ A),
        )
    assert worst_penrose <= 1e-9

    worst_proj = 0.0
    for _ in range(100):
        m = 1 + int(rng.integers(4))
        r = int(rng.integers(m + 1))
        W = rng.normal(size=(m, r))
        R = W @ W.T
        G = np.eye(m) - pinv(R) @ R
        worst_proj = max(
            worst_proj,
            float(np.linalg.norm(G @ G - G)),
            float(np.linalg.norm(R @ G) / max(1.0, np.linalg.norm(R))),
        )
    assert worst_proj <= 1e-9

    worst_block = 0.0
    for _ in range(100):
        p = 1 + int(rng.integers(4))
        q = 1 + int(rng.integers(4))
        r = 1 + int(rng.integers(p + q))
        W = rng.normal(size=(p + q, r))
        M = W @ W.T
        X, Y, Z = M[:p, :p], M[:p, p:], M[p:, p:]
        Zp = pinv(Z)
        worst_block = max(
            worst_block, float(np.linalg.norm(Y @ (np.eye(q) - Zp @ Z)) / max(1.0, np.linalg.norm(Y)))
        )
        schur = symmetrize(X - Y @ Zp @ Y.T)
        neg = float(max(0.0, -np.linalg.eigvalsh(schur).min()))
        worst_block = max(worst_block, neg / max(1.0, float(np.linalg.norm(M))))
    assert worst_block <= 1e-9

    worst_subst = 0.0
    for _ in range(100):
        n = 1 + int(rng.integers(5))
        k = 1 + int(rng.integers(5))
        L = rng.normal(size=(n, int(rng.integers(n + 1))))
        M = L @ L.T
        A = rng.normal(size=(n, k))
        G = A.T @ M @ A
        scale = max(1.0, float(np.linalg.norm(M)) * float(np.linalg.norm(A)) ** 2)
        worst_subst = max(
            worst_subst,
            float(np.linalg.norm(G @ pinv(G) @ (A.T @ M) - A.T @ M)) / scale,
            float(np.linalg.norm(M @ A @ kernel_basis(G))) / scale,
        )
    assert worst_subst <= 1e-9
    print(
        f"[criterion 09] PASS — Penrose {worst_penrose:.2e}, projector {worst_proj:.2e}, "
        f"PSD block {worst_block:.2e}, substitution {worst_subst:.2e} (100 cases each)"
    )


def test_criterion_10_benchmark_sanity():
    problem = random_problem(20, 2, 42, "nilpotent_block", horizon=500, nilpotent_dim=15)
    t0 = time.perf_counter()
    res = find_reference(problem)
    t_ref = time.perf_counter() - t0
    assert res.found
    rd = build_reduction(problem, res.solution)
    assert rd.nu == 15
    assert rd.dim_u == 15
    assert rd.dim_reduced == 5  # structural: reduced phase runs on 5 x 5 blocks

    t0 = time.perf_counter()
    full = solve_full(problem)
    t_full = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = solve_hybrid(problem, rd)
    t_hybrid = time.perf_counter() - t0
    assert not result.used_fallback
    worst = 0.0
    for Xa, Xb in zip(full.X, result.trajectory.X):
        worst = max(worst, float(np.linalg.norm(Xa - Xb) / (1.0 + np.linalg.norm(Xa))))
    assert worst <= 1e-8
    print(
        f"[criterion 10] PASS — n=20, T=500: reference {t_ref*1e3:.0f} ms, "
        f"full {t_full*1e3:.0f} ms, hybrid {t_hybrid*1e3:.0f} ms, worst rel {worst:.2e} "
        "(timing informational)"
    )

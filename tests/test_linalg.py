import numpy as np
import pytest

from griccati.grde import solve_full
from griccati.linalg import (
    RANK_REL,
    RESIDUAL_ABS,
    RESIDUAL_REL,
    _pinv,
    inertia,
    is_nonsingular,
    kernel_basis,
    nilpotent_eigenspace,
    numerical_rank,
    pinv,
    spectral_radius,
    subspace_distance,
    svd_cutoff,
    symmetric_lstsq,
    symmetrize,
    within_residual,
)
from griccati.model import LQProblem, PopovTriple, random_problem
from griccati.oracle import batch_matrices


def test_tolerance_defaults_frozen():
    assert RANK_REL == 1e-10
    assert RESIDUAL_ABS == 1e-9
    assert RESIDUAL_REL == 1e-8


def test_within_residual_mixed_scale():
    assert within_residual(1e-10, 0.0)
    assert within_residual(0.5e-8 * 100.0, 100.0)
    assert not within_residual(1e-5, 100.0)


def test_pinv_diagonal_frozen():
    P = pinv(np.diag([2.0, 0.0]))
    assert np.allclose(P, np.diag([0.5, 0.0]), atol=1e-15)


def test_pinv_zero_matrix():
    assert pinv(np.zeros((2, 3))).shape == (3, 2)
    assert np.all(pinv(np.zeros((2, 3))) == 0.0)


def _rank_of_pinv(P, A):
    # P A is the orthogonal projector onto the row space that was kept.
    return int(round(float(np.trace(P @ A))))


def test_private_pinv_matches_checked_pinv():
    cutoff = RANK_REL * 1.0 * 2  # sigma_max 1, 2 x 2
    cases = [
        (np.zeros((2, 2)), 0),
        (np.diag([1.0, cutoff * (1 + 1e-6)]), 2),
        (np.diag([1.0, cutoff * (1 - 1e-6)]), 1),
        (np.diag([1.0, cutoff]), 1),  # at the cutoff counts as zero
    ]
    # Curvatures R + B^T X B of singular_R problems along their recursion,
    # with a dead input channel appended (a zero column of B, a zero row and
    # column of R), so each is exactly rank-deficient.
    for seed in range(5):
        problem = random_problem(4, 2, 1000 + seed, "singular_R", horizon=6)
        t3 = problem.triple
        B = np.hstack([t3.B, np.zeros((4, 1))])
        R = np.zeros((3, 3))
        R[:2, :2] = t3.R
        for X in solve_full(problem).X:
            curvature = R + B.T @ X @ B
            assert not np.any(curvature[2]) and not np.any(curvature[:, 2])
            cases.append((curvature, None))
    for A, rank in cases:
        P = pinv(A)
        P_fast = _pinv(A)
        assert np.linalg.norm(P_fast - P) <= 1e-15 * np.linalg.norm(P)
        assert _rank_of_pinv(P_fast, A) == _rank_of_pinv(P, A)
        assert _rank_of_pinv(P, A) == (A.shape[0] - 1 if rank is None else rank)

    # A stack is cut slice by slice: a uniformly tiny slice keeps full rank
    # although it sits far below the cutoff of its neighbours.
    stack = np.array([np.diag([1.0, 1e-11]), 1e-11 * np.eye(2), np.zeros((2, 2)), [[2.0, 1.0], [1.0, 3.0]]])
    P_stack = _pinv(stack)
    assert P_stack.shape == stack.shape
    for A, P, rank in zip(stack, P_stack, (1, 2, 0, 2)):
        P_ref = pinv(A)
        assert _rank_of_pinv(P, A) == _rank_of_pinv(P_ref, A) == rank
        assert np.linalg.norm(P - P_ref) <= 1e-15 * np.linalg.norm(P_ref)


def test_symmetric_lstsq_rank_and_min_norm():
    # The eigen-solve must drop exactly the directions the SVD rank drops, and
    # its solution must have no component in the kernel (minimum norm).
    rng = np.random.default_rng(21)
    x, rank = symmetric_lstsq(np.zeros((0, 0)), np.zeros(0))
    assert x.shape == (0,) and rank == 0
    cases = [np.zeros((3, 3))]
    # Batch QP of a dead input channel: the second input never enters the
    # dynamics and has zero weight, so every step adds an exact kernel vector.
    n, m = 2, 2
    dead = LQProblem(
        PopovTriple([[0.3, 0.1], [0.0, 0.2]], [[1.0, 0.0], [0.5, 0.0]], np.eye(n), np.zeros((n, m)), np.diag([1.0, 0.0])),
        np.zeros((n, n)),
        3,
        [1.0, -2.0],
    )
    H_dead = batch_matrices(dead).H
    assert not np.any(H_dead[1::m]) and not np.any(H_dead[:, 1::m])
    cases.append(H_dead)
    # singular_R corpora: the singular R itself and the batch QP's H.
    for seed in range(12):
        problem = random_problem(2 + seed % 4, 1 + seed % 3, 1400 + seed, "singular_R")
        cases += [problem.triple.R, batch_matrices(problem).H]
    ranks = []
    for H in cases:
        b = rng.normal(size=H.shape[0])
        x, rank = symmetric_lstsq(H, b)
        assert rank == numerical_rank(H)
        ranks.append(rank)
        K = kernel_basis(H)
        scale = 1.0 + np.linalg.norm(x)
        assert np.linalg.norm(K.T @ x) <= 1e-10 * scale
        assert np.linalg.norm(x - pinv(H) @ b) <= 1e-8 * scale
    assert ranks[0] == 0 and ranks[1] == 3  # zero matrix; one live channel per step
    assert sum(r < H.shape[0] for r, H in zip(ranks, cases)) >= 12  # every singular R
    with pytest.raises(ValueError):
        symmetric_lstsq(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        symmetric_lstsq(np.eye(2), np.zeros(3))


def test_pinv_penrose_conditions():
    # Sweep includes deliberately rank-deficient rectangles.
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(100):
        rows = 1 + rng.integers(6)
        cols = 1 + rng.integers(6)
        r = int(min(rows, cols))
        if i % 2:
            r = 1 + int(rng.integers(r))
            A = rng.normal(size=(rows, r)) @ rng.normal(size=(r, cols))
        else:
            A = rng.normal(size=(rows, cols))
        P = pinv(A)
        scale = max(1.0, np.linalg.norm(A))
        worst = max(
            worst,
            np.linalg.norm(A @ P @ A - A) / scale,
            np.linalg.norm(P @ A @ P - P) / scale,
            np.linalg.norm((A @ P).T - A @ P),
            np.linalg.norm((P @ A).T - P @ A),
        )
    assert worst <= 1e-9


def test_numerical_rank_and_nonsingular():
    assert numerical_rank(np.diag([1.0, 1e-14, 3.0])) == 2
    assert is_nonsingular(np.eye(3))
    assert not is_nonsingular(np.diag([1.0, 0.0]))
    # Empty matrix is nonsingular by convention (no singular value below cutoff).
    assert is_nonsingular(np.eye(0))


def test_kernel_basis_simple():
    K = kernel_basis(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert K.shape == (2, 1)
    assert abs(abs(K[1, 0]) - 1.0) <= 1e-14
    assert kernel_basis(np.eye(3)).shape == (3, 0)
    assert kernel_basis(np.zeros((2, 2))).shape == (2, 2)


def test_kernel_basis_random_rank():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = 2 + int(rng.integers(5))
        r = int(rng.integers(n + 1))
        A = rng.normal(size=(n, r)) @ rng.normal(size=(r, n))
        K = kernel_basis(A)
        assert K.shape == (n, n - min(r, n))
        assert np.linalg.norm(A @ K) <= 1e-9 * max(1.0, np.linalg.norm(A))
        assert np.allclose(K.T @ K, np.eye(K.shape[1]), atol=1e-12)


def _check_staircase(A, dim_u, nu):
    """nilpotent_eigenspace(A) finds (dim_u, nu) and its Q deflates A as promised."""
    Q, k, got_nu = nilpotent_eigenspace(A)
    assert (k, got_nu) == (dim_u, nu)
    n = A.shape[0]
    assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= 1e-14 * n
    A_rot = Q.T @ A @ Q
    cutoff = svd_cutoff(np.linalg.svd(A, compute_uv=False), A.shape)
    assert np.linalg.norm(A_rot[k:, :k]) <= cutoff
    assert np.linalg.norm(np.linalg.matrix_power(A_rot[:k, :k], nu)) <= 1e-12 * max(1.0, np.linalg.norm(A)) ** nu
    if k < n:
        assert is_nonsingular(A_rot[k:, k:])
    return Q


def _jordan_plus_stable(sizes, extra):
    """diag(J_{sizes[0]}, J_{sizes[1]}, ..., extra), J_s the s x s nilpotent Jordan block."""
    n = sum(sizes) + extra.shape[0]
    A = np.zeros((n, n))
    ofs = 0
    for size in sizes:
        A[ofs : ofs + size, ofs : ofs + size] = np.eye(size, k=1)
        ofs += size
    A[ofs:, ofs:] = extra
    return A


def test_nilpotent_eigenspace_simple_staircase():
    # ker diag(0, 1) = span(e1): Q keeps e1 first and e2 spans the rest.
    Q = _check_staircase(np.diag([0.0, 1.0]), 1, 1)
    assert abs(abs(Q[1, 1]) - 1.0) <= 1e-14
    # A non-singular matrix gives the empty eigenspace and Q = I.
    assert np.array_equal(_check_staircase(np.eye(3), 0, 0), np.eye(3))
    with pytest.raises(ValueError):
        nilpotent_eigenspace(np.zeros((2, 3)))


def test_nilpotent_eigenspace_recovers_prescribed_span():
    # A = U J U^T + U_c D U_c^T with [U, U_c] orthogonal and J one Jordan
    # chain of length k: Q's first k columns span U, the rest its complement.
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = 2 + int(rng.integers(5))
        k = int(rng.integers(n + 1))
        Qm, _ = np.linalg.qr(rng.normal(size=(n, n)))
        U, U_c = Qm[:, :k], Qm[:, k:]
        A = U @ np.eye(k, k=1) @ U.T + U_c @ np.diag(1.0 + rng.uniform(size=n - k)) @ U_c.T
        Q = _check_staircase(A, k, k)
        assert subspace_distance(Q[:, :k], U) <= 1e-12
        assert np.linalg.norm(Q[:, k:].T @ U) <= 1e-12


def test_nilpotent_eigenspace_mixed_example():
    # One 2-chain at zero plus a well-separated nonzero mode.
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    Q, k, nu = nilpotent_eigenspace(A)
    assert Q.shape == (3, 3) and k == 2 and nu == 2
    # Invariance: A U stays inside span(U).
    U = Q[:, :k]
    assert np.linalg.norm(A @ U - U @ U.T @ (A @ U)) <= 1e-12


def test_nilpotent_eigenspace_edges():
    Q, k, nu = nilpotent_eigenspace(np.diag([1.0, -2.0]))
    assert np.array_equal(Q, np.eye(2)) and k == 0 and nu == 0
    Q, k, nu = nilpotent_eigenspace(np.diag(np.ones(2), 1))
    assert Q.shape == (3, 3) and k == 3 and nu == 3
    Q, k, nu = nilpotent_eigenspace(np.zeros((0, 0)))
    assert Q.shape == (0, 0) and k == 0 and nu == 0


def test_nilpotent_eigenspace_jordan_sizes_in_any_coordinates():
    # dim U is the sum of the Jordan block sizes at zero and nu the largest,
    # the same after a random orthogonal change of coordinates.
    rng = np.random.default_rng(5)
    for _ in range(20):
        sizes = [1 + int(rng.integers(3)) for _ in range(2)]
        A = _jordan_plus_stable(sizes, rng.normal(size=(2, 2)) + 3.0 * np.eye(2))
        Q = _check_staircase(A, sum(sizes), max(sizes))
        V, _ = np.linalg.qr(rng.normal(size=A.shape))
        Q_rot = _check_staircase(V.T @ A @ V, sum(sizes), max(sizes))
        assert subspace_distance(Q_rot[:, : sum(sizes)], V.T @ Q[:, : sum(sizes)]) <= 1e-12


def test_inertia_frozen_and_errors():
    assert inertia(np.diag([2.0, 0.0, -3.0])) == (1, 1, 1)
    assert inertia(np.zeros((2, 2))) == (0, 0, 2)
    with pytest.raises(ValueError):
        inertia(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_inertia_congruence_invariance():
    # Sylvester: inertia survives X -> G^T X G for nonsingular G.
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = 2 + int(rng.integers(4))
        d = rng.choice([-1.0, 0.0, 1.0], size=n) * (1.0 + rng.random(n))
        X = np.diag(d)
        G = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        assert inertia(symmetrize(G.T @ X @ G)) == inertia(X)


def test_subspace_distance():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert subspace_distance(e1, e1) <= 1e-15
    assert abs(subspace_distance(e1, e2) - 1.0) <= 1e-12
    # Same span, different basis sign/rotation.
    rng = np.random.default_rng(2)
    Qm, _ = np.linalg.qr(rng.normal(size=(4, 2)))
    Rot, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    assert subspace_distance(Qm, Qm @ Rot) <= 1e-12


def test_spectral_radius():
    assert abs(spectral_radius(np.diag([0.5, -2.0])) - 2.0) <= 1e-12
    assert spectral_radius(np.zeros((0, 0))) == 0.0


def test_psd_block_kernel_and_schur():
    # For [[X, Y], [Y^T, Z]] >= 0: Y annihilates ker Z, and the generalized
    # Schur complement X - Y Z^+ Y^T stays positive semidefinite.
    rng = np.random.default_rng(17)
    for i in range(100):
        p = 1 + int(rng.integers(4))
        q = 1 + int(rng.integers(4))
        r = 1 + int(rng.integers(p + q))
        W = rng.normal(size=(p + q, r))
        M = W @ W.T
        X, Y, Z = M[:p, :p], M[:p, p:], M[p:, p:]
        Zp = pinv(Z)
        scale = max(1.0, np.linalg.norm(Y))
        assert np.linalg.norm(Y @ (np.eye(q) - Zp @ Z)) <= 1e-9 * scale
        schur = symmetrize(X - Y @ Zp @ Y.T)
        assert np.linalg.eigvalsh(schur).min() >= -1e-9 * max(1.0, np.linalg.norm(M))


def test_pinv_substitution_identity():
    # For M >= 0 (possibly singular) and any A:
    #   ker(A^T M A) = ker(M A)  and  (A^T M A)(A^T M A)^+ (A^T M) = A^T M.
    rng = np.random.default_rng(19)
    for i in range(100):
        n = 1 + int(rng.integers(5))
        k = 1 + int(rng.integers(5))
        r = int(rng.integers(n + 1))
        L = rng.normal(size=(n, r))
        M = L @ L.T
        A = rng.normal(size=(n, k))
        G = A.T @ M @ A
        Gp = pinv(G)
        scale = max(1.0, np.linalg.norm(M) * np.linalg.norm(A))
        assert np.linalg.norm(G @ Gp @ (A.T @ M) - A.T @ M) <= 1e-9 * scale
        KG = kernel_basis(G)
        assert np.linalg.norm(M @ A @ KG) <= 1e-9 * scale
        KMA = kernel_basis(M @ A)
        assert np.linalg.norm(G @ KMA) <= 1e-9 * scale
        assert KG.shape[1] == KMA.shape[1]

import numpy as np
import pytest

from griccati import linalg
from griccati.cgdare import find_reference
from griccati.grde import solve_full
from griccati.linalg import (
    RANK_REL,
    RESIDUAL_ABS,
    RESIDUAL_REL,
    _pinv,
    inertia,
    is_nonsingular,
    nilpotent_eigenspace,
    numerical_rank,
    pinv,
    spectral_radius,
    svd_cutoff,
    symmetric_lstsq,
    residual_limit,
    symmetrize,
)
from griccati.model import LQProblem, PopovTriple, random_problem
from griccati.oracle import batch_matrices

from conftest import benchmark_pools, null_space, projector_distance


def test_tolerance_defaults_frozen():
    assert RANK_REL == 1e-10
    assert RESIDUAL_ABS == 1e-9
    assert RESIDUAL_REL == 1e-8


def test_residual_limit_is_relative():
    # No absolute floor: a zero scale passes only an exact zero.
    assert residual_limit(0.0) == 0.0
    assert 0.5e-8 * 100.0 <= residual_limit(100.0)
    assert not 1e-5 <= residual_limit(100.0)
    assert residual_limit(1e-12) == RESIDUAL_REL * 1e-12


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
        K = null_space(H)
        scale = 1.0 + np.linalg.norm(x)
        assert np.linalg.norm(K.T @ x) <= 1e-10 * scale
        assert np.linalg.norm(x - pinv(H) @ b) <= 1e-8 * scale
    assert ranks[0] == 0 and ranks[1] == 3  # zero matrix; one live channel per step
    assert sum(r < H.shape[0] for r, H in zip(ranks, cases)) >= 12  # every singular R
    with pytest.raises(ValueError):
        symmetric_lstsq(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        symmetric_lstsq(np.eye(2), np.zeros(3))


def _eigen_only(monkeypatch):
    """Switch the positive-definite certificate off: every symmetric solve
    takes its eigen-decomposition."""
    monkeypatch.setattr(linalg, "_certified_positive_definite", lambda A: False)


def _count_eigh(monkeypatch):
    """Count the calls of np.linalg.eigh from here on."""
    calls = []
    eigh = np.linalg.eigh

    def spy(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


def test_certified_solve_matches_eigen_solve_on_batch_qps():
    # On the positive-definite H of generic and nilpotent_block batch QPs
    # the certified LU solve and an eigen solve are both backward stable, so
    # they differ by at most about n cond(H) eps relative.
    eps = np.finfo(float).eps
    for kind in ("generic", "nilpotent_block"):
        for seed in range(6):
            for n, m, T in ((4, 2, 12), (6, 1, 30), (3, 3, 20)):
                qp = batch_matrices(random_problem(n, m, 1700 + seed, kind, horizon=T))
                H, N = qp.H, qp.size
                assert linalg._certified_positive_definite(H), (kind, seed, n, m)
                x, rank = symmetric_lstsq(H, qp.g)
                lam, V = np.linalg.eigh(H)
                x_eig = V @ ((V.T @ qp.g) / lam)
                cond = lam[-1] / lam[0]
                assert rank == N
                assert np.linalg.norm(x - x_eig) <= N * cond * eps * np.linalg.norm(x_eig), (kind, seed, n, m)


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
def test_positive_definite_certificate_flips_at_its_shift(monkeypatch, c):
    # c V diag(1, ..., 1, delta) V^T with delta stepped across the shift
    # s = 2 RANK_REL n ||diag||_F: certified for every delta >= 2 s, never
    # for delta <= s / 2, at every scale c.  At every step the solve's rank
    # is numerical_rank's, and its answer the eigen path's where not
    # certified.  numerical_rank's own cutoff is s / (2 sqrt(n - 1)), i.e.
    # 2^-1, 2^-1.5 and 2^-2 of s at n = 2, 3 and 5; the ratios
    # 2^(-2.05 + 0.205 k) miss those, where the SVD and eigh may round apart.
    rng = np.random.default_rng(23)
    for n in (2, 3, 5):
        V, _ = np.linalg.qr(rng.normal(size=(n, n)))
        shift = 2.0 * RANK_REL * n * np.sqrt(n - 1.0)
        b = rng.normal(size=n)
        for ratio in [0.0, 0.01] + list(2.0 ** np.linspace(-2.05, 2.05, 21)):
            diag = np.diag([1.0] * (n - 1) + [ratio * shift])
            for D in (diag, V @ diag @ V.T):
                M = c * D
                certified = linalg._certified_positive_definite(M)
                if ratio >= 2.0:
                    assert certified, (n, ratio)
                if ratio <= 0.5:
                    assert not certified, (n, ratio)
                x, rank = symmetric_lstsq(M, b)
                assert rank == numerical_rank(M), (n, ratio)
                with monkeypatch.context() as patch:
                    _eigen_only(patch)
                    x_eig, rank_eig = symmetric_lstsq(M, b)
                assert rank_eig == rank, (n, ratio)
                if not certified:
                    assert np.array_equal(x, x_eig)


def test_certified_solve_skips_the_eigen_decomposition(monkeypatch):
    # A certified H never reaches eigh; the rank-20 H of a 2 x 4 singular_R
    # QP (40 inputs, R = 0) takes exactly one.
    certified = batch_matrices(random_problem(2, 4, 1, "singular_R", horizon=10)).H
    singular = batch_matrices(random_problem(2, 4, 3, "singular_R", horizon=10)).H
    calls = _count_eigh(monkeypatch)
    assert symmetric_lstsq(certified, np.ones(40))[1] == 40
    assert not calls
    assert symmetric_lstsq(singular, np.ones(40))[1] == 20
    assert len(calls) == 1


def test_symmetric_lstsq_reads_one_symmetric_matrix(monkeypatch):
    # The certified LU solve reads all of M, Cholesky and eigh its lower
    # triangle: both paths must get the same symmetrised copy.  An asymmetry
    # beyond the tolerance is refused; one within it gives the symmetric
    # part's answer, the same on both paths up to n cond(M) eps.
    with pytest.raises(ValueError, match="not symmetric within tolerance"):
        symmetric_lstsq([[2.0, 1.0], [0.0, 2.0]], [1.0, 1.0])
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    for n in (2, 5, 20):
        L = rng.normal(size=(n, n))
        S = L @ L.T + 0.1 * np.eye(n)
        E = rng.normal(size=(n, n))
        E = E - E.T
        # ||M - M^T|| is twice the perturbation's norm: half the tolerance RESIDUAL_REL ||M||.
        M = S + 2.5e-9 * np.linalg.norm(S) / np.linalg.norm(E) * E
        b = rng.normal(size=n)
        assert linalg._certified_positive_definite(symmetrize(M)), n
        x, rank = symmetric_lstsq(M, b)
        assert rank == n and np.array_equal(x, symmetric_lstsq(symmetrize(M), b)[0]), n
        with monkeypatch.context() as patch:
            _eigen_only(patch)
            x_eig, rank_eig = symmetric_lstsq(M, b)
        assert rank_eig == n
        assert np.linalg.norm(x - x_eig) <= n * np.linalg.cond(S) * eps * np.linalg.norm(x), n


def test_positive_definite_certificate_fuzz(monkeypatch):
    # Random SPD matrices, n = 2..100, eigenvalues in [0.1, 1] but one at
    # 1e-13..1e-5, around the shift: where certified, numerical_rank and the
    # eigen path both give full rank.  Both verdicts occur often.
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(1200):
        n = int(rng.integers(2, 101))
        V, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = np.append(rng.uniform(0.1, 1.0, size=n - 1), 10.0 ** rng.uniform(-13.0, -5.0))
        M = symmetrize((V * lam) @ V.T)
        cases.append((M, linalg._certified_positive_definite(M)))
    _eigen_only(monkeypatch)
    for M, certified in cases:
        if certified:
            n = M.shape[0]
            assert numerical_rank(M) == n
            assert symmetric_lstsq(M, np.ones(n))[1] == n
    passed = sum(certified for _, certified in cases)
    assert 200 <= passed <= 1000, passed


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


def _svd_only(monkeypatch):
    """Switch the full-rank certificate off: every rank decision takes its SVD."""
    monkeypatch.setattr(linalg, "_certified_nonsingular", lambda *args, **kwargs: False)


def _decisions(A, scale):
    """The staircase's Q and (k, nu), and is_nonsingular's verdict."""
    Q, k, nu = nilpotent_eigenspace(A, scale)
    return Q, (k, nu, is_nonsingular(A, scale))


def _same_decisions(got, want):
    return np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_certificate_keeps_every_rank_decision_on_the_benchmark_pools(monkeypatch):
    # On the closed loop A_X of every reference the benchmark's seed-1 and
    # seed-2 pools accept, the staircase and the singularity test give
    # exactly the SVD's answers, against A_X alone and against the scale
    # closed_loop judges it by; the non-singular loops of wide_generic are
    # certified, the singular ones of the headline pools are not.
    cases = []
    for name, problem in benchmark_pools((1, 2)):
        search = find_reference(problem)
        if search.found:
            sol, t = search.solution, problem.triple
            loop_scale = float(np.linalg.norm(t.A)) + float(np.linalg.norm(t.B @ sol.K_X))
            cases += [(name, sol.A_X, 0.0), (name, sol.A_X, loop_scale)]
    certified = {name: [] for name, _, _ in cases}
    for name, A, scale in cases:
        certified[name].append(linalg._certified_nonsingular(A, scale))
    assert all(certified["wide_generic"]) and not any(certified["headline_dead_psi"])
    with_certificate = [_decisions(A, scale) for _, A, scale in cases]
    _svd_only(monkeypatch)
    for (name, A, scale), got in zip(cases, with_certificate):
        assert _same_decisions(got, _decisions(A, scale)), (name, scale)


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
def test_certificate_boundary_never_certifies_a_singular_matrix(monkeypatch, c):
    # diag(1, delta) has full rank by the SVD where delta > 2 RANK_REL and
    # is certified where 4 RANK_REL sqrt(1 + delta^2) sqrt(1 + delta^-2) < 1,
    # about delta > 4 RANK_REL: between the two the certificate says
    # "unknown", never "non-singular" where the SVD says singular.  The same
    # holds at every scale c, in rotated coordinates, against a scale above
    # ||A|| and at delta = 0, where np.linalg.inv raises.
    rng = np.random.default_rng(7)
    V, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    W, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    deltas = [0.0] + list(RANK_REL * np.geomspace(1.0, 10.0, 41))
    cases = []
    for delta in deltas:
        for D in (c * np.diag([1.0, delta]), c * V @ np.diag([1.0, delta]) @ W.T):
            cases += [(D, 0.0), (D, 3.0 * c)]
    verdicts = [linalg._certified_nonsingular(A, scale) for A, scale in cases]
    ranks = [numerical_rank(A, scale) for A, scale in cases]
    assert all(rank == 2 for rank, v in zip(ranks, verdicts) if v)
    assert any(verdicts) and any(rank == 2 and not v for rank, v in zip(ranks, verdicts))
    with_certificate = [_decisions(A, scale) for A, scale in cases]
    _svd_only(monkeypatch)
    for (A, scale), got in zip(cases, with_certificate):
        assert _same_decisions(got, _decisions(A, scale)), (A, scale)


@pytest.mark.parametrize("scale", [0.0, 3.0])
def test_stacked_certificate_gives_each_slice_its_own_verdict(scale):
    # One call on a stack gives each slice the verdict that the single
    # matrix gets: across the boundary of diag(1, delta) at three scales,
    # in rotated coordinates, and on a slice whose inverse holds 1e200, its
    # squared norm an overflow that raises nothing under np.errstate; a
    # stack of four, checked slice by slice, too.
    rng = np.random.default_rng(7)
    V, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    mats = [np.diag([1.0, 1e-200])]
    for c in (1e-8, 1.0, 1e8):
        for delta in RANK_REL * np.geomspace(1.0, 10.0, 41):
            D = c * np.diag([1.0, delta])
            mats += [D, V @ D @ V.T]
    A = np.array(mats)
    A_inv = np.linalg.inv(A)
    with np.errstate(all="raise"):
        stacked = linalg._certified_nonsingular(A, scale, A_inv)
        few = linalg._certified_nonsingular(A[:4], scale, A_inv[:4])
        single = [linalg._certified_nonsingular(a, scale, a_inv) for a, a_inv in zip(A, A_inv)]
    assert stacked.shape == (len(A),) and stacked.tolist() == single
    assert few.dtype == bool and few.tolist() == single[:4]
    assert any(single) and not all(single) and not single[0]


def test_null_space_simple():
    K = null_space(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert K.shape == (2, 1)
    assert abs(abs(K[1, 0]) - 1.0) <= 1e-14
    assert null_space(np.eye(3)).shape == (3, 0)
    assert null_space(np.zeros((2, 2))).shape == (2, 2)


def test_null_space_random_rank():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = 2 + int(rng.integers(5))
        r = int(rng.integers(n + 1))
        A = rng.normal(size=(n, r)) @ rng.normal(size=(r, n))
        K = null_space(A)
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
        assert projector_distance(Q[:, :k], U) <= 1e-12
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
        assert projector_distance(Q_rot[:, : sum(sizes)], V.T @ Q[:, : sum(sizes)]) <= 1e-12


def test_inertia_frozen_and_errors():
    assert inertia(np.diag([2.0, 0.0, -3.0])) == (1, 1, 1)
    assert inertia(np.zeros((2, 2))) == (0, 0, 2)
    with pytest.raises(ValueError):
        inertia(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_inertia_zero_count_matches_numerical_rank():
    # A small eigenvalue is zero for inertia exactly when numerical_rank
    # drops it: both read the cutoff RANK_REL sigma_max max(rows, cols).
    for n in (2, 3, 5):
        cutoff = RANK_REL * n
        for ratio in (0.5, 0.75, 0.99, 1.01, 1.5, 2.0):
            for sign in (1.0, -1.0):
                M = np.diag([1.0] * (n - 1) + [sign * ratio * cutoff])
                n_plus, n_minus, n_zero = inertia(M)
                assert n_zero == n - numerical_rank(M) == (ratio < 1.0), (n, ratio, sign)
                assert n_plus + n_minus + n_zero == n


def test_inertia_congruence_invariance():
    # Sylvester: inertia survives X -> G^T X G for nonsingular G.
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = 2 + int(rng.integers(4))
        d = rng.choice([-1.0, 0.0, 1.0], size=n) * (1.0 + rng.random(n))
        X = np.diag(d)
        G = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        assert inertia(symmetrize(G.T @ X @ G)) == inertia(X)


def test_projector_distance():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert projector_distance(e1, e1) <= 1e-15
    assert abs(projector_distance(e1, e2) - 1.0) <= 1e-12
    # Same span, different basis sign/rotation.
    rng = np.random.default_rng(2)
    Qm, _ = np.linalg.qr(rng.normal(size=(4, 2)))
    Rot, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    assert projector_distance(Qm, Qm @ Rot) <= 1e-12


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
        KG = null_space(G)
        assert np.linalg.norm(M @ A @ KG) <= 1e-9 * scale
        KMA = null_space(M @ A)
        assert np.linalg.norm(G @ KMA) <= 1e-9 * scale
        assert KG.shape[1] == KMA.shape[1]

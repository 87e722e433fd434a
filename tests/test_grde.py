import tracemalloc

import numpy as np
import pytest

from griccati import cgdare, closedform, grde, linalg, reduction
from griccati.grde import (
    GrdeTrajectory,
    gain_and_projector,
    optimal_cost,
    riccati_map,
    simulate,
    solve_full,
    trajectory_to_json,
)
from griccati.linalg import pinv
from griccati.model import (
    LQProblem,
    PopovTriple,
    ProblemValidationError,
    random_problem,
)

from conftest import plain_sweep, same_bits, scalar_two_step, scaled_problem, textbook_step


def test_scalar_two_step_golden():
    # Backward recursion by hand: X_2 = 0, X_1 = 1, X_0 = 1 + 1 - 1/2 = 1.5.
    traj = solve_full(scalar_two_step())
    assert np.allclose([X[0, 0] for X in traj.X], [1.5, 1.0, 0.0], atol=1e-12)
    assert np.allclose([K[0, 0] for K in traj.K], [0.5, 0.0], atol=1e-12)
    assert np.allclose([G[0, 0] for G in traj.G], [0.0, 0.0], atol=1e-12)
    assert abs(optimal_cost(traj, [1.0]) - 1.5) <= 1e-12


def test_riccati_map_input_checks():
    triple = scalar_two_step().triple
    with pytest.raises(ValueError):
        riccati_map(np.array([[0.0, 1.0], [0.0, 0.0]]), PopovTriple(np.eye(2), np.ones((2, 1)), np.eye(2), np.zeros((2, 1)), [[1.0]]))
    with pytest.raises(ValueError):
        riccati_map(np.eye(2), triple)


def test_uncontrolled_closed_form():
    # With B = 0 the recursion telescopes:
    #   X_t = (A^T)^{T-t} P A^{T-t} + sum_{k<T-t} (A^T)^k Q A^k
    # and the gain/projector are the constant K = R^+ S^T, G = I - R^+ R.
    rng = np.random.default_rng(4)
    for _ in range(10):
        n, m, T = 3, 2, 6
        A = rng.normal(size=(n, n)) * 0.6
        LQ = rng.normal(size=(n, n))
        Q = LQ @ LQ.T / n
        LR = rng.normal(size=(m, m))
        R = LR @ LR.T + 0.2 * np.eye(m)
        LP = rng.normal(size=(n, n))
        P = LP @ LP.T / n
        problem = LQProblem(PopovTriple(A, np.zeros((n, m)), Q, np.zeros((n, m)), R), P, T)
        traj = solve_full(problem)
        for t in range(T + 1):
            Ak = np.linalg.matrix_power(A, T - t)
            expect = Ak.T @ P @ Ak
            for k in range(T - t):
                Ak2 = np.linalg.matrix_power(A, k)
                expect = expect + Ak2.T @ Q @ Ak2
            assert np.linalg.norm(traj.X[t] - expect) <= 1e-9 * max(1.0, np.linalg.norm(expect))
        K_const = pinv(R) @ np.zeros((m, n))
        for t in range(T):
            assert np.linalg.norm(traj.K[t] - K_const) <= 1e-12
            assert np.linalg.norm(traj.G[t] - (np.eye(m) - pinv(R) @ R)) <= 1e-10


def test_iterates_stay_symmetric_psd():
    # P = 0 and a PSD weight matrix keep every iterate PSD.
    for i in range(20):
        kind = ("generic", "singular_R", "nilpotent_block")[i % 3]
        problem = random_problem(2 + i % 4, 1 + i % 2, 600 + i, kind)
        problem = LQProblem(problem.triple, np.zeros((problem.n, problem.n)), problem.T, problem.x0)
        traj = solve_full(problem)
        for X in traj.X:
            assert np.linalg.norm(X - X.T) <= 1e-12 * max(1.0, np.linalg.norm(X))
            w = np.linalg.eigvalsh(X)
            assert w.min() >= -1e-9 * max(1.0, w.max())


def test_projector_properties():
    for i in range(20):
        problem = random_problem(3, 2, 700 + i, "singular_R")
        traj = solve_full(problem)
        t3 = problem.triple
        for t in range(problem.T):
            R_X = t3.R + t3.B.T @ traj.X[t + 1] @ t3.B
            G = traj.G[t]
            assert np.linalg.norm(G @ G - G) <= 1e-9
            assert np.linalg.norm(R_X @ G) <= 1e-9 * max(1.0, np.linalg.norm(R_X))


def test_horizon_zero():
    problem = LQProblem(scalar_two_step().triple, [[2.0]], 0, [3.0])
    traj = solve_full(problem)
    assert len(traj.X) == 1 and len(traj.K) == 0
    assert abs(optimal_cost(traj, [3.0]) - 18.0) <= 1e-12


def test_solve_full_requires_valid_problem():
    bad = LQProblem(PopovTriple([[0.5]], [[1.0]], [[0.0]], [[1.0]], [[0.0]]), [[0.0]], 2)
    with pytest.raises(ProblemValidationError):
        solve_full(bad)


def test_simulate_cost_matches_quadratic_form():
    for i in range(15):
        kind = ("generic", "singular_R", "nilpotent_block")[i % 3]
        problem = random_problem(2 + i % 3, 1 + i % 2, 800 + i, kind)
        traj = solve_full(problem)
        states, inputs, cost = simulate(problem, traj)
        expect = optimal_cost(traj, problem.x0)
        assert abs(cost - expect) <= 1e-8 * (1.0 + abs(expect))
        assert states.shape == (problem.T + 1, problem.n)
        assert inputs.shape == (problem.T, problem.m)


def test_simulate_free_directions_cost_invariant():
    # A dead input channel (zero column of B, zero row/column of R) keeps
    # R_X singular at every step, so the projector admits genuinely free
    # directions: the trajectory of inputs moves, the cost must not.
    rng = np.random.default_rng(8)
    for i in range(10):
        n, m = 3, 2
        A = rng.normal(size=(n, n)) * 0.5
        B = np.zeros((n, m))
        B[:, 0] = rng.normal(size=n)
        L = rng.normal(size=(n, n))
        Q = L @ L.T / n
        R = np.diag([1.0, 0.0])
        problem = LQProblem(
            PopovTriple(A, B, Q, np.zeros((n, m)), R), np.zeros((n, n)), 5, rng.normal(size=n)
        )
        traj = solve_full(problem)
        _, inputs0, cost0 = simulate(problem, traj)
        v = [rng.normal(size=m) for _ in range(problem.T)]
        _, inputs1, cost1 = simulate(problem, traj, v=v)
        assert abs(cost1 - cost0) <= 1e-7 * (1.0 + abs(cost0))
        assert np.linalg.norm(inputs1 - inputs0) > 1e-6, "free direction did not move the input"


def test_simulate_cost_matches_per_step_sum():
    # The stage costs are summed in stacked products after the forward
    # loop; the per-step sum over the returned states and inputs is the
    # reference, with a cross weight S != 0 and with free inputs v.
    rng = np.random.default_rng(21)
    cases = [
        _with_cross_weight(random_problem(20, 2, 42, "nilpotent_block", horizon=50, nilpotent_dim=15), rng),
        _with_cross_weight(random_problem(12, 2, 3, "nilpotent_block", horizon=84, nilpotent_dim=2), rng),
        _with_cross_weight(random_problem(4, 2, 903, "singular_R", horizon=20), rng),
    ]
    for problem in cases:
        t3 = problem.triple
        traj = solve_full(problem)
        for v in (None, [rng.normal(size=problem.m) for _ in range(problem.T)]):
            states, inputs, cost = simulate(problem, traj, v=v)
            want = 0.0
            for x, u in zip(states[:-1], inputs):
                want += float(x @ t3.Q @ x + 2.0 * x @ t3.S @ u + u @ t3.R @ u)
            want += float(states[-1] @ problem.P @ states[-1])
            assert abs(cost - want) <= 1e-13 * abs(want), (problem.n, v is None)


def test_simulate_needs_initial_state():
    problem = scalar_two_step()
    problem = LQProblem(problem.triple, problem.P, problem.T)  # drop x0
    traj = solve_full(problem)
    with pytest.raises(ValueError, match="initial state"):
        simulate(problem, traj)
    with pytest.raises(ValueError, match="x0"):
        simulate(problem, traj, x0=[1.0, 2.0])


def test_simulate_horizon_mismatch():
    p1 = scalar_two_step()
    p2 = LQProblem(p1.triple, p1.P, 3, [1.0])
    with pytest.raises(ValueError, match="horizon"):
        simulate(p2, solve_full(p1))


def _count_factorisations(monkeypatch):
    """Patch the curvature's factorisations, all taken by
    grde._certified_inverse, to record them: calls gets one entry per
    factorisation kept, the number of slices pinv'd with None, or 1 with
    the matrix where grde keeps a certified inverse, a stacked verdict
    slice by slice; attempts gets every matrix grde asks linalg._lu_inverse
    to invert, certified or not."""
    calls, attempts = [], []

    def counting_pinv(A):
        calls.append((int(np.prod(A.shape[:-2])), None))
        return linalg._pinv(A)

    def counting_inv(A):
        attempts.append(A)
        return linalg._lu_inverse(A)

    def counting_certificate(A, scale=0.0, A_inv=None):
        certified = linalg._certified_nonsingular(A, scale, A_inv)
        calls.extend((1, A_s) for A_s, c in zip(A.reshape(-1, *A.shape[-2:]), np.ravel(certified)) if c)
        return certified

    monkeypatch.setattr(grde, "_pinv", counting_pinv)
    monkeypatch.setattr(grde, "_certified_nonsingular", counting_certificate)
    monkeypatch.setattr(grde, "_lu_inverse", counting_inv)
    return calls, attempts


def _svd_only_sweep(monkeypatch, problem):
    """The plain sweep's X, K and G with every curvature pinv'd by the SVD."""
    with monkeypatch.context() as patch:
        patch.setattr(grde, "_certified_nonsingular", lambda A, scale=0.0, A_inv=None: np.zeros(A.shape[:-2], bool))
        return plain_sweep(problem)


def test_one_curvature_factorisation_per_step(monkeypatch):
    # Every solver factorises the curvature once per step, through
    # grde._certified_inverse: the Schur-complement step keeps one pinv or,
    # where the curvature is certified of full rank, one inverse, and so
    # does each step of the closed form's Woodbury sweep.  closed_loop
    # takes its residual, gain and kernel condition from one.
    calls, _ = _count_factorisations(monkeypatch)
    problem = random_problem(4, 2, 41, "singular_R", horizon=9)
    solve_full(problem)
    assert sum(c for c, _ in calls) == problem.T
    calls.clear()
    cgdare.closed_loop(np.eye(problem.n), problem.triple)
    assert sum(c for c, _ in calls) == 1

    problem = random_problem(6, 2, 42, "nilpotent_block", horizon=12, nilpotent_dim=3)
    rd = reduction.build_reduction(problem, cgdare.find_reference(problem).solution)
    assert 1 <= rd.nu < problem.T
    for solve in (reduction.solve_hybrid, closedform.solve_closed_form):
        calls.clear()
        assert not solve(problem, rd).used_fallback
        assert sum(c for c, _ in calls) == problem.T, solve.__name__
        assert any(A is not None for _, A in calls), solve.__name__
        # nu full steps, then one per phase-two step: no stacked pinv.
        assert len(calls) == problem.T, solve.__name__

    # The closed form's sweep inverts, solves and decomposes nothing of the
    # reduced block's size d, only each step's m x m curvature.
    d, m = rd.dim_reduced, problem.m
    assert d > m
    shapes = []
    spied = [(np.linalg, "inv"), (np.linalg, "solve"), (np.linalg, "svd"), (grde, "_lu_inverse"), (linalg, "_lu_inverse")]
    for module, name in spied:
        def recording(A, *args, _f=getattr(module, name), **kwargs):
            shapes.append(np.shape(A))
            return _f(A, *args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    calls.clear()
    steps = problem.T - rd.nu
    Psi, _, _ = closedform._gramian_rule(-0.1 * np.eye(d), steps, rd, lambda psi: False)
    assert len(Psi) == steps + 1 and [c for c, _ in calls] == [1] * steps
    assert shapes and all(shape == (m, m) for shape in shapes), shapes


# The benchmark's workload shapes: headline_dead_psi, live_psi, wide_generic
# and corpus_5x2's three kinds, as (n, m, kind, T, nilpotent_dim).
BENCH_SHAPES = (
    (20, 2, "nilpotent_block", 500, 15),
    (12, 2, "nilpotent_block", 500, 2),
    (50, 5, "generic", 200, None),
    (5, 2, "generic", 20, None),
    (5, 2, "singular_R", 20, None),
    (5, 2, "nilpotent_block", 20, None),
)


@pytest.mark.parametrize("n, m, kind, T, nilpotent_dim", BENCH_SHAPES)
def test_certified_steps_keep_every_singular_value(monkeypatch, n, m, kind, T, nilpotent_dim):
    # A step keeps its curvature's inverse only where the SVD would keep
    # all m singular values, at every weight scale, on the full sweep and
    # on both phases of the hybrid; a singular R with a non-singular
    # curvature is certified like any other.  Each of solve_full's T steps
    # is either computed, with its inverse kept, or replayed.
    calls, _ = _count_factorisations(monkeypatch)
    base = random_problem(n, m, 1, kind, horizon=T, nilpotent_dim=nilpotent_dim)
    for c in (1.0, 1e6, 1e-6):
        problem = scaled_problem(base, c)
        calls.clear()
        traj = solve_full(problem)
        # Every step solve_full computes keeps a certified inverse; the
        # others replay its float cycle and share a computed step's gain.
        computed, replayed = len(calls), T - len({id(K) for K in traj.K})
        assert all(A is not None for _, A in calls), c
        assert computed + replayed == T, c
        search = cgdare.find_reference(problem)
        assert search.found, c
        reduction.solve_hybrid(problem, reduction.build_reduction(problem, search.solution))
        certified = [A for _, A in calls if A is not None]
        assert all(linalg.numerical_rank(A) == m for A in certified), c


def test_certificate_boundary_is_sharp(monkeypatch):
    # With R = diag(1, delta) and P = 0 the terminal step's curvature is R
    # itself, at X_T = 0, and its inverse certifies it exactly where
    # delta > 2 RANK_REL m ||R||_F = 4e-10.  Just below, that one failed
    # attempt makes the whole sweep take the SVD, and solve_full is the
    # SVD-only sweep bit for bit; just above, every step is certified, and
    # the SVD keeps both singular values of each.
    base = random_problem(4, 2, 5, "generic", horizon=10)
    t = base.triple
    threshold = 2.0 * linalg.RANK_REL * 2
    calls, attempts = _count_factorisations(monkeypatch)
    for delta, certified in ((threshold * (1.0 - 1e-6), 0), (threshold * (1.0 + 1e-6), base.T)):
        triple = PopovTriple(t.A, t.B, t.Q, np.zeros((4, 2)), np.diag([1.0, delta]))
        problem = LQProblem(triple, np.zeros((4, 4)), base.T)
        calls.clear()
        attempts.clear()
        traj = solve_full(problem)
        inverted = [A for _, A in calls if A is not None]
        assert len(inverted) == certified and len(attempts) == max(certified, 1), delta
        assert all(linalg.numerical_rank(A) == 2 for A in inverted), delta
        assert same_bits(traj, plain_sweep(problem)), delta
        if not certified:
            assert same_bits(traj, _svd_only_sweep(monkeypatch, problem)), delta


@pytest.mark.parametrize("n, m, kind, T, nilpotent_dim", BENCH_SHAPES)
def test_step_rounds_as_the_out_of_place_formula(n, m, kind, T, nilpotent_dim):
    # _schur_step adds Pi into its product and writes W11 - W12 L into the
    # buffer of W12 L: the same IEEE operations on the same operands as the
    # formula's fresh arrays, so a certified step's X_prev and K are its
    # bits.  plain_sweep calls _schur_step itself and cannot see a rounding
    # moved inside it.
    problem = random_problem(n, m, 1, kind, horizon=T, nilpotent_dim=nilpotent_dim)
    t, certified = problem.triple, 0
    for X_next in solve_full(problem).X[1:]:
        X_prev, K, _, _, ok = grde._schur_step(X_next, t.AB, t.Pi)
        if ok:
            want = textbook_step(X_next, t.AB, t.Pi)
            assert np.array_equal(X_prev, want[0]) and np.array_equal(K, want[1])
            certified += 1
    assert certified


def test_sweep_holds_the_trajectory_and_one_step():
    # On top of the T + 1 X's, T K's and T G's it returns, a sweep holds one
    # step's Popov block W ((n + m)^2), one X M product (n (n + m)), the two
    # (T, m, m) stacks of R_X and its inverse and the G stack's product:
    # the peak read 1.05x the output here, and 1.25x leaves room for the
    # lists.  A sweep that keeps a view of each step's curvature pins that
    # step's whole W, and peaked at 2.1x the output here.
    problem = random_problem(50, 5, 1, "generic", horizon=200)
    tracemalloc.start()
    try:
        traj = solve_full(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = {id(a): a.nbytes for f in (traj.X, traj.K, traj.G) for a in f}
    assert peak <= 1.25 * sum(held.values())


# (n, m, kind, seed, T, nilpotent_dim): the benchmark's shapes at seeds where
# solve_full repeats a state partway through, and the two other corpus
# kinds, which hold no repeat at their seed.
REPLAY_CASES = (
    (20, 2, "nilpotent_block", 2, 500, 15),
    (20, 2, "nilpotent_block", 3, 500, 15),
    (12, 2, "nilpotent_block", 6, 500, 2),
    (5, 2, "generic", 7, 20, None),
    (5, 2, "singular_R", 1, 20, None),
    (5, 2, "nilpotent_block", 1, 20, None),
)


@pytest.mark.parametrize("n, m, kind, seed, T, nilpotent_dim", REPLAY_CASES)
def test_solve_full_is_the_plain_sweep_bit_for_bit(n, m, kind, seed, T, nilpotent_dim):
    problem = random_problem(n, m, seed, kind, horizon=T, nilpotent_dim=nilpotent_dim)
    assert same_bits(solve_full(problem), plain_sweep(problem))


def test_solve_full_replays_its_float_cycle(monkeypatch):
    # On a headline-shape problem the sweep reaches a state it held before
    # within a few dozen steps.  The rest of the horizon repeats the cycle
    # between the two, bit for bit, from shared read-only arrays, with no
    # factorisation; a sweep with a stop rule replays nothing.
    problem = random_problem(20, 2, 3, "nilpotent_block", horizon=500, nilpotent_dim=15)
    calls, _ = _count_factorisations(monkeypatch)
    traj = solve_full(problem)
    computed = len(calls)
    assert computed < problem.T // 10
    assert len({id(K) for K in traj.K}) == computed
    replayed = traj.X[: problem.T - computed]
    assert not any(X.flags.writeable for X in replayed + traj.K[: problem.T - computed])
    assert traj.X[-1].flags.writeable
    assert same_bits(traj, plain_sweep(problem))
    calls.clear()
    t = problem.triple
    _, L, _, _ = grde._sweep(grde.symmetrize(problem.P), t.AB, t.Pi, problem.T, lambda norm: False)
    assert len(calls) == len(L) == problem.T and all(K.flags.writeable for K in L)


def _certificates(monkeypatch, fail_at=None):
    """Patch grde's certificate to record each call as (stacked, slices),
    a single matrix as (False, 1), and to refuse the step fail_at, counting
    the slices of all calls in order as steps: the plain loop and the sweep
    both ask for steps 0, 1, ... in turn until one fails."""
    calls = []

    def certificate(A, scale=0.0, A_inv=None):
        verdict = linalg._certified_nonsingular(A, scale, A_inv)
        first = sum(c for _, c in calls)
        calls.append((A.ndim > 2, len(A) if A.ndim > 2 else 1))
        if fail_at is None:
            return verdict
        if A.ndim > 2:
            return verdict & (np.arange(first, first + len(A)) != fail_at)
        return verdict and first != fail_at

    monkeypatch.setattr(grde, "_certified_nonsingular", certificate)
    return calls


def _lift_problem(r2, lift=(1.0, 1.0, 1.0), T=12):
    """Two decoupled parts: a stable pair driven by input 1, and a 3-chain
    driven by input 2 at its last coordinate, whose terminal weights lift
    A shifts out one coordinate a step.  With R = diag(1, r2) and S = 0 the
    curvature is diag(c, r2 + x), x the last chain weight: lift[2], lift[1]
    and lift[0] at steps 0, 1 and 2, exactly 0 from step 3 on."""
    A = np.zeros((5, 5))
    A[:2, :2] = [[0.9, 0.2], [0.0, 0.5]]
    A[2, 3] = A[3, 4] = 1.0
    B = np.zeros((5, 2))
    B[:2, 0] = [1.0, 0.5]
    B[4, 1] = 1.0
    Q, P = np.diag([1.0, 1.0, 0.0, 0.0, 0.0]), np.diag([0.0, 0.0, *lift])
    return LQProblem(PopovTriple(A, B, Q, np.zeros((5, 2)), np.diag([1.0, r2])), P, T)


def _run_against_plain(monkeypatch, problem, fail_at=None):
    """solve_full and conftest.plain_sweep under np.errstate(all="raise"),
    each with its certificate calls (see _certificates) and its LU attempts."""
    runs = []
    for solve in (solve_full, plain_sweep):
        with monkeypatch.context() as patch:
            _, attempts = _count_factorisations(patch)
            calls = _certificates(patch, fail_at)
            with np.errstate(all="raise"):
                got = solve(problem)
        runs.append((got, calls, len(attempts)))
    (traj, calls, attempts), (want, _, plain_attempts) = runs
    assert same_bits(traj, want)
    return calls, attempts - plain_attempts


def test_curvature_that_loses_its_certificate_after_step_0(monkeypatch):
    # r2 = 1e-10 is under the certificate's threshold 4e-10 c: steps 0-2
    # are certified, step 3 is not.  The sweep inverts every step by LU,
    # and its one stacked check at the end returns it to step 3, which it
    # redoes by the SVD, as the plain loop does from there.  The waste is
    # the LU inverses of the steps after 3, fewer than the steps checked.
    problem = _lift_problem(1e-10)
    calls, extra = _run_against_plain(monkeypatch, problem)
    assert calls == [(False, 1), (True, problem.T - 1)]
    assert extra == problem.T - 4 <= calls[1][1]


@pytest.mark.parametrize("lift, extra_inverses", [((1.0, 1.0, 1.0), 0), ((1.0, 1e-10, 1.0), 2)])
def test_singular_curvature_after_certified_steps(monkeypatch, lift, extra_inverses):
    # r2 = 0: step 3's curvature diag(c, 0) is exactly singular, and its LU
    # factorisation fails.  The sweep then checks steps 1 and 2 and goes
    # on from the first that fails, by the SVD: from step 3 where both
    # pass, with no LU inverse wasted, and from step 1 where its lift
    # 1e-10 is under the threshold, with the inverses of steps 2 and 3.
    problem = _lift_problem(0.0, lift)
    calls, extra = _run_against_plain(monkeypatch, problem)
    assert calls == [(False, 1), (True, 2)] and extra == extra_inverses


@pytest.mark.parametrize("lift", [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])
def test_sweep_passes_on_a_failed_svd(monkeypatch, lift):
    # The sweep catches only the LinAlgError of an LU inverse it keeps
    # unchecked; one from the SVD reaches the caller, as from the plain
    # loop, whether step 0 takes the SVD (no lift: its curvature is
    # singular) or the redo after step 3's LU factorisation fails.
    def failing_svd(A):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(grde, "_pinv", failing_svd)
    with pytest.raises(np.linalg.LinAlgError, match="SVD"):
        solve_full(_lift_problem(0.0, lift))


def test_sweep_without_inputs():
    # m = 0: each curvature is 0 x 0 and so is its LU inverse, which a sweep
    # long enough to check its steps together tests for NaN without reading
    # an entry.  With A, Q and P the identity, X_t = (T - t + 1) I exactly.
    T = 2 * grde._STACKED_FROM
    triple = PopovTriple(np.eye(2), np.zeros((2, 0)), np.eye(2), np.zeros((2, 0)), np.zeros((0, 0)))
    traj = solve_full(LQProblem(triple, np.eye(2), T))
    assert all(np.array_equal(X, (T - t + 1) * np.eye(2)) for t, X in enumerate(traj.X))
    assert all(K.shape == (0, 2) for K in traj.K) and all(G.shape == (0, 0) for G in traj.G)


def test_unchecked_step_that_overflows_raises_nothing():
    # Step 0's curvature is I; the swap A moves the weight out of B's
    # block, so step 1's curvature is Q's block [[t, t], [t, t (1 + 1e-10)]],
    # t = 1e-290, of condition 4e10, past the certificate.  Its LU inverse,
    # about 1e300, times Q's cross terms 1e5 overflows the step's products,
    # where the plain loop's SVD drops the small singular value.  The
    # indefinite Q stands for phase two's indefinite Psi.  Under
    # np.errstate(all="raise") a sweep long enough to check its steps
    # together raises nothing and returns the plain loop's X bit for bit.
    A = np.zeros((4, 4))
    A[0, 2] = A[1, 3] = A[2, 0] = A[3, 1] = 1.0
    M = np.hstack([A, np.eye(4)[:, :2]])
    t = 1e-290
    Pi = np.zeros((6, 6))
    Pi[:2, :2] = [[t, t], [t, t * (1.0 + 1e-10)]]
    Pi[0, 2] = Pi[2, 0] = 1e5
    Pi[1, 3] = Pi[3, 1] = -1e5
    X, certify = [np.diag([1.0, 1.0, 0.0, 0.0])], True
    with np.errstate(all="raise"):
        for _ in range(grde._STACKED_FROM):
            X_prev, _, _, _, certify = grde._schur_step(X[-1], M, Pi, certify)
            X.append(X_prev)
        got = grde._sweep(X[0], M, Pi, grde._STACKED_FROM)[0]
    assert not certify and len(got) == len(X)
    assert all(np.array_equal(a, b) for a, b in zip(got, X))


@pytest.mark.parametrize("fail_at", [1, 7, 19])
def test_check_before_a_replay_returns_to_the_failed_step(monkeypatch, fail_at):
    # The headline problem that replays after a few dozen steps, with the
    # certificate made to refuse one step: the check before the replay
    # finds it, the sweep goes on from there by the SVD, and the trajectory
    # is the plain loop's with the same refusal.  Every step up to the
    # replay is checked in that one call.
    problem = random_problem(20, 2, 3, "nilpotent_block", horizon=500, nilpotent_dim=15)
    calls, extra = _run_against_plain(monkeypatch, problem, fail_at)
    (single, _), (stacked, checked) = calls
    assert not single and stacked and fail_at < checked < problem.T - 1
    assert extra == checked - fail_at <= checked


def test_sweep_certifies_in_at_most_three_calls(monkeypatch):
    # Where every curvature certifies, a sweep of grde._STACKED_FROM steps
    # or more asks for step 0's certificate alone and for the other steps'
    # in stacked calls, before its replay or at its end: at most three calls
    # a sweep, on the full sweep that replays, the one that does not, and
    # each phase of the hybrid solve, live_psi's phase two cut short by its
    # tail after 32 steps and headline's at once.  A shorter sweep checks
    # each step in the step, as the plain loop does.
    calls, sweeps, sweep = _certificates(monkeypatch), [], grde._sweep

    def recording(X_end, M, Pi, steps, stop=None):
        sweeps.append((len(calls), steps))
        return sweep(X_end, M, Pi, steps, stop)

    monkeypatch.setattr(grde, "_sweep", recording)
    monkeypatch.setattr(reduction, "_sweep", recording)
    for n, seed, nilpotent_dim in ((20, 3, 15), (12, 1, 2)):
        problem = random_problem(n, 2, seed, "nilpotent_block", horizon=500, nilpotent_dim=nilpotent_dim)
        rd = reduction.build_reduction(problem, cgdare.find_reference(problem).solution)
        calls.clear()
        sweeps.clear()
        traj = solve_full(problem)
        result = reduction.solve_hybrid(problem, rd)
        assert not result.used_fallback
        phase_two = result.reduced_steps - result.tail_steps
        ends = [start for start, _ in sweeps[1:]] + [len(calls)]
        taken = []
        for (start, steps), end in zip(sweeps, ends):
            made = calls[start:end]
            taken.append(sum(c for _, c in made))
            if steps >= grde._STACKED_FROM:
                assert len(made) <= 3 and [s for s, _ in made] == [False, True, True][: len(made)]
            else:
                assert made == [(False, 1)] * len(made)
        assert taken == [len({id(K) for K in traj.K}), rd.nu, phase_two]


@pytest.mark.parametrize("collide", [False, True])
def test_sweep_state_is_the_certify_flag_and_the_exact_bits(monkeypatch, collide):
    # A state repeats only with the same flag and the same bits: equal
    # values with other bits (0.0 and -0.0) are another state, and so is
    # the same X after a curvature failed its certificate.  With every
    # hash colliding, the byte-for-byte confirmation alone tells them apart.
    if collide:
        monkeypatch.setattr(grde, "hash", lambda key: 0, raising=False)
    X = np.array([[1.0, 0.0], [0.0, 2.0]])
    Y = np.array([[1.0, -0.0], [-0.0, 2.0]])
    assert np.array_equal(X, Y)
    states = grde._States()
    assert states.repeat([X], True) is None
    assert states.repeat([X, Y], True) is None
    assert states.repeat([X, Y, X.copy()], False) is None
    assert states.repeat([X, Y, X, X.copy()], True) == 0
    assert states.repeat([X, Y, X, X, Y.copy()], True) == 1
    assert states.repeat([X, Y, X, X, Y, X.copy()], False) == 2


def test_singular_R_with_regular_curvature_takes_the_inverse(monkeypatch):
    # The paper's case: R is singular, but B^T X B fills its kernel, so
    # every curvature R + B^T X B is certified and inverted by LU, and the
    # trajectory is the SVD-only sweep's to rounding.
    problem = random_problem(5, 2, 1, "singular_R", horizon=20)
    assert linalg.numerical_rank(problem.triple.R) < problem.m
    calls, attempts = _count_factorisations(monkeypatch)
    traj = solve_full(problem)
    assert len(attempts) == problem.T
    assert [c for c, A in calls if A is not None] == [1] * problem.T
    for field, want in zip("XKG", _svd_only_sweep(monkeypatch, problem)):
        for a, b in zip(getattr(traj, field), want):
            assert np.linalg.norm(a - b) <= 1e-13 * max(1.0, np.linalg.norm(b)), field


def test_curvature_that_stays_singular_costs_one_inverse_per_sweep(monkeypatch):
    # An input that moves neither state nor cost (B v = 0, R v = 0, S v = 0)
    # leaves every curvature singular.  The first failed inverse makes the
    # rest of the sweep take the SVD, and the search's steps to its base,
    # whose curvatures are known singular, try none.
    base = random_problem(4, 2, 7, "generic", horizon=30)
    t = base.triple
    B, R, S = t.B.copy(), t.R.copy(), t.S.copy()
    B[:, 1], R[:, 1], R[1, :], S[:, 1] = 0.0, 0.0, 0.0, 0.0
    problem = LQProblem(PopovTriple(t.A, B, t.Q, S, R), base.P, base.T)
    calls, attempts = _count_factorisations(monkeypatch)
    traj = solve_full(problem)
    assert len(attempts) == 1 and not [A for _, A in calls if A is not None]
    assert all(G[1, 1] == 1.0 for G in traj.G)
    attempts.clear()
    search = cgdare.find_reference(problem)
    assert search.found and "from X_4, 1 of 2 inputs compressed out" in search.message
    # One, closed_loop's look at the doubled X.
    assert len(attempts) == 1
    rd = reduction.build_reduction(problem, search.solution)
    attempts.clear()
    result = reduction.solve_hybrid(problem, rd)
    assert not result.used_fallback
    assert len(attempts) == (rd.nu > 0) + (rd.nu < problem.T)


def test_overflowing_inverse_is_not_certified_and_does_not_warn(monkeypatch):
    # R = diag(1, 1e-200): the terminal curvature's inverse holds 1e200,
    # whose squared norm overflows.  The certificate reads it without a
    # RuntimeWarning (an error under this suite) and certifies nothing.
    base = random_problem(4, 2, 5, "generic", horizon=10)
    t = base.triple
    triple = PopovTriple(t.A, t.B, t.Q, np.zeros((4, 2)), np.diag([1.0, 1e-200]))
    assert not linalg._certified_nonsingular(triple.R)
    problem = LQProblem(triple, np.zeros((4, 4)), base.T)
    calls, attempts = _count_factorisations(monkeypatch)
    with np.errstate(all="raise"):
        traj = solve_full(problem)
    assert len(attempts) == 1 and not [A for _, A in calls if A is not None]
    assert all(np.isfinite(X).all() for X in traj.X)


def test_indefinite_iterate_keeps_the_pseudo_inverse():
    # riccati_map, gain_and_projector and closed_loop take any symmetric X,
    # so they never certify: at X = -1 the curvature R + B^T X B = 1 - 1 is
    # exactly zero although R = 1 > 0, and pinv(0) = 0 gives
    # X_prev = A^T X A + Q, K = 0 and G = 1 without an error or an inf.
    triple = PopovTriple([[0.5]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])
    X = -np.eye(1)
    with np.errstate(all="raise"):
        X_prev = riccati_map(X, triple)
        K, G = gain_and_projector(X, triple)
        sol = cgdare.closed_loop(X, triple)
    assert X_prev[0, 0] == 0.75
    assert K[0, 0] == 0.0 and G[0, 0] == 1.0
    assert sol.K_X[0, 0] == 0.0 and sol.G_X[0, 0] == 1.0 and sol.R_X[0, 0] == 0.0


def _with_cross_weight(problem, rng):
    """The problem with [a; R w][a; R w]^T added to its weight matrix.

    The weight stays positive semidefinite and ker R does not move, so the
    problem keeps its kind, but S becomes nonzero wherever R is.
    """
    t3 = problem.triple
    a = rng.normal(size=problem.n)
    b = t3.R @ rng.normal(size=problem.m)
    triple = PopovTriple(t3.A, t3.B, t3.Q + np.outer(a, a), t3.S + np.outer(a, b), t3.R + np.outer(b, b))
    return LQProblem(triple, problem.P, problem.T, problem.x0)


def test_gains_match_their_definition():
    rng = np.random.default_rng(12)
    for kind in ("generic", "singular_R", "nilpotent_block"):
        checked = 0
        for seed in range(900, 912):
            problem = _with_cross_weight(random_problem(4, 2, seed, kind, horizon=8), rng)
            t3 = problem.triple
            if not np.any(t3.S):
                continue  # singular_R with R = 0 forces S = 0
            traj = solve_full(problem)
            for t in range(problem.T):
                X = traj.X[t + 1]
                R_X = t3.R + t3.B.T @ X @ t3.B
                S_X = t3.A.T @ X @ t3.B + t3.S
                K = pinv(R_X) @ (t3.S.T + t3.B.T @ X @ t3.A)
                G = np.eye(problem.m) - pinv(R_X) @ R_X
                X_t = t3.A.T @ X @ t3.A - S_X @ pinv(R_X) @ S_X.T + t3.Q
                assert np.linalg.norm(traj.X[t] - X_t) <= 1e-12 * (1.0 + np.linalg.norm(X_t)), (kind, seed, t)
                assert np.linalg.norm(traj.K[t] - K) <= 1e-12 * (1.0 + np.linalg.norm(K)), (kind, seed, t)
                assert np.linalg.norm(traj.G[t] - G) <= 1e-12 * (1.0 + np.linalg.norm(G)), (kind, seed, t)
            checked += 1
        assert checked >= 8, kind


def test_gain_and_projector_shapes():
    problem = random_problem(4, 2, 31)
    K, G = gain_and_projector(np.eye(4), problem.triple)
    assert K.shape == (2, 4)
    assert G.shape == (2, 2)


def test_trajectory_json_shape():
    import json

    traj = solve_full(scalar_two_step())
    doc = json.loads(trajectory_to_json(traj))
    assert doc["T"] == 2
    assert len(doc["X"]) == 3 and len(doc["K"]) == 2 and len(doc["G"]) == 2
    assert doc["X"][0] == [[1.5]]


def test_trajectory_json_text_pinned():
    # The trajectory file shares the problem file's matrix layout and
    # 17-digit number format; the text is pinned byte for byte.
    traj = GrdeTrajectory(
        X=(np.array([[1.0 / 3.0, 0.1], [0.1, 2.0]]), np.array([[-1e-20, 0.0], [0.0, 12345.678]])),
        K=(np.array([[0.5, -2.0 / 7.0]]),),
        G=(np.array([[0.0]]),),
    )
    assert trajectory_to_json(traj) == (
        '{\n  "T": 1,\n  "X": [\n    [\n      [0.33333333333333331, 0.10000000000000001],\n'
        '      [0.10000000000000001, 2]\n    ],\n    [\n      [-9.9999999999999995e-21, 0],\n'
        '      [0, 12345.678]\n    ]\n  ],\n  "K": [\n    [\n      [0.5, -0.2857142857142857]\n'
        '    ]\n  ],\n  "G": [\n    [\n      [0]\n    ]\n  ]\n}\n'
    )
    empty = GrdeTrajectory(X=(np.eye(1),), K=(), G=())
    assert trajectory_to_json(empty) == (
        '{\n  "T": 0,\n  "X": [\n    [\n      [1]\n    ]\n  ],\n  "K": [],\n  "G": []\n}\n'
    )

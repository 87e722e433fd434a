"""Workloads, routes and correctness gate of the griccati benchmark.

Everything here calls the package's public functions from outside; the
package itself is never patched.  Each call sits inside ``tracer.span``, so
the timed run (a ``NullTracer``) and the traced run (a ``Tracer``) execute
the same code.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from griccati import cgdare, closedform, grde, linalg, model, oracle, pencil, reduction

# Gate limits: the X tolerance and the relative-difference formula are those
# of `griccati bench`, the cost tolerance that of `griccati verify`.
X_REL_LIMIT = 1e-8
COST_REL_LIMIT = 1e-6
# The batch-QP cost is gated on corpus_5x2 only.  At the long workloads'
# verify horizons H = Gamma^T Qbar Gamma is built from powers of A with
# spectral radius up to 1.1; on live_psi (T = 84) cond(H) reaches 4e9 and the
# QP cost can be off by 50 % while recursion and simulation agree to 1e-15.
# There the disagreements are counted and reported, not gated.

# The batch QP of `verify` holds ((T+1) n)^2 doubles, 0.3-0.8 GB at the long
# horizons, so verify runs at the horizon min(T, 1024 // n - 1), which keeps
# that matrix at 8 MB.  The corpus (n = 5, T <= 20) is verified unchanged.
VERIFY_STATE_STACK = 1024

ROUTES = ("solve_full", "solve_reduced", "solve_closed_form", "verify", "analyze")
CORPUS_KINDS = ("generic", "singular_R", "nilpotent_block")


@dataclass(frozen=True)
class Workload:
    name: str
    # Distinct problems generated per run, cycled through while measuring.  Run
    # medians move with the pool's mix of reference-search lengths and refusal
    # points, so each pool is as large as fits in a run: one pass through it,
    # plus the whole-process timings, takes at most about 80 % of the 30 s run.
    pool: int
    qp_gated: bool  # whether the batch-QP cost is part of the correctness gate
    make: Callable[[int, int], model.LQProblem]  # (problem seed, index) -> problem


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "headline_dead_psi",
            48,
            False,
            lambda s, i: model.random_problem(20, 2, s, "nilpotent_block", horizon=500, nilpotent_dim=15),
        ),
        Workload(
            "live_psi",
            48,
            False,
            lambda s, i: model.random_problem(12, 2, s, "nilpotent_block", horizon=500, nilpotent_dim=2),
        ),
        Workload("wide_generic", 24, False, lambda s, i: model.random_problem(50, 5, s, "generic", horizon=200)),
        # Each kind cycles through the horizons 1..20, so every seed has the same
        # mix of horizons: a seed-drawn mix moved the median solve time by 10 %.
        Workload(
            "corpus_5x2",
            200,
            True,
            lambda s, i: model.random_problem(5, 2, s, CORPUS_KINDS[i % 3], horizon=1 + (i // 3) % 20),
        ),
    )
}


def problem_seed(seed: int, index: int) -> int:
    # Pools are at most 200 long, so distinct run seeds never share problems.
    return seed * 100_003 + index


def generate(workload: Workload, seed: int):
    """The workload's problems for a run seed, with each generation time in ns."""
    problems, gen_ns = [], []
    for i in range(workload.pool):
        t0 = time.perf_counter_ns()
        problems.append(workload.make(problem_seed(seed, i), i))
        gen_ns.append(time.perf_counter_ns() - t0)
    return problems, gen_ns


def digest(problems) -> str:
    """Hash of the generated inputs, to show that a seed reproduces them."""
    h = hashlib.sha256()
    for p in problems:
        t3 = p.triple
        for M in (t3.A, t3.B, t3.Q, t3.S, t3.R, p.P, p.x0):
            h.update(np.ascontiguousarray(M).tobytes())
        h.update(str(p.T).encode())
    return h.hexdigest()[:16]


def verify_problem(problem: model.LQProblem) -> model.LQProblem:
    return replace(problem, T=min(problem.T, VERIFY_STATE_STACK // problem.n - 1))


def analyze_z_samples():
    """The determinant sample points `griccati analyze` draws with its default seed."""
    rng = model.Xorshift64Star(0)
    return [rng.interval(-2.0, 2.0) for _ in range(20)]


class NullTracer:
    problem = None

    def span(self, name):
        return nullcontext()


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent index, problem id]."""

    def __init__(self):
        self.spans = []
        self.problem = None
        self._open = []

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter_ns(), 0, self._open[-1] if self._open else -1, self.problem]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._open.pop()

    def self_times(self):
        """(route, name, self ns) per span; self = duration minus its children's."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = []
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            root = i
            while self.spans[root][3] >= 0:
                root = self.spans[root][3]
            out.append((self.spans[root][0], name, end - start - child_ns[i]))
        return out


@dataclass
class PassResult:
    """One problem taken through every route."""

    route_ns: dict  # raw ns per route
    route_cal: dict  # per route, in units of the calibration kernel's time
    calibration_ns: list  # the kernel runs around the routes
    fingerprint: tuple  # (found, nu, dim U, dim reduced, hybrid fallback, closed-form refusal)
    facts: dict  # per-layer counts
    gate_failures: list


def _max_rel_x(a, b) -> float:
    return max(float(np.linalg.norm(Xa - Xb) / (1.0 + np.linalg.norm(Xa))) for Xa, Xb in zip(a.X, b.X))


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def _calibration_data():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 12))
    A *= 0.9 / max(abs(np.linalg.eigvals(A)))
    return A, rng.standard_normal((12, 2)), np.eye(12), np.eye(2)


_CALIBRATION = _calibration_data()


def calibration_ns() -> int:
    """Time one fixed piece of work of the kind the solvers do, in ns.

    Twenty steps of a 12-state, 2-input Riccati recursion written directly in
    numpy: small products, a 2 x 2 SVD and Python dispatch, and no griccati
    code, so a change to the package cannot move it.  The machine's speed
    drifts by 15-30 % within a minute, and this kernel drifts with it, so
    each measurement is divided by the kernel's time measured beside it.
    """
    A, B, Q, R = _CALIBRATION
    t0 = time.perf_counter_ns()
    X = Q
    for _ in range(20):
        S_X = A.T @ X @ B
        X = A.T @ X @ A - S_X @ np.linalg.pinv(R + B.T @ X @ B) @ S_X.T + Q
        X = 0.5 * (X + X.T)
    return time.perf_counter_ns() - t0


class PassClock:
    """Times the routes of one pass, running the calibration kernel before each route and after the last."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.route_ns = {}
        self.calibration_ns = []

    @contextmanager
    def route(self, name):
        self.calibration_ns.append(calibration_ns())
        t0 = time.perf_counter_ns()
        with self.tracer.span("route." + name):
            yield
        self.route_ns[name] = time.perf_counter_ns() - t0

    def close(self):
        self.calibration_ns.append(calibration_ns())

    def calibrated(self) -> dict:
        """Each route's time in calibration-kernel units, against the mean of the two kernel runs around it."""
        c = self.calibration_ns
        return {name: ns / (0.5 * (c[i] + c[i + 1])) for i, (name, ns) in enumerate(self.route_ns.items())}


def run_pipeline(problem, verify_p, z_samples, tracer, qp_gated) -> PassResult:
    """Take one problem through every route the CLI offers, then gate the answers.

    The routes follow `griccati solve` (all three methods), `verify` and
    `analyze`; only the gate, outside the timed routes, is the benchmark's own.
    """
    sp = tracer.span
    clock = PassClock(tracer)
    with clock.route("solve_full"):
        with sp("grde.solve_full"):
            full = grde.solve_full(problem)

    hyb = None
    with clock.route("solve_reduced"):
        with sp("cgdare.find_reference"):
            ref = cgdare.find_reference(problem)
        if ref.found:
            with sp("reduction.build_reduction"):
                rd = reduction.build_reduction(problem, ref.solution)
            with sp("reduction.solve_hybrid"):
                hyb = reduction.solve_hybrid(problem, rd)
            reduced = hyb.trajectory
        else:
            with sp("grde.solve_full"):
                reduced = grde.solve_full(problem)

    closed, refused = None, False
    with clock.route("solve_closed_form"):
        with sp("cgdare.find_reference"):
            ref_c = cgdare.find_reference(problem)
        if ref_c.found:
            with sp("reduction.build_reduction"):
                rd_c = reduction.build_reduction(problem, ref_c.solution)
            try:
                with sp("closedform.solve_closed_form"):
                    closed = closedform.solve_closed_form(problem, rd_c).trajectory
            except linalg.NumericalRefusal:
                refused = True
        if closed is None:
            with sp("grde.solve_full"):
                closed = grde.solve_full(problem)

    with clock.route("verify"):
        with sp("grde.solve_full"):
            vtraj = grde.solve_full(verify_p)
        with sp("oracle.batch_matrices"):
            qp = oracle.batch_matrices(verify_p)
        with sp("oracle.batch_optimal"):
            _, j_qp = oracle.batch_optimal(qp)
        with sp("grde.simulate"):
            _, _, j_sim = grde.simulate(verify_p, vtraj)

    with clock.route("analyze"):
        with sp("model.validate"):
            vrep = model.validate(problem)
        with sp("pencil.build"):
            pen = pencil.build(problem.triple)
        with sp("cgdare.find_reference"):
            ref_a = cgdare.find_reference(problem)
        with sp("pencil.criteria"):
            pencil.n_singular_criterion(pen, problem.triple)
            if ref_a.found:
                pencil.closed_loop_singular_criterion(ref_a.solution)
        if ref_a.found:
            with sp("pencil.mu_bookkeeping"):
                pencil.mu_bookkeeping(ref_a.solution)
            with sp("pencil.det_identity_check"):
                pencil.det_identity_check(pen, ref_a.solution, z_samples)
    clock.close()

    failures = []
    err = _max_rel_x(full, reduced)
    if err > X_REL_LIMIT:
        failures.append(f"solve_reduced X differs from solve_full by {err:.3e}")
    err = _max_rel_x(full, closed)
    if err > X_REL_LIMIT:
        failures.append(f"solve_closed_form X differs from solve_full by {err:.3e}")
    j_grde = grde.optimal_cost(vtraj, verify_p.x0)
    qp_diff = max(_rel_diff(j_grde, j_qp), _rel_diff(j_qp, j_sim))
    sim_diff = _rel_diff(j_grde, j_sim)
    if sim_diff > COST_REL_LIMIT:
        failures.append(f"recursion and simulated costs differ by {sim_diff:.3e}")
    if qp_gated and qp_diff > COST_REL_LIMIT:
        failures.append(f"batch-QP cost differs from recursion and simulation by {qp_diff:.3e}")
    if not vrep.passed:
        failures.append("generated problem failed validation")
    if len({(r.found, r.iterations) for r in (ref, ref_c, ref_a)}) != 1:
        failures.append("reference search gave different results on one problem")

    facts = {
        "steps": problem.T,
        "iterations": ref.iterations,
        "missed": not ref.found,
        "qp_size": qp.size,
        "qp_disagrees": qp_diff > COST_REL_LIMIT,
        "closed_form_refused": refused,
    }
    if hyb is not None:
        facts.update(
            full_steps=hyb.full_steps,
            reduced_steps=hyb.reduced_steps,
            dim_u=hyb.dim_u,
            dim_reduced=hyb.dim_reduced,
            fallback=hyb.used_fallback,
        )
        if hyb.checkpoint_threshold > 0:
            facts["checkpoint_margin"] = hyb.checkpoint_off_norm / hyb.checkpoint_threshold
    fingerprint = (
        ref.found,
        hyb.nu if hyb else None,
        hyb.dim_u if hyb else None,
        hyb.dim_reduced if hyb else None,
        hyb.used_fallback if hyb else None,
        refused,
    )
    return PassResult(clock.route_ns, clock.calibrated(), clock.calibration_ns, fingerprint, facts, failures)


def step_flops(n: int, m: int) -> int:
    """Flops of the matrix products in one full backward step, counted from n and m.

    riccati_map forms A^T X B, B^T X B, A^T X A and S_X R_X^+ S_X^T;
    gain_and_projector forms B^T X B, B^T X A, R_X^+ (.) and R_X^+ R_X.
    An (a x b) by (b x c) product counts 2abc; the m x m SVDs are left out.
    """
    return 6 * n**3 + 12 * n * n * m + 8 * n * m * m + 2 * m**3


def primitive_calls(problems):
    """Calls into single primitives at the workload's shapes, for microbenchmarks.

    Uses the first problem whose reference search succeeds: the curvature
    R + B^T X_T B and the terminal weight X_T, the reference closed loop,
    and the reduced block Psi entering phase two of the hybrid solve.
    """
    for problem in problems:
        ref = cgdare.find_reference(problem)
        if ref.found:
            break
    else:
        raise RuntimeError("no problem in the pool has a reference solution")
    triple, sol = problem.triple, ref.solution
    rd = reduction.build_reduction(problem, sol)
    X_T = linalg.symmetrize(problem.P)
    curvature = triple.R + triple.B.T @ X_T @ triple.B
    full = grde.solve_full(problem)
    psi = reduction.checkpoint_blocks(full.X[problem.T - rd.nu] - rd.X_circ, rd)[2]
    loop_scale = float(np.linalg.norm(triple.A)) + float(np.linalg.norm(triple.B @ sol.K_X))
    return {
        "linalg.pinv_us": lambda: linalg.pinv(curvature),
        "linalg.nilpotent_eigenspace_us": lambda: linalg.nilpotent_eigenspace(sol.A_X, scale=loop_scale),
        "grde.riccati_map_us": lambda: grde.riccati_map(X_T, triple),
        "grde.gain_and_projector_us": lambda: grde.gain_and_projector(X_T, triple),
        "reduction.reduced_step_us": lambda: reduction.reduced_step(psi, rd),
        "cgdare.closed_loop_ms": lambda: cgdare.closed_loop(sol.X, triple),
    }

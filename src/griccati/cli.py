"""Command-line interface.

Every command prints one machine-readable JSON report to stdout; a short
human summary goes to stderr unless --json is given.  Exit codes: 0 success,
1 input error, 2 a requested method refused and the full recursion answered
(solve's fallback), 3 an internal cross-check failed (verify).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import (
    ProblemFormatError,
    ProblemValidationError,
    Xorshift64Star,
    load_problem,
    random_problem,
    save_problem,
    validate,
)
from .grde import optimal_cost, save_trajectory, simulate, solve_full
from .oracle import batch_matrices, batch_optimal
from .cgdare import ReferenceRejectedError, find_reference
from .pencil import (
    build,
    closed_loop_singular_criterion,
    det_identity_check,
    mu_bookkeeping,
    n_singular_criterion,
)
from .closedform import METHODS, solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REFUSAL = 2
EXIT_INCONSISTENT = 3


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    status: str = "ok"
    reason: str = ""

    def to_json(self) -> str:
        """Strict JSON: json's own Infinity and NaN tokens are read back as null."""
        plain = json.loads(json.dumps(asdict(self)), parse_constant=lambda _: None)
        return json.dumps(plain, indent=2, sort_keys=True, allow_nan=False)


def _emit(report: RunReport, args, summary_lines):
    print(report.to_json())
    if not args.json:
        for line in summary_lines:
            print(line, file=sys.stderr)


def _parse_x0(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as exc:
        raise ProblemFormatError(f"could not parse --x0: {exc}") from exc


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def cmd_validate(args) -> int:
    problem, _ = load_problem(args.problem)
    report = validate(problem)
    run = RunReport(
        command="validate",
        inputs={"problem": args.problem, "n": problem.n, "m": problem.m, "T": problem.T},
        results=report.to_dict(),
        status="ok" if report.passed else "error",
        reason="" if report.passed else str(ProblemValidationError(report)),
    )
    lines = [f"validate {args.problem}: {'PASS' if report.passed else 'FAIL'}"]
    for c in report.checks:
        lines.append(f"  {c.name}: {'ok' if c.passed else 'FAIL'} (residual {c.residual:.3e})")
    _emit(run, args, lines)
    return EXIT_OK if report.passed else EXIT_INPUT


def cmd_solve(args) -> int:
    problem, X_ref = load_problem(args.problem)
    run = RunReport(
        command="solve",
        inputs={"problem": args.problem, "method": args.method, "n": problem.n, "m": problem.m, "T": problem.T},
    )
    t0 = time.perf_counter()
    result = solve(problem, args.method, X_ref)
    run.timings["solve_ms"] = (time.perf_counter() - t0) * 1e3
    search, rd, hybrid = result.search, result.reduction, result.hybrid
    if search is not None:
        run.results.update(reference_found=search.found, reference_iterations=search.iterations)
        if search.found:
            run.residuals["reference_residual"] = search.solution.residual_norm
    if rd is not None:
        run.results.update(nu=rd.nu, dim_u=rd.dim_u, dim_reduced=rd.dim_reduced)
    if hybrid is not None:
        run.residuals["checkpoint_off_norm"] = hybrid.checkpoint_off_norm
        if not hybrid.used_fallback:
            run.results["reduced_steps" if args.method == "reduced" else "horizon_prime"] = hybrid.reduced_steps
            run.results["tail_steps"] = hybrid.tail_steps
            if hybrid.tail_reason:
                run.results["tail_reason"] = hybrid.tail_reason
    if result.fallback_reason:
        run.status, run.reason = "fallback", result.fallback_reason
    run.results["method_used"] = result.method_used

    if problem.x0 is not None:
        run.results["optimal_cost"] = optimal_cost(result.trajectory, problem.x0)
    run.results["X0_trace"] = float(np.trace(result.trajectory.X[0]))
    if args.out:
        save_trajectory(result.trajectory, args.out)
        run.results["out"] = args.out

    lines = [
        f"solve {args.problem} method={args.method}: status={run.status}"
        + (f" ({run.reason})" if run.reason else "")
    ]
    if "optimal_cost" in run.results:
        lines.append(f"  optimal cost {run.results['optimal_cost']:.12g}")
    if args.out:
        lines.append(f"  trajectory written to {args.out}")
    _emit(run, args, lines)
    return EXIT_OK if run.status == "ok" else EXIT_REFUSAL


def cmd_analyze(args) -> int:
    problem, X_ref = load_problem(args.problem)
    run = RunReport(
        command="analyze",
        inputs={"problem": args.problem, "n": problem.n, "m": problem.m, "T": problem.T},
    )
    vrep = validate(problem)
    run.results["validation_passed"] = vrep.passed

    pen = build(problem.triple)
    ncrit = n_singular_criterion(pen, problem.triple)
    run.results["pencil"] = {
        "size": pen.size,
        "N_singular": ncrit.n_singular,
        "R_singular": ncrit.r_singular,
        "drift_singular": ncrit.drift_singular,
        "criterion_consistent": ncrit.consistent,
    }

    solution = None
    if not vrep.passed:
        run.reason = "validation failed; pencil-only analysis"
    else:
        try:
            solution = find_reference(problem, X_ref=X_ref).solution
        except ReferenceRejectedError as exc:
            run.reason = str(exc)
    run.results["reference_found"] = solution is not None

    if solution is None:
        run.results["analysis_level"] = "pencil-only"
    else:
        run.results["analysis_level"] = "full"
        run.residuals["reference_residual"] = solution.residual_norm
        crit = closed_loop_singular_criterion(solution)
        run.results["closed_loop"] = {
            "A_X_singular": crit.a_x_singular,
            "rank_R": crit.rank_R,
            "rank_RX": crit.rank_RX,
            "rank_drop": crit.rank_drop,
            "drift_singular": crit.drift_singular,
            "criterion_consistent": crit.consistent,
            "nu": solution.nu,
            "dim_u": solution.dim_u,
            "inertia_RX": list(solution.inertia_RX),
        }
        run.results["mu"] = mu_bookkeeping(solution)._asdict()
        rng = Xorshift64Star(0)
        z_samples = [rng.interval(-2.0, 2.0) for _ in range(20)]
        run.residuals["det_identity_worst"] = det_identity_check(pen, solution, z_samples)

    lines = [f"analyze {args.problem}: level={run.results['analysis_level']}"]
    lines.append(
        f"  N singular: {ncrit.n_singular} (R singular: {ncrit.r_singular}, "
        f"drift singular: {ncrit.drift_singular})"
    )
    if solution is not None:
        lines.append(
            f"  closed loop singular: {run.results['closed_loop']['A_X_singular']}, "
            f"nu={solution.nu}, dim U={solution.dim_u}"
        )
        lines.append(
            f"  mu: {run.results['mu']['mu_block']} = {run.results['mu']['mu_AX']} "
            f"+ {run.results['mu']['mu_RX']} (additive: {run.results['mu']['additive']})"
        )
        lines.append(f"  det identity worst defect: {run.residuals['det_identity_worst']:.3e}")
    _emit(run, args, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    problem, _ = load_problem(args.problem)
    x0 = problem.initial_state(_parse_x0(args.x0) if args.x0 else None)

    run = RunReport(
        command="verify",
        inputs={"problem": args.problem, "n": problem.n, "m": problem.m, "T": problem.T, "x0": list(map(float, x0))},
    )
    t0 = time.perf_counter()
    traj = solve_full(problem)
    run.timings["solve_ms"] = (time.perf_counter() - t0) * 1e3
    j_grde = optimal_cost(traj, x0)
    t0 = time.perf_counter()
    qp = batch_matrices(problem, x0)
    _, j_oracle = batch_optimal(qp)
    run.timings["oracle_ms"] = (time.perf_counter() - t0) * 1e3
    _, _, j_sim = simulate(problem, traj, x0)

    diffs = {
        "grde_vs_oracle": _rel_diff(j_grde, j_oracle),
        "grde_vs_simulated": _rel_diff(j_grde, j_sim),
        "oracle_vs_simulated": _rel_diff(j_oracle, j_sim),
    }
    run.results = {"cost_grde": j_grde, "cost_oracle": j_oracle, "cost_simulated": j_sim}
    run.residuals = diffs
    worst = max(diffs.values())
    if worst > 1e-6:
        run.status = "error"
        run.reason = f"cost routes disagree (worst relative difference {worst:.3e})"

    lines = [
        f"verify {args.problem}: status={run.status}",
        f"  cost (recursion)  {j_grde:.12g}",
        f"  cost (batch QP)   {j_oracle:.12g}",
        f"  cost (simulated)  {j_sim:.12g}",
        f"  worst relative difference {worst:.3e}",
    ]
    _emit(run, args, lines)
    return EXIT_OK if run.status == "ok" else EXIT_INCONSISTENT


def cmd_gen(args) -> int:
    problem = random_problem(
        args.n, args.m, args.seed, args.kind, horizon=args.horizon, nilpotent_dim=args.nilpotent_dim
    )
    save_problem(problem, args.out)
    run = RunReport(
        command="gen",
        inputs={
            "n": args.n,
            "m": args.m,
            "seed": args.seed,
            "kind": args.kind,
            "horizon": args.horizon,
            "nilpotent_dim": args.nilpotent_dim,
        },
        results={"out": args.out, "T": problem.T},
    )
    _emit(run, args, [f"gen: wrote {args.kind} problem (n={args.n}, m={args.m}, T={problem.T}) to {args.out}"])
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors reported as input errors.

    argparse exits 2 on a bad command line, which would read as a numerical
    refusal; a malformed command line is an input problem like a malformed
    file.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="griccati",
        description="Finite-horizon LQ solver with singular-weight support and reduction diagnostics",
    )
    parser.add_argument("--json", action="store_true", help="suppress the human summary (JSON report only)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="check a problem file against the model invariants")
    p.add_argument("problem")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="run the backward recursion")
    p.add_argument("problem")
    p.add_argument("--method", choices=METHODS, default="full")
    p.add_argument("--out", default=None, help="write the trajectory JSON here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("analyze", help="pencil criteria, multiplicity bookkeeping, determinant identity")
    p.add_argument("problem")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="cross-check recursion cost, batch QP cost, simulated cost")
    p.add_argument("problem")
    p.add_argument("--x0", default=None, help='initial state as "v1,v2,..." (negative first entry: --x0=-1,...)')
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="write a random problem file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=["generic", "singular_R", "nilpotent_block"], default="generic")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--nilpotent-dim", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The errors a command raises by design are input errors:
    # ProblemFormatError, ProblemValidationError and ReferenceRejectedError
    # are ValueErrors.
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(RunReport(command=args.cmd, inputs={}, status="error", reason=str(exc)).to_json())
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

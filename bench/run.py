"""griccati benchmark: the command that runs one workload.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One process and one caller, closed loop: each problem of the workload is
taken through every route (solve by the three methods, verify, analyze)
before the next problem starts.  The package is imported from ./src and only
ever receives the generated problems or problem files.

Prints a JSON report, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the per-layer ones, from a run that traces
every pass and runs every other problem untraced beside it as well.  Exits 1
when the correctness gate fails and 2 when the checkout holds no package
source.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

# One BLAS thread: the matrices are small and one caller runs at a time, and
# a fixed count keeps runs comparable on any core count.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROBES = 7
CLI_RUNS = 15
# A traced run reports no whole-process end-to-end times; its probes only give cli.import_ms.
TRACED_SETUP_PROBES = 3
PROCESS_TIMEOUT_S = 60

# Times are reported on a fixed scale: the time the work would take on a
# machine that runs pipeline.calibration_ns's kernel in exactly 1 ms.  Each
# measurement is divided by the kernel's time measured right beside it,
# which removes most of the machine's drift in speed (see NOTES.md).
CALIBRATION_REF_NS = 1_000_000

END_TO_END = {
    "setup_s": "s",
    "solve_full_ms": "ms",
    "solve_reduced_ms": "ms",
    "solve_closed_form_ms": "ms",
    "verify_ms": "ms",
    "analyze_ms": "ms",
    "problems_per_s": "1/s",
    "cli_solve_ms": "ms",
}

PER_LAYER = {
    "linalg.pinv_us": "us",
    "linalg.nilpotent_eigenspace_us": "us",
    "grde.riccati_map_us": "us",
    "grde.gain_and_projector_us": "us",
    "grde.solve_full_ms": "ms",
    "grde.steps": "count",
    "grde.step_flops": "flop-computed",
    "grde.simulate_ms": "ms",
    "cgdare.find_reference_ms": "ms",
    "cgdare.iterations_median": "count",
    "cgdare.iterations_max": "count",
    "cgdare.closed_loop_ms": "ms",
    "cgdare.reference_miss_ratio": "ratio",
    "reduction.build_reduction_ms": "ms",
    "reduction.solve_hybrid_ms": "ms",
    "reduction.reduced_step_us": "us",
    "reduction.full_steps": "count",
    "reduction.reduced_steps": "count",
    "reduction.dim_u": "count",
    "reduction.dim_reduced": "count",
    "reduction.checkpoint_margin": "ratio",
    "reduction.hybrid_fallback_ratio": "ratio",
    "reduction.full_over_reduced": "ratio",
    "closedform.solve_closed_form_ms": "ms",
    "closedform.refusals": "count",
    "closedform.refusal_ratio": "ratio",
    "pencil.build_us": "us",
    "pencil.criteria_ms": "ms",
    "pencil.mu_bookkeeping_ms": "ms",
    "pencil.det_identity_ms": "ms",
    "oracle.batch_matrices_ms": "ms",
    "oracle.batch_optimal_ms": "ms",
    "oracle.qp_size": "count",
    "oracle.cost_disagreements": "count",
    "model.random_problem_ms": "ms",
    "model.validate_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_pct": "%",
}

# Per-layer self times: metric -> (route span, module span) it is read from.
SPAN_METRICS = {
    "grde.solve_full_ms": ("route.solve_full", "grde.solve_full"),
    "grde.simulate_ms": ("route.verify", "grde.simulate"),
    "cgdare.find_reference_ms": ("route.solve_reduced", "cgdare.find_reference"),
    "reduction.build_reduction_ms": ("route.solve_reduced", "reduction.build_reduction"),
    "reduction.solve_hybrid_ms": ("route.solve_reduced", "reduction.solve_hybrid"),
    "closedform.solve_closed_form_ms": ("route.solve_closed_form", "closedform.solve_closed_form"),
    "pencil.build_us": ("route.analyze", "pencil.build"),
    "pencil.criteria_ms": ("route.analyze", "pencil.criteria"),
    "pencil.mu_bookkeeping_ms": ("route.analyze", "pencil.mu_bookkeeping"),
    "pencil.det_identity_ms": ("route.analyze", "pencil.det_identity_check"),
    "oracle.batch_matrices_ms": ("route.verify", "oracle.batch_matrices"),
    "oracle.batch_optimal_ms": ("route.verify", "oracle.batch_optimal"),
    "model.validate_ms": ("route.analyze", "model.validate"),
}

NS_PER_UNIT = {"s": 1e9, "ms": 1e6, "us": 1e3}


def summary(values):
    """Median, the highest listed percentile with at least ten samples beyond it, and the count."""
    v = sorted(values)
    n = len(v)
    out = {"median": statistics.median(v), "n": n}
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p:g}"] = v[math.ceil(p / 100 * n) - 1]
            break
    return out


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


class Gate:
    """Operations attempted and failed; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, message):
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)


def environment(seed, inherited):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "machine": platform.machine(),
        "num_threads_inherited": inherited,
        "num_threads_effective": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "seed": seed,
    }


def run_process(argv, gate, what):
    """Run a child to completion.

    Returns (wall ns on the calibrated scale, raw wall ns, parsed stdout JSON
    or None); the calibration kernel runs just before and just after.
    """
    import pipeline

    def kernel_ns():  # the first kernel run after a child exits runs cold
        return statistics.median(pipeline.calibration_ns() for _ in range(5))

    gate.attempted += 1
    before = kernel_ns()
    t0 = time.perf_counter_ns()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        gate.fail(f"{what}: no exit within {PROCESS_TIMEOUT_S} s")
        return 0.0, 0, None
    raw = time.perf_counter_ns() - t0
    scaled = raw * CALIBRATION_REF_NS / (0.5 * (before + kernel_ns()))
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        gate.fail(f"{what}: exit {proc.returncode}, no JSON on stdout: {proc.stderr.strip()[-300:]}")
        return scaled, raw, None
    return scaled, raw, doc


class Processes:
    """Set-up probes and `griccati --json solve` processes, spread through the measuring loop.

    Machine speed drifts over tens of seconds, so these whole-process timings
    are taken at intervals across the run rather than in one burst.
    """

    def __init__(self, workload, seed, problems, gate):
        from griccati import model

        self.workload, self.seed, self.gate = workload.name, seed, gate
        self.workdir = OUT / f"cli-{workload.name}-{seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = min(CLI_RUNS, len(problems))
        for k in range(self.files):
            model.save_problem(problems[k], self.workdir / f"p{k}.json")
        self.setup_ns, self.setup_raw_ns, self.import_ms, self.digests = [], [], [], set()
        self.cli_runs = []  # (problem index, calibrated ns, raw ns, JSON report)

    def jobs(self, traced):
        """The probes and CLI runs, alternating; a traced run has a few probes only."""
        if traced:
            return [self.probe] * TRACED_SETUP_PROBES
        probes = [self.probe] * SETUP_PROBES
        clis = [functools.partial(self.cli, j % self.files) for j in range(CLI_RUNS)]
        return [job for pair in itertools.zip_longest(probes, clis) for job in pair if job]

    def probe(self):
        argv = [sys.executable, str(BENCH / "probe.py"), self.workload, str(self.seed)]
        wall, raw, doc = run_process(argv, self.gate, "set-up probe")
        if doc is not None:
            self.setup_ns.append(wall)
            self.setup_raw_ns.append(raw)
            self.import_ms.append(doc["import_ms"])
            self.digests.add(doc["digest"])

    def cli(self, k):
        argv = [sys.executable, "-m", "griccati.cli", "--json", "solve", str(self.workdir / f"p{k}.json")]
        wall, raw, doc = run_process(argv + ["--method", "reduced"], self.gate, f"cli solve p{k}")
        if doc is not None:
            self.cli_runs.append((k, wall, raw, doc))

    def checked_cli_ns(self, problems, fingerprints):
        """Calibrated and raw wall times of the CLI runs whose reports are right.

        Success is read from the report's status and method_used, because the
        exit code of a refusal equals that of an argparse usage error.
        """
        import numpy as np

        from griccati import grde

        x0_traces = {}
        walls, raw_walls = [], []
        for k, wall, raw, doc in self.cli_runs:
            if k not in fingerprints:  # every pass of this problem raised; already counted
                continue
            found, _, _, _, fallback, _ = fingerprints[k]
            method = "reduced" if found and not fallback else "full"
            if k not in x0_traces:
                x0_traces[k] = float(np.trace(grde.solve_full(problems[k]).X[0]))
            results = doc.get("results", {})
            expected = ("ok" if method == "reduced" else "fallback", method)
            if (doc.get("status"), results.get("method_used")) != expected:
                self.gate.fail(f"cli solve p{k}: status {doc.get('status')!r}, method {results.get('method_used')!r}")
            elif abs(results["X0_trace"] - x0_traces[k]) > 1e-8 * (1.0 + abs(x0_traces[k])):
                self.gate.fail(f"cli solve p{k}: trace(X_0) {results['X0_trace']!r}, in-process {x0_traces[k]!r}")
            else:
                walls.append(wall)
                raw_walls.append(raw)
        return walls, raw_walls


@dataclass
class Measurements:
    """What the measuring loop collected; times in ns, untraced passes only unless named."""

    route_ns: dict  # route -> samples on the calibrated scale
    route_raw_ns: dict  # route -> raw samples
    pipeline_ns: dict  # summed over passes: "untraced", "traced_paired" (calibrated scale), "untraced_raw"
    calibration_ns: list  # every kernel run in the loop
    fingerprints: dict  # problem index -> fingerprint
    facts: dict  # problem index -> per-layer counts
    tracer: object


def measure(workload, problems, verify_ps, z_samples, seconds, traced, jobs, gate) -> Measurements:
    """Cycle through the problems for `seconds`, and at least once through all of them.

    With tracing, every problem is run traced, and every other one also
    untraced right beside it, in alternating order, so that a pair differs
    only by the spans; the untraced twins cost a traced run half a pass
    more instead of a whole one.  The jobs (whole-process timings) run
    between passes at evenly spaced times.
    """
    import pipeline

    untraced = pipeline.NullTracer()
    got = Measurements(
        route_ns={r: [] for r in pipeline.ROUTES},
        route_raw_ns={r: [] for r in pipeline.ROUTES},
        pipeline_ns={"untraced": 0.0, "traced_paired": 0.0, "untraced_raw": 0},
        calibration_ns=[],
        fingerprints={},
        facts={},
        tracer=pipeline.Tracer() if traced else None,
    )
    start = time.perf_counter()
    deadline = start + seconds
    due = [start + seconds * (j + 1) / (len(jobs) + 1) for j in range(len(jobs))]
    done = 0
    i = 0
    while i < len(problems) or time.perf_counter() < deadline:
        while done < len(jobs) and time.perf_counter() >= due[done]:
            jobs[done]()
            done += 1
        k = i % len(problems)
        if not traced:
            order = [untraced]
        elif i % 2:
            order = [got.tracer]
        else:
            order = [untraced, got.tracer] if i % 4 == 0 else [got.tracer, untraced]
        for tr in order:
            tr.problem = k
            gate.attempted += len(pipeline.ROUTES)
            try:
                res = pipeline.run_pipeline(problems[k], verify_ps[k], z_samples, tr, workload.qp_gated)
            except Exception as exc:  # a failed operation is counted, and the loop goes on
                gate.fail(f"problem {k}: {type(exc).__name__}: {exc}")
                continue
            for message in res.gate_failures:
                gate.fail(f"problem {k}: {message}")
            if got.fingerprints.setdefault(k, res.fingerprint) != res.fingerprint:
                gate.fail(f"problem {k}: fingerprint changed from {got.fingerprints[k]} to {res.fingerprint}")
            got.facts.setdefault(k, res.facts)
            got.calibration_ns.extend(res.calibration_ns)
            pass_ns = sum(res.route_cal.values()) * CALIBRATION_REF_NS
            if tr is untraced:
                for route, ns in res.route_ns.items():
                    got.route_raw_ns[route].append(ns)
                    got.route_ns[route].append(res.route_cal[route] * CALIBRATION_REF_NS)
                got.pipeline_ns["untraced_raw"] += sum(res.route_ns.values())
                got.pipeline_ns["untraced"] += pass_ns
            elif len(order) == 2:
                got.pipeline_ns["traced_paired"] += pass_ns
        i += 1
    for job in jobs[done:]:
        job()
    return got


def fingerprint_digest(fingerprints):
    """Digest of every problem's fingerprint.

    Two runs of the same code on one seed must print the same digest.  It is
    compared between runs, not stored: a change to the package may rightly
    change a fingerprint, e.g. a closed form that stops refusing.
    """
    text = json.dumps([[k, list(v)] for k, v in sorted(fingerprints.items())])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def microbench(fn, target_ns=2_000_000, batches=11):
    """Median ns per call over batches of calls, each batch lasting about target_ns."""
    reps = 1
    while True:
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            fn()
        if time.perf_counter_ns() - t0 >= target_ns:
            break
        reps *= 2
    per_call = []
    for _ in range(batches):
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            fn()
        per_call.append((time.perf_counter_ns() - t0) / reps)
    return statistics.median(per_call)


def outcomes(facts):
    """(count, base, base name) of each outcome over the run's distinct problems."""
    per_problem = list(facts.values())
    hybrid = [f for f in per_problem if "full_steps" in f]
    missed = sum(f["missed"] for f in per_problem)
    return {
        "reference_miss_ratio": (missed, len(per_problem), "problems"),
        "hybrid_fallback_ratio": (sum(f["fallback"] for f in hybrid), len(hybrid), "hybrid attempts"),
        "closed_form_refusal_ratio": (
            sum(f["closed_form_refused"] for f in per_problem),
            len(per_problem) - missed,
            "closed-form attempts",
        ),
        "qp_cost_disagreement_ratio": (sum(f["qp_disagrees"] for f in per_problem), len(per_problem), "problems"),
    }


def ratio(outcome):
    count, base, _ = outcome
    return count / base if base else 0.0


def per_layer_metrics(problems, gen_ns, import_ms, got: Measurements):
    """Per-layer values; times are put on the calibrated scale by the run's median kernel time."""
    import pipeline

    scale = CALIBRATION_REF_NS / statistics.median(got.calibration_ns)
    values = {}
    for name, fn in pipeline.primitive_calls(problems).items():
        values[name] = microbench(fn) * scale / NS_PER_UNIT[PER_LAYER[name]]
    self_ns = {}
    for root, name, ns in got.tracer.self_times():
        self_ns.setdefault((root, name), []).append(ns)
    for metric, key in SPAN_METRICS.items():
        values[metric] = median_or_zero(self_ns.get(key, [])) * scale / NS_PER_UNIT[PER_LAYER[metric]]

    per_problem = list(got.facts.values())
    hybrid = [f for f in per_problem if "full_steps" in f]
    counts = outcomes(got.facts)
    values.update(
        {
            "grde.steps": statistics.median(f["steps"] for f in per_problem),
            "grde.step_flops": pipeline.step_flops(problems[0].n, problems[0].m),
            "cgdare.iterations_median": statistics.median(f["iterations"] for f in per_problem),
            "cgdare.iterations_max": max(f["iterations"] for f in per_problem),
            "cgdare.reference_miss_ratio": ratio(counts["reference_miss_ratio"]),
            "reduction.full_steps": median_or_zero([f["full_steps"] for f in hybrid]),
            "reduction.reduced_steps": median_or_zero([f["reduced_steps"] for f in hybrid]),
            "reduction.dim_u": median_or_zero([f["dim_u"] for f in hybrid]),
            "reduction.dim_reduced": median_or_zero([f["dim_reduced"] for f in hybrid]),
            "reduction.checkpoint_margin": max((f.get("checkpoint_margin", 0.0) for f in hybrid), default=0.0),
            "reduction.hybrid_fallback_ratio": ratio(counts["hybrid_fallback_ratio"]),
            "reduction.full_over_reduced": statistics.median(got.route_ns["solve_full"])
            / statistics.median(got.route_ns["solve_reduced"]),
            "closedform.refusals": counts["closed_form_refusal_ratio"][0],
            "closedform.refusal_ratio": ratio(counts["closed_form_refusal_ratio"]),
            "oracle.qp_size": statistics.median(f["qp_size"] for f in per_problem),
            "oracle.cost_disagreements": counts["qp_cost_disagreement_ratio"][0],
            "model.random_problem_ms": statistics.median(gen_ns) * scale / 1e6,
            "cli.import_ms": median_or_zero(import_ms) * scale,
            "trace.overhead_pct": 100.0 * (got.pipeline_ns["traced_paired"] / got.pipeline_ns["untraced"] - 1.0),
        }
    )
    return values


def layer_self_times(tracer):
    """Raw self time per layer (span-name prefix) over the traced passes; 'route' is the benchmark's glue."""
    totals = {}
    for _, name, ns in tracer.self_times():
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0) + ns
    whole = sum(totals.values())
    return {k: {"self_ms": v / 1e6, "share": v / whole} for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}


def timing(scaled_ns, raw_ns, per_unit):
    """Summary on the calibrated scale, plus the raw median for reference."""
    if not scaled_ns:
        return None
    out = summary([v / per_unit for v in scaled_ns])
    out["raw_median"] = statistics.median(raw_ns) / per_unit
    return out


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "griccati" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'griccati'}", file=sys.stderr)
        return 2
    inherited = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))

    import griccati
    import pipeline

    if not Path(griccati.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: griccati was imported from {griccati.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in pipeline.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(pipeline.WORKLOADS)}")
    workload = pipeline.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    gate = Gate()

    problems, gen_ns = pipeline.generate(workload, args.seed)
    input_digest = pipeline.digest(problems)
    verify_ps = [pipeline.verify_problem(p) for p in problems]
    z_samples = pipeline.analyze_z_samples()
    processes = Processes(workload, args.seed, problems, gate)

    pipeline.run_pipeline(problems[0], verify_ps[0], z_samples, pipeline.NullTracer(), workload.qp_gated)  # warm-up
    got = measure(
        workload, problems, verify_ps, z_samples, args.seconds, bool(args.trace), processes.jobs(args.trace), gate
    )
    if processes.digests - {input_digest}:
        gate.fail(f"set-up probes generated other inputs than this process: {sorted(processes.digests)}")
    cli_walls, cli_raw = processes.checked_cli_ns(problems, got.fingerprints)

    timings = {f"{r}_ms": timing(got.route_ns[r], got.route_raw_ns[r], 1e6) for r in pipeline.ROUTES}
    timings["setup_s"] = timing(processes.setup_ns, processes.setup_raw_ns, 1e9)
    timings["cli_solve_ms"] = timing(cli_walls, cli_raw, 1e6)
    passes = len(got.route_ns["solve_full"])
    ratios = {name: list(c) for name, c in outcomes(got.facts).items()}
    if not workload.qp_gated:
        ratios["qp_cost_disagreement_ratio"][2] += " (reported, not gated; see NOTES.md)"
    ratios["error_ratio"] = [gate.failed, gate.attempted, "operations attempted"]
    ratios["solve_full_ms / solve_reduced_ms"] = [
        timings["solve_full_ms"]["median"],
        timings["solve_reduced_ms"]["median"],
        "median solve_reduced_ms (information only, not gated)",
    ]
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, inherited),
        "calibration": {
            "reference_ns": CALIBRATION_REF_NS,
            "median_ns": statistics.median(got.calibration_ns),
            "runs": len(got.calibration_ns),
        },
        "problems": {"distinct": len(problems), "passes": passes, "input_digest": input_digest},
        "timings": timings,
        "problems_per_s": passes / (got.pipeline_ns["untraced"] / 1e9),
        "problems_per_s_raw": passes / (got.pipeline_ns["untraced_raw"] / 1e9),
        "ratios": ratios,
        "gate": {"failures": gate.messages, "fingerprint_digest": fingerprint_digest(got.fingerprints)},
    }

    if args.trace:
        metrics = per_layer_metrics(problems, gen_ns, processes.import_ms, got)
        units = PER_LAYER
        trace_file = OUT / f"trace-{workload.name}-{args.seed}.json"
        trace_file.write_text(
            json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "problem"], "spans": got.tracer.spans})
        )
        report["trace"] = {
            "spans": len(got.tracer.spans),
            "file": str(trace_file.relative_to(ROOT)),
            "layer_self_time": layer_self_times(got.tracer),
            "overhead_pct": metrics["trace.overhead_pct"],
        }
    else:
        metrics = {name: t["median"] for name, t in timings.items() if t is not None}
        metrics["problems_per_s"] = report["problems_per_s"]
        units = END_TO_END
    report["metrics"] = {
        name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items() if name in metrics
    }
    report["wall_s"] = time.perf_counter() - started  # the whole run, set-up included; not calibrated
    print(json.dumps(report, indent=1))
    result = {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed}
    print(json.dumps({**result, "metrics": report["metrics"]}))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from griccati import cli, grde, linalg, model, solve
from griccati.cgdare import ReferenceRejectedError, find_reference
from griccati.cli import main
from griccati.linalg import InternalInconsistencyError, NumericalRefusal
from griccati.model import problem_to_json, random_problem, save_problem
from griccati.reduction import build_reduction

from conftest import PHI, scalar_two_step
from test_reduction import live_scalar_problem


# What `griccati gen --n 20 --m 2 --kind nilpotent_block --horizon 500` writes:
# a long horizon whose reduced solves fill a certified stationary tail.
LONG = random_problem(20, 2, 0, "nilpotent_block", horizon=500)


def _write(tmp_path, problem, name="prob.json", X_ref=None):
    path = tmp_path / name
    save_problem(problem, path, X_ref=X_ref)
    return str(path)


def _refuse_constant(name):
    raise AssertionError(f"report is not strict JSON: {name}")


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out, parse_constant=_refuse_constant) if captured.out.strip() else None
    return code, report, captured.err


def _assert_library_falls_back(problem, method, reason):
    """griccati.solve reports the command line's fallback, with solve_full's X_t, K_t and G_t."""
    result, full = solve(problem, method), grde.solve_full(problem)
    assert result.method_used == "full" and result.fallback_reason == reason, method
    for name in "XKG":
        got, want = getattr(result.trajectory, name), getattr(full, name)
        assert len(got) == len(want) and all(map(np.array_equal, got, want)), (method, name)


def test_validate_ok(tmp_path, capsys):
    path = _write(tmp_path, scalar_two_step())
    code, report, err = _run(capsys, ["validate", path])
    assert code == 0
    assert report["command"] == "validate"
    assert report["status"] == "ok"
    names = {c["name"] for c in report["results"]["checks"]}
    assert {"popov_symmetric", "popov_psd", "kernel_inclusion", "terminal_symmetric", "terminal_psd"} <= names
    assert "PASS" in err


def test_validate_failure_exit_code(tmp_path, capsys):
    doc = json.loads(problem_to_json(scalar_two_step()))
    doc["Q"] = [[-1.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, report, err = _run(capsys, ["validate", str(path)])
    assert code == 1
    assert report["status"] == "error"
    assert "FAIL" in err


def test_malformed_file_exit_code(tmp_path, capsys):
    # A file that is not JSON, or whose x0 holds an object, is an input
    # error: a JSON report and one line on stderr, not a traceback.
    doc = json.loads(problem_to_json(scalar_two_step()))
    doc["x0"] = [{}]
    path = tmp_path / "broken.json"
    for text, reason in (("{ not json", "malformed"), (json.dumps(doc), "field x0 must hold numbers, not object")):
        path.write_text(text)
        code, report, err = _run(capsys, ["--json", "validate", str(path)])
        assert code == 1
        assert report["status"] == "error"
        assert reason in report["reason"]
        assert err == f"error: {report['reason']}\n"


def test_missing_file_exit_code(tmp_path, capsys):
    code, report, _ = _run(capsys, ["solve", str(tmp_path / "nope.json")])
    assert code == 1
    assert report["status"] == "error"


def test_gen_validate_solve_verify_pipeline(tmp_path, capsys):
    # The second problem is LONG: its batch QP has 1000 inputs, and the
    # recursion, batch-QP and simulated costs must still agree.
    for gen in (
        ["--n", "4", "--m", "2", "--seed", "11", "--kind", "nilpotent_block", "--horizon", "12"],
        ["--n", "20", "--m", "2", "--kind", "nilpotent_block", "--horizon", "500"],
    ):
        path = str(tmp_path / "gen.json")
        code, report, _ = _run(capsys, ["gen", *gen, "--out", path])
        assert code == 0
        assert report["results"]["out"] == path

        assert _run(capsys, ["validate", path])[0] == 0

        code, report, _ = _run(capsys, ["solve", path, "--method", "full"])
        assert code == 0
        assert report["results"]["method_used"] == "full"
        cost_full = report["results"]["optimal_cost"]

        code, report, _ = _run(capsys, ["solve", path, "--method", "reduced"])
        assert code == 0
        assert report["status"] == "ok"
        assert report["results"]["method_used"] == "reduced"
        assert report["results"]["nu"] >= 1
        assert abs(report["results"]["optimal_cost"] - cost_full) <= 1e-8 * (1.0 + abs(cost_full))

        code, report, _ = _run(capsys, ["solve", path, "--method", "closed-form"])
        assert code == 0
        assert report["results"]["method_used"] == "closed-form"
        assert abs(report["results"]["optimal_cost"] - cost_full) <= 1e-8 * (1.0 + abs(cost_full))

        code, report, _ = _run(capsys, ["verify", path])
        assert code == 0
        assert report["status"] == "ok"
        worst = max(report["residuals"].values())
        assert worst <= 1e-6, gen


def test_solve_writes_trajectory(tmp_path, capsys):
    path = _write(tmp_path, scalar_two_step())
    out = tmp_path / "traj.json"
    code, report, _ = _run(capsys, ["solve", path, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["T"] == 2
    assert doc["X"][0] == [[1.5]]
    assert len(doc["K"]) == 2
    # On LONG the file holds T + 1 X and T gains; the certified tail's gains
    # are the reference's one K_X and G_X, repeated.
    path = _write(tmp_path, LONG, name="long.json")
    code, report, _ = _run(capsys, ["solve", path, "--method", "reduced", "--out", str(out)])
    tail = report["results"]["tail_steps"]
    assert code == 0 and tail > 0
    doc = json.loads(out.read_text())
    assert doc["T"] == 500 and len(doc["X"]) == 501 and len(doc["K"]) == len(doc["G"]) == 500
    assert all(K == doc["K"][0] for K in doc["K"][:tail])
    assert all(G == doc["G"][0] for G in doc["G"][:tail])


def test_solve_reduced_without_reference_falls_back(tmp_path, capsys):
    # Divergent uncontrollable problem: no reference exists, the solver must
    # answer with the full recursion and flag the fallback.
    doc = {
        "n": 1, "m": 1,
        "A": [[2.0]], "B": [[0.0]], "Q": [[1.0]], "S": [[0.0]], "R": [[1.0]],
        "P": [[0.0]], "T": 4, "x0": [1.0],
    }
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps(doc))
    code, report, _ = _run(capsys, ["solve", str(path), "--method", "reduced"])
    assert code == 2
    assert report["status"] == "fallback"
    assert report["results"]["method_used"] == "full"
    assert not report["results"]["reference_found"]
    # The fallback still solves the problem: cost is the finite-horizon sum.
    expect = sum(4.0**t for t in range(5 - 1))  # Q-weighted states, T=4, P=0
    assert abs(report["results"]["optimal_cost"] - expect) <= 1e-9 * expect
    problem, _ = model.load_problem(path)
    for method in ("reduced", "closed-form"):
        _assert_library_falls_back(problem, method, report["reason"])


def test_solve_closed_form_refusal_falls_back(tmp_path, capsys):
    # A horizon shorter than the nilpotency index leaves no reduced sweep.
    from griccati.model import random_problem

    problem = random_problem(4, 1, 2100, "nilpotent_block", horizon=1, nilpotent_dim=3)
    path = _write(tmp_path, problem)
    code, report, _ = _run(capsys, ["solve", path, "--method", "closed-form"])
    assert code == 2
    assert report["status"] == "fallback"
    assert "horizon" in report["reason"]
    assert report["results"]["method_used"] == "full"


@pytest.mark.parametrize(
    "problem, reason",
    [
        (random_problem(4, 1, 2100, "nilpotent_block", horizon=1, nilpotent_dim=3), "horizon"),
        (live_scalar_problem(1.0, 60, dead_input=True)[0], "R_full is singular"),
    ],
    ids=["short_horizon", "singular_full_curvature"],
)
def test_solve_closed_form_refusal_validates_once(tmp_path, capsys, report_builds, problem, reason):
    # The refusal comes after the reduced solve has validated the loaded
    # problem, and the full recursion that replaces it reads the same report.
    path = _write(tmp_path, problem)
    code, report, _ = _run(capsys, ["solve", path, "--method", "closed-form"])
    assert code == 2 and reason in report["reason"]
    assert report["results"]["method_used"] == "full"
    assert len(report_builds) == 1
    trace = float(np.trace(grde.solve_full(problem).X[0]))
    assert report["results"]["X0_trace"] == trace
    _assert_library_falls_back(problem, "closed-form", report["reason"])


def _r_zero():
    # With m = 1 the singular_R kind has R = 0, so the reference search
    # cannot double from X_0 = 0 and doubles from X_1 = riccati_map(0).
    problem = random_problem(6, 1, 1, "singular_R", horizon=60)
    assert not problem.triple.R.any()
    assert "doubling" in find_reference(problem).message
    return problem


def _r_below_certificate():
    # R = diag(1, 1e-13) is positive definite but too close to singular for
    # the full-rank certificate; each curvature R + B^T X B is judged on its own.
    base = random_problem(6, 2, 11, "generic", horizon=40)
    triple = dataclasses.replace(base.triple, R=np.diag([1.0, 1e-13]), S=np.zeros((6, 2)))
    assert not linalg._certified_nonsingular(triple.R)
    return dataclasses.replace(base, triple=triple)


@pytest.mark.parametrize(
    "make, dim_u",
    [
        (lambda: random_problem(12, 2, 3, "nilpotent_block", horizon=500, nilpotent_dim=2), 2),
        (lambda: LONG, 1),
        # No nilpotent part: U is empty and the whole state is iterated.
        (lambda: random_problem(50, 5, 0, "generic", horizon=200), 0),
        (_r_zero, 1),
        (_r_below_certificate, 1),
    ],
    ids=["live_psi", "stationary_tail", "nu_zero", "R_zero", "R_below_certificate"],
)
def test_reduced_routes_match_the_full_recursion(tmp_path, capsys, make, dim_u):
    # Both reduced routes answer without falling back, fill a certified
    # stationary tail, and give the full recursion's X_0 to 1e-10.
    problem = make()
    path = _write(tmp_path, problem)
    code, full, _ = _run(capsys, ["--json", "solve", path, "--method", "full"])
    assert code == 0 and full["status"] == "ok"
    trace = full["results"]["X0_trace"]
    for method in ("reduced", "closed-form"):
        code, report, _ = _run(capsys, ["--json", "solve", path, "--method", method])
        results = report["results"]
        assert code == 0 and results["method_used"] == method and results["dim_u"] == dim_u, method
        assert results["tail_steps"] > 0 and "checkpoint_off_norm" in report["residuals"], method
        assert abs(results["X0_trace"] - trace) <= 1e-10 * abs(trace), method
    assert results["horizon_prime"] == problem.T - results["nu"]


def test_usage_error_exit_code(capsys):
    # A malformed command line is an input error (1), not a refusal (2).
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["solve", "p.json", "--method", "nope"])
    assert exc.value.code == 1
    # The library refuses an unknown method as a ValueError.
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        solve(scalar_two_step(), "nope")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_solve_uses_x_ref_from_file(tmp_path, capsys):
    problem = scalar_two_step()
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    path = _write(tmp_path, problem, X_ref=np.array([[phi]]))
    code, report, _ = _run(capsys, ["solve", path, "--method", "reduced"])
    assert code == 0
    assert report["results"]["reference_found"]
    assert report["results"]["reference_iterations"] == 0
    # An X_ref that is not a solution is an input error, not a silent search.
    path = _write(tmp_path, problem, name="bad_ref.json", X_ref=np.array([[2.0 * phi]]))
    code, report, _ = _run(capsys, ["solve", path, "--method", "reduced"])
    assert code == 1 and report["status"] == "error"
    assert report["reason"].startswith("supplied reference rejected"), report["reason"]
    with pytest.raises(ReferenceRejectedError, match="supplied reference rejected"):
        solve(problem, "reduced", X_ref=np.array([[2.0 * phi]]))
    # On LONG the supplied reference also fills a certified tail, and gives
    # the full recursion's X_0.
    path = _write(tmp_path, LONG, name="long_ref.json", X_ref=find_reference(LONG).solution.X)
    _, full, _ = _run(capsys, ["solve", path, "--method", "full"])
    code, report, _ = _run(capsys, ["solve", path, "--method", "reduced"])
    results = report["results"]
    assert code == 0 and results["method_used"] == "reduced"
    assert results["reference_iterations"] == 0 and results["tail_steps"] > 0
    trace = full["results"]["X0_trace"]
    assert abs(results["X0_trace"] - trace) <= 1e-10 * abs(trace)


def test_analyze_full_level(tmp_path, capsys):
    # The second problem's 50 x 50 closed loop is non-singular: the staircase
    # certifies its full rank without an SVD, and the determinant identity's
    # right side comes from A_X's eigenvalues.
    for gen in (
        ["--n", "4", "--m", "2", "--seed", "11", "--kind", "nilpotent_block", "--horizon", "12"],
        ["--n", "50", "--m", "5", "--kind", "generic", "--horizon", "200"],
    ):
        path = str(tmp_path / "gen.json")
        _run(capsys, ["gen", *gen, "--out", path])
        code, report, err = _run(capsys, ["analyze", path])
        assert code == 0
        assert report["results"]["analysis_level"] == "full"
        assert report["results"]["pencil"]["criterion_consistent"]
        assert report["results"]["closed_loop"]["criterion_consistent"]
        assert report["results"]["mu"]["additive"]
        assert report["residuals"]["det_identity_worst"] <= 1e-8, gen
        assert "seed" not in report["inputs"]
        assert "mu:" in err


def test_analyze_invalid_problem_pencil_only(tmp_path, capsys):
    doc = {
        "n": 1, "m": 1,
        "A": [[0.5]], "B": [[1.0]], "Q": [[0.0]], "S": [[1.0]], "R": [[0.0]],
        "P": [[0.0]], "T": 3,
    }
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    code, report, _ = _run(capsys, ["analyze", str(path)])
    assert code == 0  # analysis always reports what it can
    assert report["results"]["analysis_level"] == "pencil-only"
    assert not report["results"]["validation_passed"]
    # Instructive corner: with the kernel inclusion violated (S = 1, R = 0)
    # the R-singular/N-singular equivalence loses its hypotheses -- N is
    # genuinely nonsingular here and the criterion must report the mismatch
    # rather than paper over it.
    assert report["results"]["pencil"]["R_singular"]
    assert not report["results"]["pencil"]["N_singular"]
    assert not report["results"]["pencil"]["criterion_consistent"]


def test_verify_x0_flag(tmp_path, capsys):
    problem = scalar_two_step()
    from griccati.model import LQProblem

    stripped = LQProblem(problem.triple, problem.P, problem.T)  # no x0
    path = _write(tmp_path, stripped, name="nox0.json")
    code, report, _ = _run(capsys, ["verify", path])
    assert code == 1  # needs an initial state
    code, report, _ = _run(capsys, ["verify", path, "--x0", "1"])
    assert code == 0
    assert abs(report["results"]["cost_grde"] - 1.5) <= 1e-9
    code, report, _ = _run(capsys, ["verify", path, "--x0", "1,2"])
    assert code == 1
    # argparse reads "-1,0.5" after a space as an option, so a vector with
    # a negative first entry needs the "=" form.
    problem = random_problem(2, 1, 2201, "generic", horizon=3)
    path = _write(tmp_path, problem, name="two.json")
    with pytest.raises(SystemExit) as exc:
        main(["verify", path, "--x0", "-1,0.5"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err
    code, report, _ = _run(capsys, ["verify", path, "--x0=-1,0.5"])
    assert code == 0
    assert report["inputs"]["x0"] == [-1.0, 0.5]
    x0 = np.array([-1.0, 0.5])
    assert report["results"]["cost_grde"] == x0 @ grde.solve_full(problem).X[0] @ x0


def test_verify_validates_once(tmp_path, capsys, report_builds):
    # The recursion and the batch QP both validate the loaded problem; the
    # report is built once.  The second problem has R = 0 and m > n: its
    # 40-input batch QP has rank 20, so the minimiser takes the eigen path,
    # and the three costs must still agree.
    for problem in (
        random_problem(4, 2, 2200, "nilpotent_block", horizon=12),
        random_problem(2, 4, 3, "singular_R", horizon=10),
    ):
        report_builds.clear()
        path = _write(tmp_path, problem)
        code, report, _ = _run(capsys, ["verify", path])
        assert code == 0 and report["status"] == "ok"
        assert len(report_builds) == 1
        assert report["results"]["cost_grde"] == grde.optimal_cost(grde.solve_full(problem), problem.x0)


def test_verify_x0_rejects_non_finite(tmp_path, capsys):
    path = _write(tmp_path, scalar_two_step())
    for x0 in ("nan", "inf", "-inf"):
        code, report, _ = _run(capsys, ["verify", path, f"--x0={x0}"])
        assert code == 1
        assert report["status"] == "error"
        assert "non-finite" in report["reason"]


def test_analyze_x_ref_file(tmp_path, capsys):
    # analyze reads a reference from the problem file, as solve does.
    path = _write(tmp_path, scalar_two_step(), X_ref=np.array([[PHI]]))
    code, report, _ = _run(capsys, ["analyze", path])
    assert code == 0
    assert report["results"]["reference_found"]
    assert report["results"]["analysis_level"] == "full"
    assert report["residuals"]["reference_residual"] <= 1e-12
    # A well-formed X_ref that is not a solution leaves only the pencil.
    path = _write(tmp_path, scalar_two_step(), name="bad_ref.json", X_ref=np.array([[2.0 * PHI]]))
    code, report, _ = _run(capsys, ["analyze", path])
    assert code == 0
    assert report["results"]["analysis_level"] == "pencil-only"
    assert report["reason"].startswith("supplied reference rejected"), report["reason"]


def test_analyze_x_ref_malformed(tmp_path, capsys):
    doc = json.loads(problem_to_json(scalar_two_step(), np.array([[PHI]])))
    doc["X_ref"] = [[PHI, 0.0]]
    path = tmp_path / "bad_ref.json"
    path.write_text(json.dumps(doc))
    code, report, _ = _run(capsys, ["analyze", str(path)])
    assert code == 1
    assert report["status"] == "error"
    assert "X_ref" in report["reason"]


def test_analyze_takes_only_the_problem(tmp_path):
    # No second reference file and no seed: the determinant samples are fixed.
    path = _write(tmp_path, scalar_two_step())
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps([[PHI]]))
    for extra in (["--x-ref", str(ref)], ["--seed", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", path, *extra])
        assert exc.value.code == 1, extra


def test_analyze_decides_the_drift_once(tmp_path, capsys, monkeypatch):
    # Both pencil criteria read one decision on A - B R^+ S^T per triple,
    # and model takes it from one n x n rank test.
    shapes = []
    is_nonsingular = model.is_nonsingular

    def counted(M, scale=0.0):
        shapes.append(M.shape)
        return is_nonsingular(M, scale)

    monkeypatch.setattr(model, "is_nonsingular", counted)
    path = _write(tmp_path, random_problem(4, 2, 11, "nilpotent_block", horizon=12))
    code, report, _ = _run(capsys, ["analyze", path])
    assert code == 0 and report["results"]["analysis_level"] == "full"
    assert "drift_singular" in report["results"]["pencil"] and "drift_singular" in report["results"]["closed_loop"]
    assert shapes == [(4, 4)]


def test_solve_falls_back_when_the_reduction_fails_its_checks(tmp_path, capsys):
    # At n = 200 the rotated closed loop's lower-left block is 1.6e-7, beyond
    # the invariance tolerance: build_reduction raises, and the command falls
    # back to the full recursion instead of exiting 3.
    problem = random_problem(200, 5, 1, "nilpotent_block", nilpotent_dim=20)
    with pytest.raises(InternalInconsistencyError, match="not invariant"):
        build_reduction(problem, find_reference(problem).solution)
    path = _write(tmp_path, problem)
    _, full, _ = _run(capsys, ["--json", "solve", path, "--method", "full"])
    for method in ("reduced", "closed-form"):
        code, report, _ = _run(capsys, ["--json", "solve", path, "--method", method])
        assert code == 2 and report["status"] == "fallback", method
        assert "not invariant" in report["reason"]
        assert report["results"]["method_used"] == "full"
        assert report["results"]["X0_trace"] == full["results"]["X0_trace"]
        # The library reports the same fallback instead of raising.
        _assert_library_falls_back(problem, method, report["reason"])


def test_json_flag_suppresses_summary(tmp_path, capsys):
    path = _write(tmp_path, scalar_two_step())
    code, report, err = _run(capsys, ["--json", "validate", path])
    assert code == 0
    assert report is not None
    assert err == ""
    _, _, err = _run(capsys, ["validate", path])
    assert err != ""


def test_solve_invalid_problem_exit_code(tmp_path, capsys):
    # Every command that validates the problem refuses it, the reduced
    # solves and verify included; validate reports the failed check.
    problem = random_problem(6, 2, 3, "nilpotent_block", horizon=20, nilpotent_dim=3)
    path = _write(tmp_path, dataclasses.replace(problem, P=-np.eye(problem.n)))
    solves = [["solve", path, "--method", method] for method in ("full", "reduced", "closed-form")]
    for argv in solves + [["verify", path]]:
        code, report, err = _run(capsys, argv)
        assert code == 1, argv
        assert report["status"] == "error"
        assert err == "error: problem validation failed: terminal_psd\n"
    code, report, _ = _run(capsys, ["--json", "validate", path])
    assert code == 1 and report["status"] == "error" and report["reason"] == "problem validation failed: terminal_psd"
    assert [c["name"] for c in report["results"]["checks"] if not c["passed"]] == ["terminal_psd"]


def test_validate_fails_a_check_whose_limit_overflows(tmp_path, capsys):
    # Q[0][0] = 1e300 overflows ||Pi||_F, and with it popov_symmetric's
    # limit; an infinite limit would pass any residual, so the check fails.
    # The overflow raises no RuntimeWarning, an error under this suite.  The
    # report stays strict JSON (_run refuses Infinity and NaN, as JSON.parse
    # does): the infinite limit is written as null.
    doc = json.loads(problem_to_json(random_problem(3, 2, 1, "generic")))
    doc["Q"][0][0] = 1e300
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, report, _ = _run(capsys, ["--json", "validate", str(path)])
    assert code == 1 and report["status"] == "error"
    assert report["reason"] == "problem validation failed: popov_symmetric"
    failed = [c for c in report["results"]["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["popov_symmetric"] and failed[0]["threshold"] is None
    code, _, err = _run(capsys, ["solve", str(path)])
    assert code == 1 and err == "error: problem validation failed: popov_symmetric\n"
    # A terminal weight of 6e307 overflows its largest eigenvalue too, so
    # the PSD check's limit is infinite as well, and both terminal checks fail.
    problem = model.LQProblem(random_problem(3, 2, 1, "generic").triple, np.full((3, 3), 6e307), 3)
    failed = [c for c in model.validate(problem).checks if not c.passed]
    assert [c.name for c in failed] == ["terminal_symmetric", "terminal_psd"]
    assert all(c.threshold == np.inf for c in failed)


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (ValueError("bad input"), 1, "error"),
        (FileNotFoundError("no file"), 1, "error"),
        (NumericalRefusal("cannot"), 2, "numerical refusal"),
        (InternalInconsistencyError("broken"), 3, "internal inconsistency"),
    ],
)
def test_error_exit_codes(tmp_path, capsys, monkeypatch, exc, code, prefix):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_validate", fail)
    got, report, err = _run(capsys, ["validate", "p.json"])
    assert got == code
    assert report == {
        "command": "validate",
        "inputs": {},
        "results": {},
        "residuals": {},
        "timings": {},
        "status": "error",
        "reason": str(exc),
    }
    assert err == f"{prefix}: {exc}\n"


def test_tolerance_flags_rejected(tmp_path, capsys):
    # The cutoffs are fixed constants of griccati.linalg; the flags are gone.
    path = _write(tmp_path, scalar_two_step())
    for flag, value in (("--rank-tol", "1e-12"), ("--residual-tol", "1e-10")):
        with pytest.raises(SystemExit) as exc:
            main([flag, value, "verify", path])
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err


def test_console_script_entry_point(tmp_path):
    path = _write(tmp_path, scalar_two_step())
    proc = subprocess.run(
        [sys.executable, "-m", "griccati.cli", "validate", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout, parse_constant=_refuse_constant)
    assert report["status"] == "ok"


def test_validate_lists_the_checks_of_an_overflowing_terminal_weight(tmp_path, capsys):
    # P = 1e308 everywhere: the PSD check's eigen-solve would not converge
    # on the overflowing symmetric part, so the check fails by name and the
    # report still lists every check, in strict JSON.
    doc = json.loads(problem_to_json(random_problem(3, 2, 1, "generic")))
    doc["P"] = [[1e308] * 3 for _ in range(3)]
    path = tmp_path / "huge_p.json"
    path.write_text(json.dumps(doc))
    code, report, _ = _run(capsys, ["--json", "validate", str(path)])
    assert code == 1 and report["status"] == "error"
    assert report["reason"] == "problem validation failed: terminal_symmetric, terminal_psd"
    checks = report["results"]["checks"]
    assert [c["name"] for c in checks] == [
        "popov_symmetric", "popov_psd", "kernel_inclusion", "terminal_symmetric", "terminal_psd"
    ]
    assert [c["name"] for c in checks if not c["passed"]] == ["terminal_symmetric", "terminal_psd"]
    assert checks[-1]["residual"] is None  # infinite, written as null

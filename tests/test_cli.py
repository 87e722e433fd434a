import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from griccati import cli
from griccati.cli import main
from griccati.linalg import InternalInconsistencyError, NumericalRefusal
from griccati.model import problem_to_json, random_problem, save_problem

from conftest import scalar_two_step


def _write(tmp_path, problem, name="prob.json", X_ref=None):
    path = tmp_path / name
    save_problem(problem, path, X_ref=X_ref)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


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
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code, report, _ = _run(capsys, ["validate", str(path)])
    assert code == 1
    assert report["status"] == "error"
    assert "malformed" in report["reason"]


def test_missing_file_exit_code(tmp_path, capsys):
    code, report, _ = _run(capsys, ["solve", str(tmp_path / "nope.json")])
    assert code == 1
    assert report["status"] == "error"


def test_gen_validate_solve_verify_pipeline(tmp_path, capsys):
    path = str(tmp_path / "gen.json")
    code, report, _ = _run(
        capsys,
        ["gen", "--n", "4", "--m", "2", "--seed", "11", "--kind", "nilpotent_block", "--horizon", "12", "--out", path],
    )
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
    assert worst <= 1e-6


def test_solve_writes_trajectory(tmp_path, capsys):
    path = _write(tmp_path, scalar_two_step())
    out = str(tmp_path / "traj.json")
    code, report, _ = _run(capsys, ["solve", path, "--out", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["T"] == 2
    assert doc["X"][0] == [[1.5]]
    assert len(doc["K"]) == 2


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


def test_solve_closed_form_long_horizon(tmp_path, capsys):
    from griccati.grde import solve_full
    from griccati.model import random_problem

    problem = random_problem(12, 2, 3, "nilpotent_block", horizon=500, nilpotent_dim=2)
    path = _write(tmp_path, problem)
    code, report, _ = _run(capsys, ["--json", "solve", path, "--method", "closed-form"])
    assert code == 0
    assert report["results"]["method_used"] == "closed-form"
    assert report["results"]["horizon_prime"] == 500 - report["results"]["nu"]
    assert "checkpoint_off_norm" in report["residuals"]
    trace = float(np.trace(solve_full(problem).X[0]))
    assert abs(report["results"]["X0_trace"] - trace) <= 1e-8 * (1.0 + abs(trace))


def test_usage_error_exit_code(capsys):
    # A malformed command line is an input error (1), not a refusal (2).
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["solve", "p.json", "--method", "nope"])
    assert exc.value.code == 1
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


def test_analyze_full_level(tmp_path, capsys):
    path = str(tmp_path / "nb.json")
    _run(capsys, ["gen", "--n", "4", "--m", "2", "--seed", "11", "--kind", "nilpotent_block", "--horizon", "12", "--out", path])
    code, report, err = _run(capsys, ["analyze", path])
    assert code == 0
    assert report["results"]["analysis_level"] == "full"
    assert report["results"]["pencil"]["criterion_consistent"]
    assert report["results"]["closed_loop"]["criterion_consistent"]
    assert report["results"]["mu"]["additive"]
    assert report["residuals"]["det_identity_worst"] <= 1e-8
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


def test_json_flag_suppresses_summary(tmp_path, capsys):
    path = _write(tmp_path, scalar_two_step())
    code, report, err = _run(capsys, ["--json", "validate", path])
    assert code == 0
    assert report is not None
    assert err == ""
    _, _, err = _run(capsys, ["validate", path])
    assert err != ""


def test_solve_invalid_problem_exit_code(tmp_path, capsys):
    # Every method validates the problem, the reduced ones included.
    problem = random_problem(6, 2, 3, "nilpotent_block", horizon=20, nilpotent_dim=3)
    path = _write(tmp_path, dataclasses.replace(problem, P=-np.eye(problem.n)))
    for method in ("full", "reduced", "closed-form"):
        code, report, err = _run(capsys, ["solve", path, "--method", method])
        assert code == 1, method
        assert report["status"] == "error"
        assert err == "error: problem validation failed: terminal_psd\n"


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
    report = json.loads(proc.stdout)
    assert report["status"] == "ok"

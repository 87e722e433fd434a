import json

import numpy as np
import pytest

from griccati.linalg import RANK_REL
from griccati.model import (
    LQProblem,
    PopovTriple,
    ProblemFormatError,
    ProblemValidationError,
    Xorshift64Star,
    load_problem,
    problem_from_json,
    problem_to_json,
    random_problem,
    require_valid,
    save_problem,
    validate,
)

from conftest import scalar_two_step


def test_triple_shape_errors_name_the_field():
    with pytest.raises(ValueError, match="field A"):
        PopovTriple([[1.0, 0.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])
    with pytest.raises(ValueError, match="field B"):
        PopovTriple([[1.0]], [[1.0], [2.0]], [[1.0]], [[0.0]], [[1.0]])
    with pytest.raises(ValueError, match="field S"):
        PopovTriple(np.eye(2), np.ones((2, 1)), np.eye(2), np.ones((1, 2)), [[1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        PopovTriple([[np.nan]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])


def test_problem_field_errors():
    triple = PopovTriple([[1.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])
    with pytest.raises(ValueError, match="field T"):
        LQProblem(triple, [[0.0]], -1)
    with pytest.raises(ValueError, match="field T"):
        LQProblem(triple, [[0.0]], 1.5)
    with pytest.raises(ValueError, match="field x0"):
        LQProblem(triple, [[0.0]], 2, [1.0, 2.0])


def test_validate_accepts_boundary_psd():
    # Q = S R^+ S^T makes the stacked weight matrix PSD with zero Schur
    # complement -- validation must accept it, not just strictly PD data.
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, m = 3, 2
        L = rng.normal(size=(m, m))
        R = L @ L.T + 0.1 * np.eye(m)
        S = rng.normal(size=(n, m))
        Q = S @ np.linalg.solve(R, S.T)
        report = validate(PopovTriple(np.zeros((n, n)), rng.normal(size=(n, m)), Q, S, R))
        assert report.passed, report.to_dict()


def test_validate_rejects_indefinite():
    # Scalar Q = 0, S = 1, R = 0: weight matrix [[0,1],[1,0]] is indefinite
    # and S does not vanish on ker R.
    report = validate(PopovTriple([[0.5]], [[1.0]], [[0.0]], [[1.0]], [[0.0]]))
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "popov_psd" in failed
    assert "kernel_inclusion" in failed


def test_validate_terminal_checks():
    triple = PopovTriple([[1.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])
    report = validate(LQProblem(triple, [[-1.0]], 2))
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"terminal_psd"}
    assert validate(LQProblem(triple, [[0.0]], 2)).passed


def test_require_valid_raises_with_report():
    bad = LQProblem(PopovTriple([[0.5]], [[1.0]], [[0.0]], [[1.0]], [[0.0]]), [[0.0]], 1)
    with pytest.raises(ProblemValidationError) as ei:
        require_valid(bad)
    assert any(not c.passed for c in ei.value.report.checks)


def test_json_round_trip_bit_identical(tmp_path):
    problem = random_problem(3, 2, 77, "generic")
    text = problem_to_json(problem)
    loaded, x_ref = problem_from_json(text)
    assert x_ref is None
    assert problem_to_json(loaded) == text
    path = tmp_path / "prob.json"
    save_problem(problem, path)
    again, _ = load_problem(path)
    assert problem_to_json(again) == text


def test_json_17_digit_format():
    triple = PopovTriple([[1.0 / 3.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])
    text = problem_to_json(LQProblem(triple, [[0.0]], 1))
    assert "0.33333333333333331" in text
    reparsed, _ = problem_from_json(text)
    assert reparsed.triple.A[0, 0] == 1.0 / 3.0


def test_json_x_ref_round_trip():
    problem = scalar_two_step()
    X = np.array([[1.6180339887498949]])
    text = problem_to_json(problem, X_ref=X)
    loaded, x_ref = problem_from_json(text)
    assert x_ref is not None
    assert x_ref[0, 0] == X[0, 0]


def test_json_rejects_unknown_field():
    text = problem_to_json(scalar_two_step())
    doc = json.loads(text)
    doc["extra"] = 1
    with pytest.raises(ProblemFormatError, match="unknown field"):
        problem_from_json(json.dumps(doc))


def test_json_reports_missing_fields_by_name():
    doc = json.loads(problem_to_json(scalar_two_step()))
    del doc["R"]
    with pytest.raises(ProblemFormatError, match="R"):
        problem_from_json(json.dumps(doc))


def test_json_malformed_number_has_location():
    text = problem_to_json(scalar_two_step()).replace("2", "oops", 1)
    with pytest.raises(ProblemFormatError, match="line"):
        problem_from_json(text)


def test_json_bad_dimension_errors():
    doc = json.loads(problem_to_json(scalar_two_step()))
    doc["A"] = [[1.0, 2.0]]
    with pytest.raises(ProblemFormatError, match="field A"):
        problem_from_json(json.dumps(doc))
    doc = json.loads(problem_to_json(scalar_two_step()))
    doc["T"] = -3
    with pytest.raises(ProblemFormatError, match="field T"):
        problem_from_json(json.dumps(doc))


def test_xorshift_frozen_outputs():
    # First raw outputs, frozen from an independent implementation of the
    # documented recurrence (corpus-v1).
    g = Xorshift64Star(1)
    assert [g.next_u64() for _ in range(3)] == [
        5180492295206395165,
        12380297144915551517,
        13389498078930870103,
    ]
    g = Xorshift64Star(42)
    assert g.next_u64() == 6255019084209693600
    # Seed 0 is remapped, not absorbing.
    g = Xorshift64Star(0)
    assert g.next_u64() == 973819730272012410


def test_xorshift_matches_reference_recurrence():
    mask = (1 << 64) - 1

    def reference(state, steps):
        out = []
        for _ in range(steps):
            state ^= state >> 12
            state = (state ^ (state << 25)) & mask
            state ^= state >> 27
            out.append((state * 0x2545F4914F6CDD1D) & mask)
        return out

    for seed in (1, 2, 99, 2**63 + 5):
        g = Xorshift64Star(seed)
        assert [g.next_u64() for _ in range(50)] == reference(seed & mask, 50)


def test_xorshift_uniform_range_and_matrix_order():
    g = Xorshift64Star(7)
    vals = [g.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    # matrix() consumes draws row-major: rebuilding from a fresh generator
    # with explicit loops must give the identical matrix.
    g1 = Xorshift64Star(123)
    M = g1.matrix(3, 2)
    g2 = Xorshift64Star(123)
    expect = np.array([[2.0 * g2.uniform() - 1.0 for _ in range(2)] for _ in range(3)])
    assert np.array_equal(M, expect)


def test_random_problem_deterministic():
    for kind in ("generic", "singular_R", "nilpotent_block"):
        a = random_problem(4, 2, 55, kind)
        b = random_problem(4, 2, 55, kind)
        assert problem_to_json(a) == problem_to_json(b)
    assert problem_to_json(random_problem(4, 2, 55)) != problem_to_json(random_problem(4, 2, 56))


def test_random_problem_all_kinds_validate():
    for i in range(30):
        kind = ("generic", "singular_R", "nilpotent_block")[i % 3]
        problem = random_problem(2 + i % 4, 1 + i % 3, 3000 + i, kind)
        assert validate(problem).passed, (kind, i)
        assert problem.x0 is not None
        assert problem.T >= 1


def test_singular_r_kind_is_singular():
    for i in range(20):
        m = 2 + i % 2
        problem = random_problem(3, m, 400 + i, "singular_R")
        R = problem.triple.R
        s = np.linalg.svd(R, compute_uv=False)
        assert s[-1] <= RANK_REL * max(1.0, s[0]), "R must be rank deficient"


def test_singular_r_with_one_input_degenerates():
    problem = random_problem(3, 1, 9, "singular_R")
    assert np.all(problem.triple.R == 0.0)
    assert np.all(problem.triple.S == 0.0)


def test_nilpotent_block_structure():
    problem = random_problem(5, 2, 21, "nilpotent_block", nilpotent_dim=3)
    A, B, S = problem.triple.A, problem.triple.B, problem.triple.S
    J = A[:3, :3]
    assert np.array_equal(J, np.diag(np.ones(2), 1))
    assert np.all(A[:3, 3:] == 0.0) and np.all(A[3:, :3] == 0.0)
    assert np.all(B[:3, :] == 0.0)
    assert np.all(S == 0.0)
    assert np.all(problem.triple.Q[:3, 3:] == 0.0)


def test_random_problem_overrides_and_errors():
    assert random_problem(3, 1, 5, horizon=17).T == 17
    assert random_problem(4, 1, 5, "nilpotent_block", nilpotent_dim=2).triple.A[1, 2] == 0.0
    with pytest.raises(ValueError, match="n >= 1"):
        random_problem(0, 1, 1)
    with pytest.raises(ValueError, match="unknown kind"):
        random_problem(2, 1, 1, "weird")
    with pytest.raises(ValueError, match="n >= 2"):
        random_problem(1, 1, 1, "nilpotent_block")
    with pytest.raises(ValueError, match="nilpotent_dim"):
        random_problem(3, 1, 1, "nilpotent_block", nilpotent_dim=3)

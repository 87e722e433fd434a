"""Each kind of input has one check, and every entry point that takes one
refuses a bad one with that check's message: initial states (and the other
vectors), symmetric matrices of a given size, and square matrices."""

import contextlib
import copy
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from griccati import linalg
from griccati.cgdare import closed_loop, find_reference, gdare_residual
from griccati.cli import main
from griccati.grde import optimal_cost, riccati_map, simulate, solve_full
from griccati.model import LQProblem, PopovTriple, ProblemFormatError, problem_from_json, problem_to_json
from griccati.model import random_problem, save_problem
from griccati.oracle import batch_matrices
from griccati.reduction import build_reduction, reduced_step

PROBLEM = random_problem(4, 2, 11, "nilpotent_block", horizon=6)
BARE = LQProblem(PROBLEM.triple, PROBLEM.P, PROBLEM.T)  # no x0
TRAJ = solve_full(PROBLEM)
RD = build_reduction(PROBLEM, find_reference(PROBLEM).solution)

X0_FAULTS = {
    "missing": (None, "no initial state: problem has no x0 and none was supplied"),
    "short": ([1.0, 2.0], "field x0 has length 2, expected 4"),
    "nan": ([np.nan, 0.0, 0.0, 0.0], "field x0 contains non-finite entries"),
    "inf": ([0.0, np.inf, 0.0, 0.0], "field x0 contains non-finite entries"),
    "nested": ([[1.0, 2.0], [3.0, 4.0]], "field x0 must be a flat array"),
}


def _problem_file(x0):
    doc = json.loads(problem_to_json(PROBLEM))
    doc["x0"] = x0
    return problem_from_json(json.dumps(doc))


def _verify(x0, tmp_path, capsys):
    """griccati verify with --x0, or on the file without x0; raises ValueError
    with the report's reason on exit 1."""
    path = str(tmp_path / "p.json")
    save_problem(BARE if x0 is None else PROBLEM, path)
    argv = ["--json", "verify", path] + ([] if x0 is None else ["--x0=" + ",".join(map(str, x0))])
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["status"] == "error", (code, report)
    raise ValueError(report["reason"])


# Where the x0 is missing, LQProblem, optimal_cost and the problem file have
# nothing to refuse: x0 is optional in the first and last, required by
# signature in optimal_cost.
X0_ENTRIES = {
    "LQProblem": lambda x0, tmp_path, capsys: LQProblem(PROBLEM.triple, PROBLEM.P, PROBLEM.T, x0),
    "simulate": lambda x0, tmp_path, capsys: simulate(BARE, TRAJ, x0),
    "batch_matrices": lambda x0, tmp_path, capsys: batch_matrices(BARE, x0),
    "optimal_cost": lambda x0, tmp_path, capsys: optimal_cost(TRAJ, x0),
    "problem file": lambda x0, tmp_path, capsys: _problem_file(x0),
    "verify --x0": _verify,
}
X0_CASES = [
    (entry, fault)
    for entry in X0_ENTRIES
    for fault in X0_FAULTS
    if fault != "missing" or entry in ("simulate", "batch_matrices", "verify --x0")
    if fault != "nested" or entry != "verify --x0"  # --x0 is a flat list by its syntax
]


@pytest.mark.parametrize("entry, fault", X0_CASES)
def test_initial_state_refused_with_one_message(entry, fault, tmp_path, capsys):
    x0, message = X0_FAULTS[fault]
    with pytest.raises(ValueError) as exc:
        X0_ENTRIES[entry](x0, tmp_path, capsys)
    assert str(exc.value) == message
    if entry == "problem file":
        assert isinstance(exc.value, ProblemFormatError)


def test_initial_state_is_the_given_or_the_problems_own():
    assert np.array_equal(PROBLEM.initial_state(), PROBLEM.x0)
    assert np.array_equal(BARE.initial_state([1, 2, 3, 4]), [1.0, 2.0, 3.0, 4.0])
    # Only a 1-D x0 is one, as in the problem file: a column, a row or a
    # scalar is refused with the file's message, not flattened.
    for shaped in (np.ones((4, 1)), np.ones((1, 4)), np.ones((2, 2)), 1.0):
        with pytest.raises(ValueError, match="^field x0 must be a flat array$"):
            PROBLEM.initial_state(shaped)


def test_problem_file_rejects_nested_x0():
    for nested in ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0, 3.0, 4.0]], [[1, 2], [3]], [["a"]]):
        with pytest.raises(ProblemFormatError, match="field x0 must be a flat array"):
            _problem_file(nested)


@pytest.mark.parametrize("field", ["A", "B", "Q", "S", "R", "P", "x0", "X_ref"])
def test_problem_file_reads_only_numbers(field):
    # A JSON true is not 1.0: every entry of a numeric field must be a JSON
    # number, and an integer too large for a double is refused as well.
    doc = json.loads(problem_to_json(PROBLEM, X_ref=np.eye(4)))
    row = doc[field] if field == "x0" else doc[field][0]
    faults = ((True, "boolean"), (False, "boolean"), ({}, "object"), ("1", "string"), (None, "null"))
    for value, kind in faults:
        row[0] = value
        with pytest.raises(ProblemFormatError, match=f"^field {field} must hold numbers, not {kind}$"):
            problem_from_json(json.dumps(doc))
    row[0] = 10**400
    with pytest.raises(ProblemFormatError, match=f"^field {field} is not numeric: int too large"):
        problem_from_json(json.dumps(doc))


# A valid problem file (X_ref included) and random edits to it: a value of
# any JSON type in place of a field or an entry, one level of nesting more
# or less, an entry, row or field dropped or repeated, an unknown field.
EDITED = json.loads(problem_to_json(random_problem(3, 2, 11, "nilpotent_block", horizon=4), X_ref=np.eye(3)))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.just(10**400) | st.sampled_from([0.5, np.nan, np.inf])
    | st.text(max_size=1),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=1), inner, max_size=1),
    max_leaves=4,
)
NAMES_A_FIELD = re.compile(r"(?:field|unknown field\(s\):|missing field\(s\):) (\w+)")


@st.composite
def edited_documents(draw):
    doc = copy.deepcopy(EDITED)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["replace", "wrap", "unwrap", "drop", "repeat", "unknown"]))
        if edit == "unknown" or not doc:
            doc[draw(st.sampled_from(["extra", "X", "x1"]))] = draw(JSON_VALUES)
            continue
        parent, index = doc, draw(st.sampled_from(sorted(doc)))
        while isinstance(parent[index], list) and parent[index] and draw(st.booleans()):
            parent, index = parent[index], draw(st.integers(0, len(parent[index]) - 1))
        node = parent[index]
        if edit == "replace":
            parent[index] = draw(JSON_VALUES)
        elif edit == "wrap":
            parent[index] = [node]
        elif edit == "unwrap" and isinstance(node, list) and node:
            parent[index] = node[0]
        elif edit == "drop":
            del parent[index]
        elif edit == "repeat" and isinstance(parent, list):
            parent.insert(index, copy.deepcopy(node))
    return doc


@settings(derandomize=True, deadline=None, max_examples=150)
@given(doc=edited_documents())
def test_edited_problem_files_load_or_name_a_field(doc, tmp_path_factory):
    # Every edit either loads or is refused by a ProblemFormatError that
    # names the field; griccati validate answers each with a JSON report.
    text = json.dumps(doc)
    try:
        problem_from_json(text)
    except ProblemFormatError as exc:
        named = NAMES_A_FIELD.match(str(exc))
        assert named and named.group(1) in set(EDITED) | set(doc), str(exc)
    path = tmp_path_factory.getbasetemp() / "edited.json"
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--json", "validate", str(path)])
    assert code in (0, 1, 2)
    assert json.loads(out.getvalue())["command"] == "validate"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: simulate(PROBLEM, TRAJ, v=[[np.nan, 0.0]] * PROBLEM.T), "v[0] contains non-finite entries"),
        (lambda: simulate(PROBLEM, TRAJ, v=[[0.0, 0.0]] * 3 + [[1.0]] * 3), "v[3] has length 1, expected 2"),
        (lambda: linalg.symmetric_lstsq(np.eye(2), [np.nan, 1.0]), "right-hand side contains non-finite entries"),
    ],
    ids=["simulate v nan", "simulate v short", "symmetric_lstsq b nan"],
)
def test_free_vectors_are_checked(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: riccati_map(np.eye(3), PROBLEM.triple), "riccati_map input has size 3, expected 4"),
        (lambda: closed_loop(np.eye(5), PROBLEM.triple), "candidate solution has size 5, expected 4"),
        (lambda: gdare_residual(np.eye(3), PROBLEM.triple), "candidate solution has size 3, expected 4"),
        (
            lambda: reduced_step(np.eye(RD.dim_reduced + 2), RD),
            f"reduced-state Psi has size {RD.dim_reduced + 2}, expected {RD.dim_reduced}",
        ),
    ],
    ids=["riccati_map", "closed_loop", "gdare_residual", "reduced_step"],
)
def test_symmetric_size_mismatch_refused(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda M: linalg.check_symmetric(M), "matrix"),
        (lambda M: linalg.is_nonsingular(M), "singularity test input"),
        (lambda M: linalg.nilpotent_eigenspace(M), "nilpotent eigenspace input"),
        (lambda M: linalg.spectral_radius(M), "spectral radius input"),
        (lambda M: linalg.symmetric_lstsq(M, [1.0, 1.0]), "symmetric solve input"),
        (lambda M: PopovTriple(M, np.ones((2, 1)), np.eye(2), np.zeros((2, 1)), [[1.0]]), "field A"),
    ],
    ids=[
        "check_symmetric", "is_nonsingular", "nilpotent_eigenspace", "spectral_radius", "symmetric_lstsq", "PopovTriple"
    ],
)
def test_non_square_refused(call, name):
    with pytest.raises(ValueError) as exc:
        call(np.ones((2, 3)))
    assert str(exc.value) == f"{name} must be square, got shape (2, 3)"


@pytest.mark.parametrize(
    "call, value, message",
    [
        (
            lambda b: PopovTriple(np.eye(4), b, np.eye(4), np.zeros((4, 1)), [[1.0]]),
            np.ones(4),
            "field B must be 2-dimensional, got shape (4,)",
        ),
        (linalg.pinv, 2.0, "matrix must be 2-dimensional, got shape ()"),
        (linalg.check_symmetric, np.ones(3), "matrix must be 2-dimensional, got shape (3,)"),
        (linalg.check_symmetric, np.ones((1, 2, 2)), "matrix must be 2-dimensional, got shape (1, 2, 2)"),
    ],
    ids=["PopovTriple column B", "pinv scalar", "check_symmetric flat", "check_symmetric 3-D"],
)
def test_matrix_input_must_be_2d(call, value, message):
    # A scalar or a flat array is never read as a 1 x 1 matrix or a row:
    # a column b given flat would otherwise be refused as a 1-row B.
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == message

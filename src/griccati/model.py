"""Problem data model: Popov triples, LQ problems, validation, I/O, generators."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .linalg import RANK_REL, as_matrix, pinv, residual_limit, spectral_radius, symmetrize


class ProblemFormatError(ValueError):
    """Malformed or schema-violating problem file."""


class ProblemValidationError(ValueError):
    """A problem failed semantic validation; carries the offending report."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        super().__init__(f"problem validation failed: {failed}")


def _check_dims(name, M, rows, cols):
    if M.shape != (rows, cols):
        raise ValueError(f"field {name} has shape {M.shape}, expected ({rows}, {cols})")


@dataclass(frozen=True)
class PopovTriple:
    """System and cost data (A, B) with weights (Q, S, R).

    A is n x n, B is n x m, Q is n x n, S is n x m, R is m x m.  Structural
    shape and finiteness errors are raised at construction; the semantic
    invariants (symmetry, positive semidefiniteness of the stacked weight
    matrix, kernel inclusion between R and S) live in :func:`validate`.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"field A must be square, got shape {A.shape}")
        n = A.shape[0]
        B = as_matrix(self.B, "B")
        if B.shape[0] != n:
            raise ValueError(f"field B has {B.shape[0]} rows, expected {n}")
        m = B.shape[1]
        Q = as_matrix(self.Q, "Q")
        S = as_matrix(self.S, "S")
        R = as_matrix(self.R, "R")
        _check_dims("Q", Q, n, n)
        _check_dims("S", S, n, m)
        _check_dims("R", R, m, m)
        for name, val in (("A", A), ("B", B), ("Q", Q), ("S", S), ("R", R)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    # A backward step is the Schur complement of [A B]^T X [A B] + Pi, so
    # every step reads these two; they are built once per triple.
    @cached_property
    def Pi(self) -> np.ndarray:
        """The stacked weight (Popov) matrix [[Q, S], [S^T, R]]."""
        return np.block([[self.Q, self.S], [self.S.T, self.R]])

    @cached_property
    def AB(self) -> np.ndarray:
        return np.hstack([self.A, self.B])


@dataclass(frozen=True)
class LQProblem:
    """Finite-horizon LQ problem: a Popov triple, terminal weight, horizon."""

    triple: PopovTriple
    P: np.ndarray
    T: int
    x0: Optional[np.ndarray] = None

    def __post_init__(self):
        P = as_matrix(self.P, "P")
        _check_dims("P", P, self.triple.n, self.triple.n)
        object.__setattr__(self, "P", P)
        if not isinstance(self.T, (int, np.integer)) or isinstance(self.T, bool):
            raise ValueError(f"field T must be an integer, got {self.T!r}")
        if self.T < 0:
            raise ValueError(f"field T must be non-negative, got {self.T}")
        object.__setattr__(self, "T", int(self.T))
        if self.x0 is not None:
            x0 = np.asarray(self.x0, dtype=float).reshape(-1)
            if x0.shape[0] != self.triple.n:
                raise ValueError(f"field x0 has length {x0.shape[0]}, expected {self.triple.n}")
            if not np.all(np.isfinite(x0)):
                raise ValueError("field x0 contains non-finite entries")
            object.__setattr__(self, "x0", x0)

    @property
    def n(self) -> int:
        return self.triple.n

    @property
    def m(self) -> int:
        return self.triple.m


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    threshold: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "residual": c.residual,
                    "threshold": c.threshold,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _residual_check(name: str, residual: float, scale: float) -> CheckResult:
    thr = residual_limit(scale)
    return CheckResult(name, residual <= thr, residual, thr)


def _psd_check(name: str, M: np.ndarray, describe: bool = False) -> CheckResult:
    """-lambda_min <= RANK_REL * max|lambda| on the symmetric part of M."""
    w = np.linalg.eigvalsh(symmetrize(M)) if M.size else np.zeros(0)
    cutoff = RANK_REL * float(np.max(np.abs(w))) if w.size else 0.0
    neg = float(max(0.0, -np.min(w))) if w.size else 0.0
    detail = ""
    if describe:
        detail = f"eigenvalue range [{w.min():.3e}, {w.max():.3e}]" if w.size else "empty"
    return CheckResult(name, neg <= cutoff, neg, cutoff, detail)


def validate(problem) -> ValidationReport:
    """Semantic validation of a PopovTriple or LQProblem.

    Checks: symmetry of the stacked weight matrix, its positive
    semidefiniteness, the kernel inclusion ker R <= ker S (via the
    projector residual ||S (I - R^+ R)||), and for full problems symmetry
    and positive semidefiniteness of the terminal weight.
    """
    if isinstance(problem, LQProblem):
        triple = problem.triple
        terminal = problem.P
    elif isinstance(problem, PopovTriple):
        triple = problem
        terminal = None
    else:
        raise TypeError(f"validate expects PopovTriple or LQProblem, got {type(problem).__name__}")

    Pi = triple.Pi
    checks = [
        _residual_check("popov_symmetric", float(np.linalg.norm(Pi - Pi.T)), float(np.linalg.norm(Pi))),
        _psd_check("popov_psd", Pi, describe=True),
    ]
    proj_resid = float(np.linalg.norm(triple.S @ (np.eye(triple.m) - pinv(triple.R) @ triple.R)))
    checks.append(_residual_check("kernel_inclusion", proj_resid, float(np.linalg.norm(triple.S))))

    if terminal is not None:
        skew = float(np.linalg.norm(terminal - terminal.T))
        checks.append(_residual_check("terminal_symmetric", skew, float(np.linalg.norm(terminal))))
        checks.append(_psd_check("terminal_psd", terminal))

    return ValidationReport(tuple(checks))


def require_valid(problem):
    """Raise ProblemValidationError unless the problem validates."""
    report = validate(problem)
    if not report.passed:
        raise ProblemValidationError(report)
    return report


# ---------------------------------------------------------------------------
# Serialisation.  Numbers are written with 17 significant digits so that the
# decimal text uniquely determines the underlying double and a load/save
# cycle is byte-identical.
# ---------------------------------------------------------------------------

_FIELDS = ("n", "m", "A", "B", "Q", "S", "R", "P", "T", "x0", "X_ref")
_REQUIRED = ("n", "m", "A", "B", "Q", "S", "R", "P", "T")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_matrix(M: np.ndarray, indent: str) -> str:
    rows = []
    for row in np.atleast_2d(M):
        rows.append(indent + "  [" + ", ".join(_fmt(v) for v in row) + "]")
    return "[\n" + ",\n".join(rows) + "\n" + indent + "]"


def problem_to_json(problem: LQProblem, X_ref: Optional[np.ndarray] = None) -> str:
    """Serialise to the canonical problem-file text."""
    t = problem.triple
    lines = ["{"]
    lines.append(f'  "n": {t.n},')
    lines.append(f'  "m": {t.m},')
    for name, M in (("A", t.A), ("B", t.B), ("Q", t.Q), ("S", t.S), ("R", t.R), ("P", problem.P)):
        lines.append(f'  "{name}": {_fmt_matrix(M, "  ")},')
    terminal_comma = "," if (problem.x0 is not None or X_ref is not None) else ""
    lines.append(f'  "T": {problem.T}{terminal_comma}')
    if problem.x0 is not None:
        comma = "," if X_ref is not None else ""
        lines.append('  "x0": [' + ", ".join(_fmt(v) for v in problem.x0) + f"]{comma}")
    if X_ref is not None:
        lines.append(f'  "X_ref": {_fmt_matrix(as_matrix(X_ref, "X_ref"), "  ")}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_matrix(name, raw, rows, cols):
    if not isinstance(raw, list) or any(not isinstance(r, list) for r in raw):
        raise ProblemFormatError(f"field {name} must be a nested array of rows")
    try:
        M = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"field {name} is not numeric: {exc}") from exc
    if M.ndim == 1 and M.size == 0:
        M = M.reshape(0, cols)
    if M.ndim != 2 or M.shape != (rows, cols):
        raise ProblemFormatError(
            f"field {name} has shape {tuple(M.shape)}, expected ({rows}, {cols})"
        )
    return M


def problem_from_json(text: str):
    """Parse a problem file; returns (LQProblem, X_ref or None).

    Unknown fields are rejected, missing fields are reported by name, and
    JSON syntax errors keep their line/column location.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"malformed problem file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem file must contain a JSON object")
    unknown = sorted(set(doc) - set(_FIELDS))
    if unknown:
        raise ProblemFormatError(f"unknown field(s): {', '.join(unknown)}")
    missing = [f for f in _REQUIRED if f not in doc]
    if missing:
        raise ProblemFormatError(f"missing field(s): {', '.join(missing)}")
    n, m = doc["n"], doc["m"]
    for label, v in (("n", n), ("m", m)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ProblemFormatError(f"field {label} must be a non-negative integer")
    if not isinstance(doc["T"], int) or isinstance(doc["T"], bool) or doc["T"] < 0:
        raise ProblemFormatError("field T must be a non-negative integer")
    A = _parse_matrix("A", doc["A"], n, n)
    B = _parse_matrix("B", doc["B"], n, m)
    Q = _parse_matrix("Q", doc["Q"], n, n)
    S = _parse_matrix("S", doc["S"], n, m)
    R = _parse_matrix("R", doc["R"], m, m)
    P = _parse_matrix("P", doc["P"], n, n)
    x0 = None
    if "x0" in doc:
        if not isinstance(doc["x0"], list):
            raise ProblemFormatError("field x0 must be an array")
        x0 = np.array(doc["x0"], dtype=float)
        if x0.ndim != 1 or x0.shape[0] != n:
            raise ProblemFormatError(f"field x0 must have length {n}")
    X_ref = _parse_matrix("X_ref", doc["X_ref"], n, n) if "X_ref" in doc else None
    try:
        problem = LQProblem(PopovTriple(A, B, Q, S, R), P, doc["T"], x0)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc
    return problem, X_ref


def save_problem(problem: LQProblem, path, X_ref: Optional[np.ndarray] = None) -> None:
    with open(path, "w") as fh:
        fh.write(problem_to_json(problem, X_ref))


def load_problem(path):
    """Load a problem file; returns (LQProblem, X_ref or None)."""
    with open(path) as fh:
        return problem_from_json(fh.read())


# ---------------------------------------------------------------------------
# Deterministic generator.  The PRNG is xorshift64* (corpus-v1); see README
# for the exact draw order so corpora reproduce in other languages.
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_XS_MULT = 0x2545F4914F6CDD1D
_XS_SEED0 = 0x9E3779B97F4A7C15


class Xorshift64Star:
    """xorshift64* pseudo-random generator (corpus-v1).

    State update: x ^= x >> 12; x ^= x << 25; x ^= x >> 27 (64-bit wrapping);
    output is state * 0x2545F4914F6CDD1D mod 2^64.  Doubles take the top 53
    bits of the output divided by 2^53.  Seed 0 is remapped to a fixed
    non-zero constant because the all-zero state is absorbing.
    """

    def __init__(self, seed: int):
        state = int(seed) & _MASK64
        self._state = state if state else _XS_SEED0

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _XS_MULT) & _MASK64

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def interval(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        """Matrix with entries uniform in [-1, 1), filled row-major."""
        out = np.empty((rows, cols))
        for i in range(rows):
            for j in range(cols):
                out[i, j] = 2.0 * self.uniform() - 1.0
        return out

    def randint(self, k: int) -> int:
        """Integer in [0, k) by modulo reduction (documented bias accepted)."""
        if k <= 0:
            raise ValueError("randint needs k >= 1")
        return self.next_u64() % k


def _scaled_dynamics(rng: Xorshift64Star, n: int) -> np.ndarray:
    A = rng.matrix(n, n)
    rho_target = rng.interval(0.4, 1.2)
    rho = spectral_radius(A)
    if rho > 0:
        A = A * (rho_target / rho)
    return A


def _psd(rng: Xorshift64Star, n: int, scale: float = 1.0, ridge: float = 0.0) -> np.ndarray:
    L = rng.matrix(n, n)
    M = scale * (L @ L.T) / max(n, 1)
    if ridge:
        M = M + ridge * np.eye(n)
    return symmetrize(M)


def random_problem(
    n: int,
    m: int,
    seed: int,
    kind: str = "generic",
    horizon: Optional[int] = None,
    nilpotent_dim: Optional[int] = None,
) -> LQProblem:
    """Seed-deterministic random problem of one of three kinds.

    generic
        Weights assembled as L L^T (positive semidefinite by construction)
        with a ridge added to R so it is strictly positive definite.
    singular_R
        The weight matrix is built from a factor whose control rows have a
        prescribed rank deficiency, so R is singular while the stacked
        weight matrix stays positive semidefinite (m = 1 degenerates to
        R = 0, which forces S = 0).
    nilpotent_block
        A = diag(J, A2) with J a nilpotent Jordan block that the input
        cannot reach (B = [0; B2]), S = 0 and block-diagonal Q, so every
        closed loop inherits a nilpotent part of known size.

    horizon overrides the seed-drawn horizon; nilpotent_dim fixes the size
    of J for the nilpotent_block kind.
    """
    if n < 1 or m < 1:
        raise ValueError("random_problem needs n >= 1 and m >= 1")
    if kind not in ("generic", "singular_R", "nilpotent_block"):
        raise ValueError(f"unknown kind {kind!r}")
    rng = Xorshift64Star(seed)

    if kind == "generic":
        A = _scaled_dynamics(rng, n)
        B = rng.matrix(n, m)
        L = rng.matrix(n + m, n + m)
        Pi = (L @ L.T) / (n + m)
        ridge = rng.interval(0.3, 1.0)
        Pi[n:, n:] += ridge * np.eye(m)
        Q, S, R = Pi[:n, :n], Pi[:n, n:], Pi[n:, n:]
    elif kind == "singular_R":
        A = _scaled_dynamics(rng, n)
        B = rng.matrix(n, m)
        r = rng.randint(m) if m > 1 else 0  # rank of R, strictly deficient
        k = n + max(r, 1)
        Zx = rng.matrix(n, k)
        G = rng.matrix(r, k) if r else np.zeros((0, k))
        Vu = rng.matrix(m, m)
        Vu, _ = np.linalg.qr(Vu + np.eye(m) * 1e-3)
        Zu = Vu[:, :r] @ G
        Zfac = np.vstack([Zx, Zu])
        Pi = (Zfac @ Zfac.T) / k
        Q, S, R = Pi[:n, :n], Pi[:n, n:], Pi[n:, n:]
    else:  # nilpotent_block
        if n < 2:
            raise ValueError("nilpotent_block needs n >= 2")
        max_j = min(3, n - 1)
        j = nilpotent_dim if nilpotent_dim is not None else 1 + rng.randint(max_j)
        if not 1 <= j <= n - 1:
            raise ValueError(f"nilpotent_dim must be in [1, {n - 1}], got {j}")
        J = np.diag(np.ones(j - 1), 1) if j > 1 else np.zeros((1, 1))
        n2 = n - j
        A2 = rng.matrix(n2, n2)
        rho_target = rng.interval(0.4, 1.1)
        rho = spectral_radius(A2)
        if rho > 0:
            A2 = A2 * (rho_target / rho)
        A = np.zeros((n, n))
        A[:j, :j] = J
        A[j:, j:] = A2
        B = np.vstack([np.zeros((j, m)), rng.matrix(n2, m)])
        Q = np.zeros((n, n))
        Q[:j, :j] = _psd(rng, j, ridge=0.1)
        Q[j:, j:] = _psd(rng, n2, ridge=0.1)
        S = np.zeros((n, m))
        R = _psd(rng, m, ridge=0.5)

    P = _psd(rng, n, scale=0.5)
    T = horizon if horizon is not None else 1 + rng.randint(20)
    x0 = np.array([2.0 * rng.uniform() - 1.0 for _ in range(n)])
    return LQProblem(PopovTriple(A, B, Q, S, R), P, T, x0)

"""Tolerance-aware dense linear algebra primitives.

Every rank, kernel, and inertia decision in this package flows through the
helpers below so that all modules share one notion of "numerically zero".
Matrices are plain 2-D float64 ``numpy`` arrays throughout; the helpers a
solver applies to a whole horizon at once (``_pinv``, ``svd_cutoff``,
``symmetrize``) also take stacks (..., r, c), slice by slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumericalRefusal(RuntimeError):
    """Raised when a method declines to produce numbers it cannot stand behind.

    Examples: a closed-form path hitting a singular denominator or a
    singular curvature it must invert.  Callers are expected to fall back
    to a slower, safer route rather than treat this as a bug.
    """


class InternalInconsistencyError(RuntimeError):
    """Raised when a structural guarantee the code relies on fails to hold.

    Unlike :class:`NumericalRefusal` this signals a broken invariant (for
    example a trailing block that theory says is non-singular coming out
    singular) and should be surfaced, not silently worked around.
    """


@dataclass(frozen=True)
class Tolerance:
    """Bundle of the three tolerances used across the package.

    rank_rel
        Relative cutoff for rank / kernel / inertia decisions, applied
        against the largest singular value (or eigenvalue magnitude).
    residual_abs
        Absolute threshold on equation residual norms.  The reference
        path (cgdare) reads it against the problem's scale instead: a
        CGDARE residual is accepted up to residual_abs * ||Pi||_F, Pi the
        Popov matrix [[Q, S], [S^T, R]], so scaled weights keep the outcome.
    residual_rel
        Relative threshold on residuals, applied against a problem scale.
    """

    rank_rel: float = 1e-10
    residual_abs: float = 1e-9
    residual_rel: float = 1e-8

    def __post_init__(self):
        for field in ("rank_rel", "residual_abs", "residual_rel"):
            value = getattr(self, field)
            if not (isinstance(value, (int, float)) and np.isfinite(value) and value > 0):
                raise ValueError(f"Tolerance.{field} must be a positive finite number, got {value!r}")


DEFAULT_TOL = Tolerance()


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-D float64 array, rejecting non-finite entries."""
    A = np.asarray(M, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    elif A.ndim == 1:
        A = A.reshape(1, -1)
    elif A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return the symmetric part 0.5 * (M + M^T); a stack slice by slice."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def check_symmetric(M: np.ndarray, tol: Tolerance = DEFAULT_TOL, name: str = "matrix") -> np.ndarray:
    """Validate symmetry within tolerance and return the symmetrised matrix."""
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    skew = np.linalg.norm(A - A.T)
    scale = np.linalg.norm(A)
    if not within_residual(skew, scale, tol):
        raise ValueError(f"{name} is not symmetric within tolerance (asymmetry {skew:.3e})")
    return symmetrize(A)


def residual_limit(scale: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Mixed absolute/relative residual threshold for a quantity of size scale."""
    return tol.residual_abs + tol.residual_rel * scale


def within_residual(value: float, scale: float, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Mixed absolute/relative residual acceptance test."""
    return value <= residual_limit(scale, tol)


def svd_cutoff(singular_values: np.ndarray, shape, tol: Tolerance, scale: float = 0.0) -> float:
    """Rank cutoff: rank_rel * max(sigma_max, scale) * max(rows, cols).

    scale is the magnitude of whatever the matrix was assembled from.  A
    difference of large terms that cancels down to rounding noise has a
    sigma_max that is itself noise, so a purely relative cutoff would call
    it full rank; judging against the parents' size treats it as zero.
    """
    if singular_values.size == 0:
        return 0.0
    if singular_values.ndim > 1:  # a stack: one cutoff per slice, shaped to compare
        return tol.rank_rel * np.maximum(singular_values[..., :1], scale) * max(shape[-2:])
    return tol.rank_rel * max(float(singular_values[0]), scale) * max(shape)


def pinv(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD with a relative rank cutoff.

    Singular values at or below rank_rel * sigma_max * max(rows, cols) are
    treated as zero, so an exactly zero matrix maps to its zero transpose.
    """
    return _pinv(as_matrix(M), tol)


def _pinv(A: np.ndarray, tol: Tolerance) -> np.ndarray:
    """pinv of a finite float array, unchecked; a stack (..., r, c) is
    inverted slice by slice, each against its own cutoff."""
    if A.size == 0:
        return np.zeros(A.shape[:-2] + (A.shape[-1], A.shape[-2]))
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if A.ndim > 2:
        s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > svd_cutoff(s, A.shape, tol))
        return (Vt.swapaxes(-1, -2) * s_inv[..., None, :]) @ U.swapaxes(-1, -2)
    # s is descending, so the kept singular values are a prefix.
    cutoff = svd_cutoff(s, A.shape, tol)
    r = sum(v > cutoff for v in s.tolist())
    return (Vt[:r].T * (1.0 / s[:r])) @ U[:, :r].T


def symmetric_lstsq(M, b, tol: Tolerance = DEFAULT_TOL):
    """Minimum-norm least-squares solution of M x = b for symmetric M, and M's rank.

    One symmetric eigen-solve M = V diag(lam) V^T; eigenvalues with |lam|
    at or below the shared cutoff are dropped (the singular values of a
    symmetric matrix are the |lam|, so the rank is that of `numerical_rank`)
    and x = V_k ((V_k^T b) / lam_k) is orthogonal to the numerical kernel.
    Unlike V Sigma^+ U^T from an SVD, whose U and V columns disagree where
    sigma is small, this keeps the inverse symmetric on ill-conditioned M.
    """
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"symmetric solve needs a square matrix, got {A.shape}")
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"right-hand side has length {b.shape[0]}, expected {A.shape[0]}")
    if A.size == 0:
        return np.zeros(0), 0
    lam, V = np.linalg.eigh(A)
    mag = np.abs(lam)
    keep = mag > svd_cutoff(np.sort(mag)[::-1], A.shape, tol)
    Vk = V[:, keep]
    return Vk @ ((Vk.T @ b) / lam[keep]), int(np.count_nonzero(keep))


def numerical_rank(M, tol: Tolerance = DEFAULT_TOL, scale: float = 0.0) -> int:
    """Rank by counting singular values above the shared cutoff."""
    A = as_matrix(M)
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    cutoff = svd_cutoff(s, A.shape, tol, scale)
    return int(np.count_nonzero(s > cutoff))


def is_nonsingular(M, tol: Tolerance = DEFAULT_TOL, scale: float = 0.0) -> bool:
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"singularity test needs a square matrix, got {A.shape}")
    return numerical_rank(A, tol, scale) == A.shape[0]


def kernel_basis(M, tol: Tolerance = DEFAULT_TOL, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the (numerical) null space, one column per direction.

    Returns a (cols, cols - rank) array; full-rank input gives a (cols, 0)
    array rather than an error.
    """
    A = as_matrix(M)
    cols = A.shape[1]
    if cols == 0:
        return np.zeros((0, 0))
    if A.shape[0] == 0:
        return np.eye(cols)
    U, s, Vt = np.linalg.svd(A, full_matrices=True)
    cutoff = svd_cutoff(s, A.shape, tol, scale)
    rank = int(np.count_nonzero(s > cutoff))
    return Vt[rank:].T.copy()


def orthonormal_complement(U, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column span of U.

    U must already have orthonormal columns (checked).  An n x 0 input yields
    the identity.
    """
    A = as_matrix(U)
    n, k = A.shape
    if k > n:
        raise ValueError(f"cannot complement {k} columns in dimension {n}")
    if k:
        gram_err = np.linalg.norm(A.T @ A - np.eye(k))
        if not within_residual(gram_err, k, tol):
            raise ValueError(f"columns are not orthonormal (Gram residual {gram_err:.3e})")
    if k == 0:
        return np.eye(n)
    W, _, _ = np.linalg.svd(A, full_matrices=True)
    comp = W[:, k:]
    return comp.copy()


def kernel_chain(A, tol: Tolerance = DEFAULT_TOL, scale: float = 0.0):
    """Grow the kernel chain ker(A) <= ker(A^2) <= ... until it stabilises.

    Works on the original matrix at every step (never forms high powers):
    ker(A^{k+1}) = ker((I - W_k W_k^T) A) where W_k spans ker(A^k).  Returns
    the list of orthonormal bases [W_1, W_2, ...] up to and including the
    first stabilised kernel.
    """
    M = as_matrix(A)
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"kernel chain needs a square matrix, got {M.shape}")
    bases = []
    W = kernel_basis(M, tol, scale)
    bases.append(W)
    while W.shape[1] < n:
        proj = np.eye(n) - W @ W.T
        W_next = kernel_basis(proj @ M, tol, scale)
        if W_next.shape[1] == W.shape[1]:
            break
        bases.append(W_next)
        W = W_next
    return bases


def nilpotent_eigenspace(A, tol: Tolerance = DEFAULT_TOL, scale: float = 0.0):
    """Generalised eigenspace of the zero eigenvalue and its nilpotency index.

    Returns (U, nu) where U is an orthonormal basis of ker(A^n) (an n x 0
    array when A is non-singular) and nu is the smallest k with
    ker(A^k) = ker(A^{k+1}).
    """
    M = as_matrix(A)
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"nilpotent eigenspace needs a square matrix, got {M.shape}")
    if n == 0:
        return np.zeros((0, 0)), 0
    bases = kernel_chain(M, tol, scale)
    if bases[0].shape[1] == 0:
        return np.zeros((n, 0)), 0
    return bases[-1], len(bases)


def zero_multiplicity(A, tol: Tolerance = DEFAULT_TOL, scale: float = 0.0) -> int:
    """Algebraic multiplicity of the zero eigenvalue, i.e. dim ker(A^n).

    Computed through the kernel chain, which stays accurate even when the
    zero eigenvalue is defective (eigenvalue-modulus counting scatters a
    Jordan block of size k onto a circle of radius eps^(1/k) and is useless
    for k >= 2).
    """
    U, _ = nilpotent_eigenspace(A, tol, scale)
    return U.shape[1]


def inertia(M, tol: Tolerance = DEFAULT_TOL):
    """Inertia (n_plus, n_minus, n_zero) of a symmetric matrix.

    Eigenvalues with |lambda| <= rank_rel * max|lambda| count as zero.
    Asymmetric input beyond tolerance is rejected.
    """
    A = check_symmetric(M, tol, "inertia input")
    if A.shape[0] == 0:
        return (0, 0, 0)
    w = np.linalg.eigvalsh(A)
    cutoff = tol.rank_rel * float(np.max(np.abs(w))) if w.size else 0.0
    n_plus = int(np.count_nonzero(w > cutoff))
    n_minus = int(np.count_nonzero(w < -cutoff))
    return (n_plus, n_minus, A.shape[0] - n_plus - n_minus)


def subspace_distance(U, V) -> float:
    """Spectral-norm distance between the orthogonal projectors of two spans."""
    A = as_matrix(U)
    B = as_matrix(V)
    if A.shape[0] != B.shape[0]:
        raise ValueError("subspace distance needs bases of the same ambient dimension")
    P = A @ A.T
    Q = B @ B.T
    if P.size == 0:
        return 0.0
    return float(np.linalg.norm(P - Q, 2))


def spectral_radius(A) -> float:
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"spectral radius needs a square matrix, got {M.shape}")
    if M.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))

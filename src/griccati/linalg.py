"""Tolerance-aware dense linear algebra primitives.

Every rank, kernel, and inertia decision in this package flows through the
helpers and the three constants below, so that all modules share one notion
of "numerically zero"; the nilpotent eigenspace, its orthogonal complement
and its index come from one staircase deflation (``nilpotent_eigenspace``).
Matrices are plain 2-D float64 ``numpy`` arrays throughout; the helpers a
solver applies to a whole horizon at once (``_pinv``, ``svd_cutoff``,
``symmetrize``) also take stacks (..., r, c), slice by slice.
"""

from __future__ import annotations

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


# The package's one numerical meaning of "zero".  RANK_REL is the relative
# cutoff for rank, kernel and inertia decisions, applied against the largest
# singular value (or eigenvalue magnitude).  RESIDUAL_ABS and RESIDUAL_REL
# bound residual norms, absolutely and against a problem scale; the reference
# path (cgdare) reads RESIDUAL_ABS against ||Pi||_F instead, Pi the Popov
# matrix [[Q, S], [S^T, R]], so scaled weights keep the outcome.
RANK_REL = 1e-10
RESIDUAL_ABS = 1e-9
RESIDUAL_REL = 1e-8


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


def check_symmetric(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate symmetry within tolerance and return the symmetrised matrix."""
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    skew = np.linalg.norm(A - A.T)
    scale = np.linalg.norm(A)
    if not within_residual(skew, scale):
        raise ValueError(f"{name} is not symmetric within tolerance (asymmetry {skew:.3e})")
    return symmetrize(A)


def residual_limit(scale: float) -> float:
    """Mixed absolute/relative residual threshold for a quantity of size scale."""
    return RESIDUAL_ABS + RESIDUAL_REL * scale


def within_residual(value: float, scale: float) -> bool:
    """Mixed absolute/relative residual acceptance test."""
    return value <= residual_limit(scale)


def svd_cutoff(singular_values: np.ndarray, shape, scale: float = 0.0) -> float:
    """Rank cutoff: RANK_REL * max(sigma_max, scale) * max(rows, cols).

    scale is the magnitude of whatever the matrix was assembled from.  A
    difference of large terms that cancels down to rounding noise has a
    sigma_max that is itself noise, so a purely relative cutoff would call
    it full rank; judging against the parents' size treats it as zero.
    """
    if singular_values.size == 0:
        return 0.0
    if singular_values.ndim > 1:  # a stack: one cutoff per slice, shaped to compare
        return RANK_REL * np.maximum(singular_values[..., :1], scale) * max(shape[-2:])
    return RANK_REL * max(float(singular_values[0]), scale) * max(shape)


def pinv(M) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD with a relative rank cutoff.

    Singular values at or below RANK_REL * sigma_max * max(rows, cols) are
    treated as zero, so an exactly zero matrix maps to its zero transpose.
    """
    return _pinv(as_matrix(M))


def _pinv(A: np.ndarray) -> np.ndarray:
    """pinv of a finite float array, unchecked; a stack (..., r, c) is
    inverted slice by slice, each against its own cutoff."""
    if A.size == 0:
        return np.zeros(A.shape[:-2] + (A.shape[-1], A.shape[-2]))
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if A.ndim > 2:
        s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > svd_cutoff(s, A.shape))
        return (Vt.swapaxes(-1, -2) * s_inv[..., None, :]) @ U.swapaxes(-1, -2)
    # s is descending, so the kept singular values are a prefix.
    cutoff = svd_cutoff(s, A.shape)
    r = sum(v > cutoff for v in s.tolist())
    return (Vt[:r].T * (1.0 / s[:r])) @ U[:, :r].T


def symmetric_lstsq(M, b):
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
    keep = mag > svd_cutoff(np.sort(mag)[::-1], A.shape)
    Vk = V[:, keep]
    return Vk @ ((Vk.T @ b) / lam[keep]), int(np.count_nonzero(keep))


def numerical_rank(M, scale: float = 0.0) -> int:
    """Rank by counting singular values above the shared cutoff."""
    A = as_matrix(M)
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    cutoff = svd_cutoff(s, A.shape, scale)
    return int(np.count_nonzero(s > cutoff))


def is_nonsingular(M, scale: float = 0.0) -> bool:
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"singularity test needs a square matrix, got {A.shape}")
    return numerical_rank(A, scale) == A.shape[0]


def kernel_basis(M, scale: float = 0.0) -> np.ndarray:
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
    cutoff = svd_cutoff(s, A.shape, scale)
    rank = int(np.count_nonzero(s > cutoff))
    return Vt[rank:].T.copy()


def nilpotent_eigenspace(A, scale: float = 0.0):
    """Staircase deflation onto the generalised eigenspace of the eigenvalue zero.

    Returns (Q, k, nu): Q is orthogonal and Q^T A Q = [[N0, *], [0, Z]] with
    N0 the leading k x k block, nilpotent of index nu, and Z non-singular,
    so the first k columns of Q span ker(A^n) (k = 0, nu = 0 and Q = I when
    A is non-singular).  Each step takes the SVD of the current trailing
    block only, moves its kernel to the front of that block's columns of Q
    and carries V_r^T Z V_r forward, V_r the rest of its right singular
    vectors (Van Dooren's staircase); the kernels found stack into a
    strictly block upper triangular N0, so the form holds by construction.
    Every step judges rank against one cutoff, taken from A's own singular
    values and scale: a trailing block is never judged against itself.
    """
    M = as_matrix(A)
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"nilpotent eigenspace needs a square matrix, got {M.shape}")
    Q = np.eye(n)
    Z, k, nu, cutoff = M, 0, 0, None
    while k < n:
        W, s, Vt = np.linalg.svd(Z)
        if cutoff is None:
            cutoff = svd_cutoff(s, M.shape, scale)
        r = int(np.count_nonzero(s > cutoff))
        if r == n - k:
            break
        Q[:, k:] = Q[:, k:] @ np.vstack([Vt[r:], Vt[:r]]).T
        Z = Vt[:r] @ (W[:, :r] * s[:r])  # V_r^T Z V_r, as Z V_r = W_r diag(s_r)
        k, nu = n - r, nu + 1
    return Q, k, nu


def inertia(M):
    """Inertia (n_plus, n_minus, n_zero) of a symmetric matrix.

    Eigenvalues with |lambda| <= RANK_REL * max|lambda| count as zero.
    Asymmetric input beyond tolerance is rejected.
    """
    A = check_symmetric(M, "inertia input")
    if A.shape[0] == 0:
        return (0, 0, 0)
    w = np.linalg.eigvalsh(A)
    cutoff = RANK_REL * float(np.max(np.abs(w))) if w.size else 0.0
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

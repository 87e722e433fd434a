"""Tolerance-aware dense linear algebra primitives.

Every rank, kernel, and inertia decision in this package flows through the
helpers and the three constants below, so that all modules share one notion
of "numerically zero".  Two certificates settle some full-rank decisions
without the decomposition, never differently: ``_certified_nonsingular`` a
square matrix's without an SVD, or each slice's of a stack in one call,
``_certified_positive_definite`` a symmetric one's without an eigen-solve.
The nilpotent eigenspace, its complement and its index come from one
staircase (``nilpotent_eigenspace``).  Every
residual check reads ``residual_limit``, relative to the scale of what it
tests and with no absolute floor, so scaling the weights keeps its verdict.
Each kind of input has one check: ``as_matrix``, ``as_square``,
``as_vector`` and ``check_symmetric`` (symmetric, of a given size); a
matrix must be 2-D and a vector 1-D, and neither is reshaped.
Matrices are plain 2-D float64 ``numpy`` arrays throughout; the helpers a
solver applies to a whole horizon at once (``_pinv``, ``svd_cutoff``,
``symmetrize``) also take stacks (..., r, c), slice by slice.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg


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
# singular value (or eigenvalue magnitude).  RESIDUAL_REL bounds residual
# norms against the scale of what they test (residual_limit).  RESIDUAL_ABS
# is only the factor of the reference search's band, read against ||Pi||_F,
# Pi the Popov matrix [[Q, S], [S^T, R]] (cgdare._residual_band).
RANK_REL = 1e-10
RESIDUAL_ABS = 1e-9
RESIDUAL_REL = 1e-8


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """A 2-D float64 array of finite entries; a scalar or flat array is refused."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def as_square(M, name: str = "matrix") -> np.ndarray:
    """as_matrix, rejecting a matrix that is not square."""
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A


def as_vector(x, length: int, name: str) -> np.ndarray:
    """Coerce input to a float64 array of the given length, rejecting
    non-finite entries and any input that is not 1-D, as a file's x0 is."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a flat array")
    if v.shape[0] != length:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {length}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return the symmetric part 0.5 * (M + M^T) of a float M; a stack slice
    by slice.  The sum is the one temporary, halved in place."""
    S = M + M.swapaxes(-1, -2)
    S *= 0.5
    return S


def check_symmetric(M, name: str = "matrix", size=None) -> np.ndarray:
    """Validate symmetry within tolerance (and the size, where given); return the symmetrised matrix."""
    A = as_square(M, name)
    if size is not None and A.shape[0] != size:
        raise ValueError(f"{name} has size {A.shape[0]}, expected {size}")
    skew = np.linalg.norm(A - A.T)
    if not skew <= residual_limit(np.linalg.norm(A)):
        raise ValueError(f"{name} is not symmetric within tolerance (asymmetry {skew:.3e})")
    return symmetrize(A)


def residual_limit(scale: float) -> float:
    """The largest residual of a quantity of size scale; a zero scale passes only 0."""
    return RESIDUAL_REL * scale


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
    if A.ndim > 2:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > svd_cutoff(s, A.shape))
        return (Vt.swapaxes(-1, -2) * s_inv[..., None, :]) @ U.swapaxes(-1, -2)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    # s is descending, so the kept singular values are a prefix.
    cutoff = svd_cutoff(s, A.shape)
    r = sum(v > cutoff for v in s.tolist())
    return (Vt[:r].T * (1.0 / s[:r])) @ U[:, :r].T


def symmetric_lstsq(M, b):
    """Minimum-norm least-squares solution of M x = b for symmetric M, and M's rank.

    Where _certified_positive_definite proves every eigenvalue above the
    shared cutoff, x = M^{-1} b by LU and the rank is n, as the eigen path
    would give.  Elsewhere (a singular, indefinite or barely definite M)
    one symmetric eigen-solve M = V diag(lam) V^T; eigenvalues with |lam|
    at or below the shared cutoff are dropped (the singular values of a
    symmetric matrix are the |lam|, so the rank is that of `numerical_rank`)
    and x = V_k ((V_k^T b) / lam_k) is orthogonal to the numerical kernel.
    Unlike V Sigma^+ U^T from an SVD, whose U and V columns disagree where
    sigma is small, this keeps the inverse symmetric on ill-conditioned M.
    Both paths read one symmetric matrix: M itself where exactly symmetric
    (every batch QP's H; an equality test, cheaper than the check's norms
    and copy), else check_symmetric's copy.  b must be finite, of M's size.
    """
    A = as_square(M, "symmetric solve input")
    if not (A == A.T).all():
        A = check_symmetric(A, "symmetric solve input")
    b = as_vector(b, A.shape[0], "right-hand side")
    if A.size == 0:
        return np.zeros(0), 0
    if _certified_positive_definite(A):
        return np.linalg.solve(A, b), A.shape[0]
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


def _lu_inverse(A: np.ndarray) -> np.ndarray:
    """np.linalg.inv(A) bit for bit, by its LAPACK gufunc without the wrapper:
    a failed LU is all NaN with numpy's invalid flag set, not a LinAlgError."""
    return _umath_linalg.inv(A, signature="d->d")


def _certified_nonsingular(A: np.ndarray, scale: float = 0.0, A_inv=None) -> bool:
    """True only where the square A passes numerical_rank(A, scale) == n: as
    sigma_min >= 1 / ||A^{-1}||_F and sigma_max <= ||A||_F, every singular
    value is above twice the cutoff RANK_REL max(sigma_max, scale) n where
    2 RANK_REL max(||A||_F, scale) n ||A^{-1}||_F < 1.  The 2 pays for
    rounding: cond_F(A) < 1 / (2 RANK_REL n) there, so the computed inverse's
    norm errs by about n u cond(A) <= 1e-6 (u the unit round-off), the SVD's
    values by n u sigma_max, 1e-6 of the cutoff.  False means "ask the SVD".
    A_inv is A's inverse, else _lu_inverse's here, all NaN where LU fails.

    A stack (s, n, n), with the stack of its inverses, gets one verdict per
    slice by the same formula, an array of s bools: its squared norms come
    from one einsum, which may round them differently from vdot in the
    last bit, so a verdict can differ only where the product is within
    rounding of 1, and both are sound there.
    """
    if A.ndim > 2:
        with np.errstate(all="ignore"):  # inf or nan certifies nothing
            cutoff = RANK_REL * np.maximum(np.sqrt(np.einsum("sij,sij->s", A, A)), scale) * A.shape[-1]
            return 2.0 * cutoff * np.sqrt(np.einsum("sij,sij->s", A_inv, A_inv)) < 1.0
    if A_inv is None:
        with np.errstate(all="ignore"):
            A_inv = _lu_inverse(A)
    # Frobenius norms by vdot, as np.linalg.norm takes them but without its
    # warning where a near-singular A's inverse overflows: inf or nan
    # certifies nothing.
    cutoff = RANK_REL * max(math.sqrt(np.vdot(A, A)), scale) * A.shape[0]
    return 2.0 * cutoff * math.sqrt(np.vdot(A_inv, A_inv)) < 1.0


def _certified_positive_definite(A: np.ndarray) -> bool:
    """True only where every eigenvalue of the symmetric n x n A is above the
    cutoff RANK_REL max|lam| n <= RANK_REL ||A||_F n below which
    numerical_rank and symmetric_lstsq's eigen path drop one: a Cholesky
    factorisation of A - s I, s = 2 RANK_REL n ||A||_F, that completes gives
    L L^T = A - s I + E with ||E||_2 <~ n^2 u ||A||_2 (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.3; u the unit round-off), so
    lam_min(A) >= s - ||E|| > RANK_REL n ||A||_F.  The 2 pays for rounding:
    the margin RANK_REL n ||A||_F is at least 1e6 n u ||A||_2, which covers
    ||E|| and eigh's own n u ||A||_2 wherever n << RANK_REL / (2u) ~ 4.5e5.
    Scaling A by c scales s, so the verdict does not depend on scale, and
    cholesky reads A's lower triangle, as eigh does.  False means "ask
    eigh": a singular, indefinite or barely definite A, the zero matrix too.
    """
    n = A.shape[0]
    shift = 2.0 * RANK_REL * n * float(np.linalg.norm(A))
    try:
        np.linalg.cholesky(A - shift * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


def is_nonsingular(M, scale: float = 0.0) -> bool:
    """numerical_rank(M, scale) == n by the SVD: on the small blocks most calls
    pass, _certified_nonsingular's inverse would cost as much."""
    A = as_square(M, "singularity test input")
    return numerical_rank(A, scale) == A.shape[0]


def nilpotent_eigenspace(A, scale: float = 0.0):
    """Staircase deflation onto the generalised eigenspace of the eigenvalue zero.

    Returns (Q, k, nu): Q is orthogonal and Q^T A Q = [[N0, *], [0, Z]] with
    N0 the leading k x k block, nilpotent of index nu, and Z non-singular,
    so the first k columns of Q span ker(A^n) (k = 0, nu = 0 and Q = I when
    A is non-singular, without an SVD where _certified_nonsingular says so).
    Each step takes the SVD of the current trailing block only, moves its
    kernel to the front of that block's columns of Q and carries V_r^T Z V_r
    forward, V_r the rest of its right singular vectors (Van Dooren's
    staircase); the kernels found stack into a strictly block upper
    triangular N0, so the form holds by construction.  Every step judges
    rank against one cutoff, taken from A's own singular values and scale:
    a trailing block is never judged against itself.
    """
    M = as_square(A, "nilpotent eigenspace input")
    n = M.shape[0]
    Q = np.eye(n)
    if _certified_nonsingular(M, scale):
        return Q, 0, 0
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

    Eigenvalues with |lambda| at or below the shared cutoff count as zero:
    the |lambda| are the singular values, so n_zero = n - numerical_rank.
    Asymmetric input beyond tolerance is rejected.
    """
    A = check_symmetric(M, "inertia input")
    if A.shape[0] == 0:
        return (0, 0, 0)
    w = np.linalg.eigvalsh(A)
    cutoff = svd_cutoff(np.sort(np.abs(w))[::-1], A.shape)
    n_plus = int(np.count_nonzero(w > cutoff))
    n_minus = int(np.count_nonzero(w < -cutoff))
    return (n_plus, n_minus, A.shape[0] - n_plus - n_minus)


def spectral_radius(A) -> float:
    M = as_square(A, "spectral radius input")
    if M.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))

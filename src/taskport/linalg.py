"""Dense float64 linear algebra: input checks, cross-covariances, SVD, the
symmetric pseudo-inverse (by ``eigh``), ridge solve, seeded orthonormal
sampling.

All functions take and return plain 2-D ``numpy.float64`` arrays (C order) and
never modify their inputs. Entries must be finite; NaN/Inf anywhere is an error,
not a silent propagation. The two Gram solves, ``pseudo_inverse`` and
``tikhonov_solve``, take square symmetric matrices only (``as_symmetric``).
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DimensionError, NonFiniteError, NotPositiveDefiniteError

__all__ = [
    "DEFAULT_RCOND",
    "as_matrix",
    "as_vector",
    "as_symmetric",
    "require_finite",
    "cross_covariance",
    "svd",
    "pseudo_inverse",
    "tikhonov_solve",
    "random_orthonormal_rows",
]

# Relative singular-value cutoff used when no explicit rcond is given.
DEFAULT_RCOND = 1e-10


def require_finite(a, name="array"):
    """Raise NonFiniteError if ``a`` contains NaN or Inf entries."""
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    return a


def as_matrix(a, name="matrix"):
    """Coerce to a finite 2-D float64 array."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got {out.ndim}-D with shape {out.shape}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise DimensionError(f"{name} must have at least one row and one column, got shape {out.shape}")
    require_finite(out, name)
    return out


def as_vector(a, length: int, name="vector"):
    """Coerce to a finite 1-D float64 array of the given length."""
    out = np.asarray(a, dtype=np.float64)
    if out.shape != (length,):
        raise DimensionError(f"{name} has shape {out.shape}, expected ({length},)")
    return require_finite(out, name)


def as_symmetric(a, name="matrix"):
    """Coerce to a finite square float64 matrix that is symmetric to rounding.

    Raises DimensionError if ``a`` is not square and ValueError if it differs
    from its transpose by more than rtol 1e-10 plus 1e-12 of its largest entry.
    """
    out = as_matrix(a, name)
    if out.shape[0] != out.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {out.shape}")
    if not np.allclose(out, out.T, rtol=1e-10, atol=1e-12 * max(1.0, float(np.abs(out).max()))):
        raise ValueError(f"{name} must be symmetric")
    return out


def cross_covariance(h_a, h_b) -> np.ndarray:
    """``h_a.T @ h_b`` for row-paired activation matrices."""
    h_a = as_matrix(h_a, "h_a")
    h_b = as_matrix(h_b, "h_b")
    if h_a.shape[0] != h_b.shape[0]:
        raise DimensionError(
            f"cross-covariance needs row-paired inputs, got {h_a.shape[0]} vs {h_b.shape[0]} rows"
        )
    return h_a.T @ h_b


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """numpy's thin SVD ``a = (u * sigma) @ vt``, raising ConvergenceError on failure.

    Its consumer, the Procrustes factor ``u @ vt``, is invariant to the
    singular vectors' signs, so they are left as numpy gives them."""
    a = as_matrix(a, "svd input")
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD failed to converge on a {a.shape[0]}x{a.shape[1]} matrix: {exc}") from exc


def pseudo_inverse(a, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric matrix, by one ``eigh``.

    The singular values of a symmetric matrix are the moduli of its
    eigenvalues, so eigenvalues with ``|w| < rcond * max|w|`` are treated as
    zero, the set an SVD truncation would drop; ``rcond=0`` keeps every
    nonzero eigenvalue. Each kept eigenvalue is inverted with its sign, so the
    result stays the pseudo-inverse where rounding leaves a PSD Gram with tiny
    negative eigenvalues. ``eigh`` reads the lower triangle of ``a``.
    """
    if not rcond >= 0:
        raise ValueError(f"rcond must be non-negative, got {rcond}")
    a = as_symmetric(a, "pseudo-inverse input")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh failed to converge on a {a.shape[0]}x{a.shape[1]} matrix: {exc}") from exc
    size = np.abs(w)
    # In Python floats a cutoff past the float range is inf, keeping nothing, without a warning.
    keep = (size > 0.0) & (size >= float(rcond) * float(size.max()))
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return (v * inv) @ v.T


def tikhonov_solve(gram, rhs, lam: float) -> np.ndarray:
    """Solve ``(gram + lam * I) x = rhs`` for symmetric PSD ``gram`` and ``lam > 0``.

    Uses a Cholesky factorization of the shifted matrix, so an indefinite input,
    or a lam too small to lift a singular gram, fails loudly with
    NotPositiveDefiniteError instead of returning garbage. ``rhs`` may be a
    vector or a matrix of stacked right-hand sides; the output has the same
    shape.
    """
    gram = as_symmetric(gram, "gram")
    n = gram.shape[0]
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    rhs = np.asarray(rhs, dtype=np.float64)
    require_finite(rhs, "rhs")
    if rhs.shape[0] != n:
        raise DimensionError(f"rhs has {rhs.shape[0]} rows, expected {n}")
    shifted = gram + lam * np.eye(n)
    try:
        chol = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"gram + lam*I is not positive definite (lam={lam}): {exc}"
        ) from exc
    return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


def random_orthonormal_rows(d_small: int, d_large: int, seed) -> np.ndarray:
    """Seeded (d_small, d_large) matrix ``t`` with ``t @ t.T = I`` to 1e-12.

    Built from the QR factorization of a Gaussian draw with the usual sign fix
    (diagonal of R forced positive), so a fixed seed gives a fixed matrix.
    """
    if d_small < 1 or d_large < 1:
        raise DimensionError(f"dimensions must be positive, got ({d_small}, {d_large})")
    if d_small > d_large:
        raise DimensionError(
            f"orthonormal rows need d_small <= d_large, got ({d_small}, {d_large})"
        )
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((d_large, d_small))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return np.ascontiguousarray((q * signs).T)

"""Dense float64 linear algebra: input checks, cross-covariances, SVD, the
two inverses of a symmetric Gram from one ``eigh`` (the truncated
pseudo-inverse and the ridge inverse), seeded orthonormal sampling.

One input check per array kind: ``as_vector`` (1-D), ``as_matrix`` (2-D),
``as_symmetric`` (square Grams) and ``as_batch`` (sequences x tokens x
features); none copies a float64 input, and all but ``as_batch`` reject NaN/Inf.
The solvers take 2-D arrays and never modify their inputs; they return C-order
arrays, but for ``svd``'s transposed factors of a wide input. Given a
right-hand side, the two inverses return the inverse times it from the same
``eigh``, and no (d, d) array but the eigenvectors is formed.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DimensionError, NonFiniteError, NotPositiveDefiniteError

__all__ = [
    "DEFAULT_RCOND",
    "as_matrix",
    "as_vector",
    "as_symmetric",
    "as_batch",
    "require_batch_shape",
    "require_finite",
    "cross_covariance",
    "svd",
    "pseudo_inverse",
    "ridge_inverse",
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


def require_batch_shape(shape, name="batch"):
    """Raise DimensionError unless ``shape`` is (sequences, tokens, features), one of each at least."""
    if len(shape) != 3:
        raise DimensionError(f"{name} must be 3-D (sequences, tokens, features), got shape {shape}")
    if shape[0] < 1 or shape[1] < 1:
        raise DimensionError(f"{name} must contain at least one sequence and one token, got shape {shape}")
    if shape[2] < 1:
        raise DimensionError(f"{name} must have at least one feature, got shape {shape}")
    return shape


def as_batch(a, name="batch"):
    """Coerce to a float64 array of a ``require_batch_shape`` shape; no scan."""
    out = np.asarray(a, dtype=np.float64)
    require_batch_shape(out.shape, name)
    return out


def as_symmetric(a, name="matrix"):
    """Coerce to a finite square float64 matrix that is symmetric to rounding.

    Raises DimensionError if ``a`` is not square and ValueError if it differs
    from its transpose by more than rtol 1e-10 plus 1e-12 of its largest entry.
    """
    out = as_matrix(a, name)
    if out.shape[0] != out.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {out.shape}")
    exact = np.array_equal(out, out.T)  # as numpy's x.T @ x is; skips allclose's temporaries
    if not (exact or np.allclose(out, out.T, rtol=1e-10, atol=1e-12 * max(1.0, float(np.abs(out).max())))):
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

    A wide input is factored through its transpose, which LAPACK runs faster
    (a tall 768x512 in about 0.9 the time of the wide 512x768 on one BLAS
    thread), and the factors of ``a`` are returned, ``u`` and ``vt`` as
    transposed views. Its consumer, the Procrustes factor ``u @ vt``, is
    invariant to the singular vectors' signs, so they are left as numpy
    gives them."""
    a = as_matrix(a, "svd input")
    wide = a.shape[0] < a.shape[1]
    try:
        u, sigma, vt = np.linalg.svd(a.T if wide else a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD failed to converge on a {a.shape[0]}x{a.shape[1]} matrix: {exc}") from exc
    return (vt.T, sigma, u.T) if wide else (u, sigma, vt)


def _eigh(a, name):
    """``eigh`` of ``as_symmetric(a)``, which reads its lower triangle; failure is ConvergenceError."""
    a = as_symmetric(a, name)
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh failed to converge on a {a.shape[0]}x{a.shape[1]} matrix: {exc}") from exc


def _eigen_product(v, scale, s, rhs):
    """``scale(v, s) @ v.T``, eigenvector columns scaled by ``np.multiply`` or
    ``np.divide`` with ``s``; given ``rhs``, that times it, as
    ``v @ scale(v.T @ rhs, s[:, None])``, without the (d, d) product."""
    if rhs is None:
        return scale(v, s) @ v.T
    rhs = as_matrix(rhs, "rhs")
    if rhs.shape[0] != len(v):
        raise DimensionError(f"rhs has {rhs.shape[0]} rows, the matrix is {len(v)}x{len(v)}")
    return v @ scale(v.T @ rhs, s[:, None])


def pseudo_inverse(a, rcond: float = DEFAULT_RCOND, rhs=None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric matrix, by one ``eigh``;
    given ``rhs``, (d, k), the pseudo-inverse times it, without the inverse.

    The singular values of a symmetric matrix are the moduli of its
    eigenvalues, so eigenvalues with ``|w| < rcond * max|w|`` are treated as
    zero, the set an SVD truncation would drop; ``rcond=0`` keeps every
    nonzero eigenvalue. Each kept eigenvalue is inverted with its sign, so the
    result stays the pseudo-inverse where rounding leaves a PSD Gram with tiny
    negative eigenvalues.
    """
    if not rcond >= 0:
        raise ValueError(f"rcond must be non-negative, got {rcond}")
    w, v = _eigh(a, "pseudo-inverse input")
    size = np.abs(w)
    # In Python floats a cutoff past the float range is inf, keeping nothing, without a warning.
    keep = (size > 0.0) & (size >= float(rcond) * float(size.max()))
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return _eigen_product(v, np.multiply, inv, rhs)


def ridge_inverse(gram, lam: float, rhs=None) -> np.ndarray:
    """``(gram + lam I)^-1`` by one ``eigh``, or that times ``rhs`` when given: the eigenvalues
    shifted by ``lam > 0``, then inverted. NotPositiveDefiniteError unless the smallest shifted
    eigenvalue exceeds n * eps times the largest (numpy's ``matrix_rank`` tolerance), so a lam
    too small to lift a singular gram fails instead of amplifying rounding noise by 1 / lam."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    w, v = _eigh(gram, "gram")
    shifted = w + lam
    if not shifted[0] > len(w) * np.finfo(np.float64).eps * shifted[-1]:
        raise NotPositiveDefiniteError(f"gram + lam*I is not positive definite (lam={lam}): its smallest "
                                       f"eigenvalue {shifted[0]:.3g} is not above n*eps times its largest")
    return _eigen_product(v, np.divide, shifted, rhs)


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

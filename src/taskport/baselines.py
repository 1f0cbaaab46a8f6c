"""Reference baselines the transport method is compared against.

All of these produce an update shaped for the target model. zero_pad and
random ignore activations entirely; the Gram-solve family (pinv, its ridge
variant and the bias solve) matches the activation coupling directly on the
target activations. The random_source control, which runs a norm-matched
random update through the alignment maps, is a method of ``transport``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .linalg import (
    DEFAULT_RCOND,
    as_matrix,
    as_vector,
    cross_covariance,
    pseudo_inverse,
    tikhonov_solve,
)

__all__ = [
    "zero_pad_update",
    "random_update",
    "gram_transport",
    "pinv_transport",
]


def zero_pad_update(update_src, d_out: int, d_in: int) -> np.ndarray:
    """Copy the source update into the top-left block of a (d_out, d_in) zero matrix.

    Padding only: a target smaller than the source on either axis is an error,
    which keeps the Frobenius norm of the output equal to the source's.
    """
    update_src = as_matrix(update_src, "update")
    if d_out < update_src.shape[0] or d_in < update_src.shape[1]:
        raise DimensionError(
            f"cannot zero-pad a {update_src.shape} update into ({d_out}, {d_in})"
        )
    out = np.zeros((d_out, d_in))
    out[: update_src.shape[0], : update_src.shape[1]] = update_src
    return out


def random_update(d_out: int, d_in: int, target_norm: float, seed) -> np.ndarray:
    """Seeded Gaussian matrix rescaled to an exact Frobenius norm."""
    if d_out < 1 or d_in < 1:
        raise DimensionError(f"dims must be positive, got ({d_out}, {d_in})")
    target_norm = float(target_norm)
    if not (np.isfinite(target_norm) and target_norm >= 0.0):
        raise DimensionError(f"target_norm must be a finite non-negative real, got {target_norm}")
    if target_norm == 0.0:
        return np.zeros((d_out, d_in))
    gauss = np.random.default_rng(seed).standard_normal((d_out, d_in))
    norm = np.linalg.norm(gauss)
    if norm == 0.0:  # pragma: no cover - a Gaussian draw is never exactly zero
        raise DimensionError("degenerate zero draw")
    return gauss * (target_norm / norm)


def _gram_solve(gram, rhs, rcond: float | None, lam: float | None) -> np.ndarray:
    """The one solve against a target Gram matrix.

    Applies the rcond-truncated pseudo-inverse of ``gram`` when rcond is
    given, else the ridge inverse ``(gram + lam I)^-1``; lam=None resolves to
    1e-3 times the mean diagonal, an explicit lam must be positive.
    """
    if rcond is not None:
        return pseudo_inverse(gram, rcond) @ rhs
    if lam is None:
        # Floored so a degenerate all-zero Gram still yields a positive-definite solve.
        lam = 1e-3 * max(float(np.mean(np.diag(gram))), 1e-9)
    elif not float(lam) > 0:
        raise DimensionError(f"lam must be positive, got {lam}")
    return tikhonov_solve(gram, rhs, float(lam))


def gram_transport(hin_a, hout_a, hin_b, hout_b, update_a, bias_delta=None,
                   rcond: float | None = None, lam: float | None = None):
    """Least-squares coupling match on the target activations.

    Solves for the target update whose coupling on the calibration rows best
    matches the source coupling, and for the bias delta whose constant output
    shift best matches the source's:

        new      = G_out^-1 (hout_b.T hout_a) update (hin_a.T hin_b) G_in^-1
        new_bias = G_out^-1 (hout_b.T hout_a) bias

    with G = h_b.T h_b on each side, inverted by one ``_gram_solve`` per side
    (rcond route when rcond is given, ridge route otherwise). The bias rides
    the output-side solve as one more right-hand side, and nothing larger than
    features x features is formed. Returns (new update, new bias delta or None).
    """
    hin_a = as_matrix(hin_a, "hin_a")
    hout_a = as_matrix(hout_a, "hout_a")
    hin_b = as_matrix(hin_b, "hin_b")
    hout_b = as_matrix(hout_b, "hout_b")
    update_a = as_matrix(update_a, "update_a")
    if update_a.shape != (hout_a.shape[1], hin_a.shape[1]):
        raise DimensionError(
            f"update shape {update_a.shape} does not match source activations "
            f"({hout_a.shape[1]}, {hin_a.shape[1]})"
        )
    cross_out = cross_covariance(hout_a, hout_b)
    mid = cross_covariance(hin_b, hin_a) @ update_a.T @ cross_out
    rhs = _gram_solve(cross_covariance(hin_b, hin_b), mid, rcond, lam).T
    if bias_delta is not None:
        b = as_vector(bias_delta, hout_a.shape[1], "bias delta")
        rhs = np.column_stack([rhs, cross_out.T @ b])
    out = _gram_solve(cross_covariance(hout_b, hout_b), rhs, rcond, lam)
    d_in_b = hin_b.shape[1]
    new_bias = None if bias_delta is None else out[:, d_in_b].copy()
    return np.ascontiguousarray(out[:, :d_in_b]), new_bias


def pinv_transport(hin_a, hout_a, hin_b, hout_b, update_a, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """``gram_transport`` of the update through pseudo-inverses of the target Grams.

    Kept by name because the benchmark's per-layer trace (``perfbench/spans.py``)
    lists it; it goes once that trace names ``gram_transport`` instead.
    """
    return gram_transport(hin_a, hout_a, hin_b, hout_b, update_a, rcond=rcond)[0]

"""Reference baselines the transport method is compared against.

All of these produce an update shaped for the target model. zero_pad and
random ignore activations entirely. The Gram solve (pinv and its ridge
variant) matches the activation coupling on the target activations of a
``transport.LayerStats`` in two steps, as theseus does: ``gram_plan`` fits
each side's least-squares map S = G_b^+ C_ab.T from the statistics alone,
then ``transport.transport_update``, the one apply, conjugates the update
through the plan. The random_source control is a method of ``transport``.
"""

from __future__ import annotations

import numpy as np

from . import transport  # which imports this module: its names are read at call time
from .errors import DimensionError
from .linalg import DEFAULT_RCOND, as_matrix, pseudo_inverse, ridge_inverse

__all__ = [
    "zero_pad_update",
    "random_update",
    "gram_plan",
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
    """The one solve against a target Gram: an inverse from one ``eigh`` of ``gram``, applied
    to ``rhs`` without forming it. The rcond-truncated pseudo-inverse when rcond is given, else
    the ridge inverse ``(gram + lam I)^-1``; lam=None resolves to 1e-3 times the mean diagonal,
    an explicit lam must be positive."""
    if rcond is not None:
        return pseudo_inverse(gram, rcond, rhs)
    if lam is None:
        # Floored so a degenerate all-zero Gram still yields a positive-definite solve.
        lam = 1e-3 * max(float(np.mean(np.diag(gram))), 1e-9)
    elif not float(lam) > 0:
        raise DimensionError(f"lam must be positive, got {lam}")
    return ridge_inverse(gram, float(lam), rhs)


def gram_plan(stats, rcond: float | None = None, lam: float | None = None) -> transport.ProcrustesMap:
    """The Gram solve's plan for one layer: each side's least-squares map
    S = G^-1 (h_b.T h_a), (d_b, d_a), with G = h_b.T h_b, read from ``stats``
    and inverted by one ``_gram_solve`` (rcond route when rcond is given,
    ridge route otherwise). Each map is stored as the view ``S.T``: a copy
    would hand the apply's BLAS call another layout, and other bits."""
    s_in = _gram_solve(stats.in_side.gram_b, stats.in_side.cross.T, rcond, lam)
    s_out = _gram_solve(stats.out_side.gram_b, stats.out_side.cross.T, rcond, lam)
    return transport.ProcrustesMap(s_in.T, s_out.T, None, None, orthonormal=False)


def gram_transport(stats, update_src, bias_delta=None,
                   rcond: float | None = None, lam: float | None = None):
    """Least-squares coupling match on the target activations of one layer.

    Solves for the target update whose coupling on the calibration rows best
    matches the source coupling, and for the bias delta whose constant output
    shift best matches the source's:

        new      = G_out^-1 (hout_b.T hout_a) update (hin_a.T hin_b) G_in^-1
        new_bias = G_out^-1 (hout_b.T hout_a) bias

    that is, new = S_out update S_in.T and new_bias = S_out bias: ``gram_plan``,
    then the one apply. Returns (new update, new bias delta or None).
    """
    plan = gram_plan(stats, rcond, lam)
    new_bias = None if bias_delta is None else transport.transport_bias(bias_delta, plan)
    return transport.transport_update(update_src, plan), new_bias


def pinv_transport(stats, update_src, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """``gram_transport`` of the update through pseudo-inverses of the target Grams.

    Kept by name because the benchmark's per-layer trace (``perfbench/spans.py``)
    lists it; it goes once that trace names ``gram_transport`` instead.
    """
    return gram_transport(stats, update_src, rcond=rcond)[0]

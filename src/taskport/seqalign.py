"""Token-sequence length alignment.

Activations from models with different token counts are compared after
resampling along the token axis. Three strategies:

- ``mean``: average all tokens; both sides of a comparison collapse to length 1.
- ``interp1d``: linear resampling with the first and last token pinned.
- ``interp2d``: tokens form a square grid (side g, length g*g) with an optional
  leading extra token that is passed through untouched (length g*g + 1);
  the grid is resampled bilinearly with corner positions pinned.

Every strategy is a fixed linear map of the input tokens.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError
from .linalg import require_finite

__all__ = [
    "STRATEGIES",
    "align_sequence",
    "flatten_tokens",
    "resample_weights",
    "grid_side",
]

STRATEGIES = ("mean", "interp1d", "interp2d")


def _as_tokens(h, name="activations") -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 3:
        raise DimensionError(f"{name} must be 3-D (sequences, tokens, features), got shape {h.shape}")
    if min(h.shape) < 1:
        raise DimensionError(f"{name} must be non-empty, got shape {h.shape}")
    return h


def resample_weights(l_src: int, l_target: int) -> np.ndarray:
    """(l_target, l_src) linear-resampling matrix, endpoints mapped exactly.

    Interior positions use exact integer arithmetic for the source coordinate
    j * (l_src - 1) / (l_target - 1), so equal lengths give the identity matrix
    and endpoints carry weight exactly 1.
    """
    if l_src < 1 or l_target < 1:
        raise DimensionError(f"token counts must be positive, got {l_src} -> {l_target}")
    w = np.zeros((l_target, l_src))
    if l_src == 1:
        w[:, 0] = 1.0
        return w
    if l_target == 1:
        w[0, 0] = 1.0
        return w
    denom = l_target - 1
    for j in range(l_target):
        num = j * (l_src - 1)
        i0, rem = divmod(num, denom)
        if rem == 0:
            w[j, i0] = 1.0
        else:
            frac = rem / denom
            w[j, i0] = 1.0 - frac
            w[j, i0 + 1] = frac
    return w


def grid_side(length: int) -> tuple[int, bool]:
    """Decompose a token count as g*g or g*g + 1 (leading extra token).

    Returns (g, has_extra). Counts fitting neither form are an error.
    """
    g = math.isqrt(length)
    if g * g == length:
        return g, False
    g = math.isqrt(length - 1)
    if length >= 2 and g * g == length - 1:
        return g, True
    raise DimensionError(
        f"token count {length} is not a square grid (g*g) or grid plus one leading token (g*g + 1)"
    )


def align_sequence(h, l_target: int, strategy: str) -> np.ndarray:
    """Resample (N, L_src, d) finite activations to l_target tokens."""
    h = require_finite(_as_tokens(h), "activations")
    if strategy not in STRATEGIES:
        raise DimensionError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    if l_target < 1:
        raise DimensionError(f"l_target must be positive, got {l_target}")
    l_src = h.shape[1]

    if strategy == "mean":
        return h.mean(axis=1, keepdims=True)

    if strategy == "interp1d":
        if l_src == l_target:
            return h.copy()
        w = resample_weights(l_src, l_target)
        return np.einsum("ts,nsd->ntd", w, h)

    # interp2d: validate both layouts before the equal-length fast path so a
    # non-grid count is always rejected.
    g_src, extra_src = grid_side(l_src)
    g_tgt, extra_tgt = grid_side(l_target)
    if extra_src != extra_tgt:
        raise DimensionError(
            f"grid alignment cannot map token count {l_src} to {l_target}: "
            f"only one side carries the extra leading token"
        )
    if l_src == l_target:
        return h.copy()
    start = 1 if extra_src else 0
    n, _, d = h.shape
    grid = h[:, start:, :].reshape(n, g_src, g_src, d)
    w = resample_weights(g_src, g_tgt)
    resampled = np.einsum("ra,cb,nabd->nrcd", w, w, grid).reshape(n, g_tgt * g_tgt, d)
    if extra_src:
        resampled = np.concatenate([h[:, :1, :], resampled], axis=1)
    return resampled


def flatten_tokens(h) -> np.ndarray:
    """(N, L, d) -> (N*L, d); row n*L + l is token l of sequence n (no scan)."""
    h = _as_tokens(h)
    n, l, d = h.shape
    return h.reshape(n * l, d)

"""Token-sequence length alignment.

Activations from models with different token counts are compared after
resampling along the token axis. Three strategies:

- ``mean``: average all tokens; both sides of a comparison collapse to length 1.
- ``interp1d``: linear resampling with the first and last token pinned.
- ``interp2d``: tokens form a square grid (side g, length g*g) with an optional
  leading extra token that is passed through untouched (length g*g + 1);
  the grid is resampled bilinearly with corner positions pinned.

Every strategy is a fixed linear map of the input tokens: ``token_map``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError
from .linalg import as_batch, require_finite

__all__ = [
    "STRATEGIES",
    "align_sequence",
    "flatten_tokens",
    "resample_weights",
    "grid_side",
    "token_map",
]

STRATEGIES = ("mean", "interp1d", "interp2d")


def resample_weights(l_src: int, l_target: int) -> np.ndarray:
    """(l_target, l_src) linear-resampling matrix, endpoints mapped exactly.

    Interior positions use exact integer arithmetic for the source coordinate
    j * (l_src - 1) / (l_target - 1), so equal lengths give the identity matrix
    and endpoints carry weight exactly 1.
    """
    if l_src < 1 or l_target < 1:
        raise DimensionError(f"token counts must be positive, got {l_src} -> {l_target}")
    w = np.zeros((l_target, l_src))
    denom = max(l_target - 1, 1)  # one target token takes the first source token
    for j in range(l_target):
        i0, rem = divmod(j * (l_src - 1), denom)
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


def token_map(l_src: int, l_target: int, strategy: str) -> np.ndarray:
    """The strategy as one (L_out, l_src) matrix of token weights.

    ``interp1d`` is ``resample_weights``; ``interp2d`` its Kronecker square over
    the grid, with a 1x1 block passing an extra leading token through; ``mean``
    a row of ones, the token sum that ``align_sequence`` divides by l_src.
    """
    if strategy not in STRATEGIES:
        raise DimensionError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    if l_target < 1:
        raise DimensionError(f"l_target must be positive, got {l_target}")
    if strategy == "mean":
        return np.ones((1, l_src))
    if strategy == "interp1d":
        return resample_weights(l_src, l_target)
    g_src, extra_src = grid_side(l_src)
    g_tgt, extra_tgt = grid_side(l_target)
    if extra_src != extra_tgt:
        raise DimensionError(
            f"grid alignment cannot map token count {l_src} to {l_target}: "
            f"only one side carries the extra leading token"
        )
    w = resample_weights(g_src, g_tgt)
    m = np.kron(w, w)
    if extra_src:
        m = np.pad(m, ((1, 0), (1, 0)))
        m[0, 0] = 1.0
    return m


def align_sequence(h, l_target: int, strategy: str) -> np.ndarray:
    """Apply ``token_map`` to (N, L_src, d) finite activations; a map that
    keeps the token count is the identity, so the input is copied."""
    h = require_finite(as_batch(h, "activations"), "activations")
    l_src = h.shape[1]
    m = token_map(l_src, l_target, strategy)
    if m.shape[0] == l_src:
        return h.copy()
    out = np.einsum("ts,nsd->ntd", m, h)
    return out / l_src if strategy == "mean" else out


def flatten_tokens(h) -> np.ndarray:
    """(N, L, d) -> (N*L, d); row n*L + l is token l of sequence n (no scan)."""
    h = as_batch(h, "activations")
    n, l, d = h.shape
    return h.reshape(n * l, d)

"""Transport of task-specific weight updates between models of different widths.

The update of a layer is characterized by the coupling it induces between the
layer's input activations and its pre-update output activations on a shared
calibration set. Transport finds, for each side of the layer, the orthonormal
map that best aligns the source model's activations with the target model's
(an orthogonal Procrustes problem solved by SVD of the cross-covariance), then
conjugates the source update with those maps:

    new_update = out_map.T @ source_update @ in_map

with each map stored and applied source -> target as a (d_src, d_dst) matrix:
the polar factor ``u @ vt`` of the side's cross-covariance ``h_a.T @ h_b``,
one orientation for every side. Where the source is no wider than its
target the map has orthonormal rows, and conjugation keeps the update's
Frobenius norm exactly. Where the source is wider the map has orthonormal
columns, is reported ``*_swapped``, and can only shrink the norm.
``transport_update`` asserts the norm identity on every side whose source is
no wider and that no other side grows the norm.

The solves and diagnostics read a layer's aligned rows only through
``LayerStats``, its input and output ``SideStats``: feature-space statistics
that ``SideStats``, the one builder, computes and checks once per side. They
are taken on each model's own tokens, with an ``interp1d``/``interp2d`` token
map folded in, so the aligned rows are never made.

The calibration is a zero-argument callable that returns a new
``(inputs_a, inputs_b)`` pair on every call, which transport owns: it is
called once for layer 0's inputs, and again only by a firing input-side
guard. A layer's input statistics are taken before its forward pass. A
square layer's output is written over its input, a block of rows at a time,
layer 0's over the calibration pair; a layer that changes width makes a new
output and drops the input once it exists. So no calibration array
outlives layer 0, one activation per model is alive through each layer's
solve, and on square layers through its forward step too. Every weight is
reached one layer at a time, through ``layer(idx)``, so an open
``model.CheckpointReader`` stands in for a loaded checkpoint and reads each
layer from its file when the loop reaches it. Each layer's source update
is taken when the loop reaches that layer and dropped once it is
transported, and ``transport_layers`` yields the layer's result at once,
so a consumer that writes it out holds one transported layer at a time.
A fallback whose guard fires aligns its rows explicitly: the input side's
are made again from a new calibration pair by the same forward steps, the
output side's are the layer's live outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import baselines
from .errors import ConfigError, DepthMismatchError, DimensionError, TaskportError, prefixed
from .linalg import DEFAULT_RCOND, as_batch, as_matrix, as_vector, cross_covariance, require_finite, svd
from .model import (
    Checkpoint,
    TaskVector,
    activate,
    apply_update,
    forward_inputs,
    forward_layer,
    task_vector,
)
from .seqalign import STRATEGIES, align_sequence, flatten_tokens, resample_weights, token_map

__all__ = [
    "METHODS",
    "LayerStats",
    "SideStats",
    "ProcrustesMap",
    "TransportConfig",
    "cross_covariance",
    "procrustes_align",
    "procrustes_maps",
    "transport_update",
    "transport_bias",
    "bilinear_residual",
    "depth_expand",
    "transport_layers",
    "transport_task_vector",
    "transport_meta",
    "transport_model",
]


@dataclass(frozen=True)
class ProcrustesMap:
    """Orthonormal alignment maps for one layer, stored source -> target.

    ``in_map`` is (d_in_src, d_in_dst) and ``out_map`` is (d_out_src,
    d_out_dst), the orientation conjugation applies. Each map is orthonormal
    along its narrow side: rows when the source is no wider than the target,
    columns otherwise. ``in_swapped``/``out_swapped`` report that the source
    is wider on this side, read off the map's shape. The residuals are the
    Frobenius misfits of the alignment at the optimum.
    """

    in_map: np.ndarray
    out_map: np.ndarray
    in_residual: float = 0.0
    out_residual: float = 0.0

    def __post_init__(self):
        for name, m in (("in_map", self.in_map), ("out_map", self.out_map)):
            m = as_matrix(m, name)
            narrow = m.T if m.shape[0] > m.shape[1] else m
            gram = narrow @ narrow.T
            if not np.allclose(gram, np.eye(narrow.shape[0]), atol=1e-8):
                raise DimensionError(f"{name} is not orthonormal along its narrow side (worst "
                                     f"deviation {np.abs(gram - np.eye(narrow.shape[0])).max():.3e})")
            object.__setattr__(self, name, m)
        for name, r in (("in_residual", self.in_residual), ("out_residual", self.out_residual)):
            r = float(r)
            if not (np.isfinite(r) and r >= 0.0):
                raise DimensionError(f"{name} must be a finite non-negative real, got {r}")
            object.__setattr__(self, name, r)

    @property
    def in_swapped(self) -> bool:
        return self.in_map.shape[0] > self.in_map.shape[1]

    @property
    def out_swapped(self) -> bool:
        return self.out_map.shape[0] > self.out_map.shape[1]


@dataclass
class TransportConfig:
    method: str = "theseus"
    strategy: str = "interp2d"
    # Ridge strength for the pinv_tikhonov method. None resolves per Gram side
    # to 1e-3 times the mean diagonal; an explicit value is used as given.
    lam: Optional[float] = None
    rcond: float = DEFAULT_RCOND
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}, valid: {', '.join(METHODS)}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown seq_align strategy {self.strategy!r}, valid: {', '.join(STRATEGIES)}")
        if self.lam is not None and not (np.isfinite(self.lam) and self.lam > 0):
            raise ConfigError(f"lambda must be finite and positive when given, got {self.lam}")
        if not (np.isfinite(self.rcond) and self.rcond >= 0):
            raise ConfigError(f"rcond must be finite and non-negative, got {self.rcond}")
        self.seed = int(self.seed)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def echo(self) -> dict:
        return {
            "method": self.method,
            "seq_align": self.strategy,
            "lambda": self.lam,
            "rcond": self.rcond,
            "seed": self.seed,
        }


def _folded_pairs(h_a, h_b, m, r):
    """The pairs of one side's aligned rows, made one at a time on each
    model's own tokens, where the token map ``m`` (with ``m.T @ m = r.T @ r``)
    resamples the shorter model's activations h_s to the longer model's h_l:
    the aligned rows m h_s have the Gram of r h_s, and their cross-covariance
    with h_l is that of h_s with m.T h_l, both on N * L_s rows; h_l keeps
    its own Gram."""
    short = 0 if h_a.shape[1] < h_b.shape[1] else 1
    for i, h in enumerate((h_a, h_b)):
        rows = flatten_tokens(r @ h if i == short else h)
        yield rows, rows
        del rows
    yield tuple(flatten_tokens(h if i == short else m.T @ h) for i, h in enumerate((h_a, h_b)))


def _aligned_rows(h_a, h_b, strategy: str):
    """Both models' (N, L, d) activations, length-aligned per strategy and
    flattened: one side's rows, which pair by construction."""
    length = 1 if strategy == "mean" else max(h_a.shape[1], h_b.shape[1])
    return tuple(flatten_tokens(h if strategy != "mean" and h.shape[1] == length
                                else align_sequence(h, length, strategy))
                 for h in (h_a, h_b))


class SideStats:
    """One side of a layer's statistics, from both models' activations on
    their own tokens, h_a (N, L_a, d_a) and h_b (N, L_b, d_b), which must
    pair the same N sequences.

    The side's rows are the two activations length-aligned per ``strategy``
    and flattened. Kept are the widths ``d_a``, ``d_b``, the sequence count
    ``n``, the rows' Grams ``gram_a = h_a.T @ h_a`` and ``gram_b``, and their
    cross-covariance ``cross = h_a.T @ h_b``, (d_a, d_b) whichever model is
    wider. The three products must be finite: a NaN, an Inf or an
    overflowing row reaches its Gram's diagonal, so this rejects bad rows
    scanning features x features entries.

    Where ``interp1d``/``interp2d`` resample the shorter model's L_s tokens
    by the token map M, the products are taken on N * L_s rows instead of the
    aligned rows (``_folded_pairs``, with R from the thin QR factorization
    M = Q R); ``mean`` and equal token counts take them on the aligned rows.

    The rows are not kept: ``rows()`` aligns and flattens the pair that
    ``remake()`` returns, and only a firing guard calls it. By default that
    pair is the arrays given, which the side then holds.
    """

    def __init__(self, h_a, h_b, strategy: str, name: str, remake=None):
        h_a, h_b = as_batch(h_a, f"{name}_a"), as_batch(h_b, f"{name}_b")
        if h_a.shape[0] != h_b.shape[0]:
            raise DimensionError(f"{name}_a and {name}_b pair the same samples, "
                                 f"got {h_a.shape[0]} vs {h_b.shape[0]} sequences")
        self.n, self.strategy = h_a.shape[0], strategy
        self.remake = (lambda: (h_a, h_b)) if remake is None else remake
        l_a, l_b = h_a.shape[1], h_b.shape[1]
        if strategy == "mean" or l_a == l_b:
            a, b = _aligned_rows(h_a, h_b, strategy)
            pairs = (a, a), (b, b), (a, b)
        else:
            m = token_map(min(l_a, l_b), max(l_a, l_b), strategy)
            pairs = _folded_pairs(h_a, h_b, m, np.linalg.qr(m, mode="r"))
        products = []
        # Non-finite or overflowing rows give non-finite products, rejected here.
        with np.errstate(over="ignore", invalid="ignore"):
            for x, y in pairs:  # a pair made on demand is dropped before the next is made
                products.append(x.T @ y)
                del x, y
        self.gram_a = require_finite(products[0], f"{name}_a.T @ {name}_a")
        self.gram_b = require_finite(products[1], f"{name}_b.T @ {name}_b")
        self.cross = require_finite(products[2], f"the {name} cross-covariance")
        self.d_a, self.d_b = len(self.gram_a), len(self.gram_b)

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        return _aligned_rows(*self.remake(), self.strategy)


@dataclass(frozen=True)
class LayerStats:
    """One layer's statistics, its input side and its output side.

    Procrustes, the Gram solve and the coupling residual read these instead
    of rows. Each side is built, and its rows checked, by ``SideStats``; the
    two sides must pair the same sequences. On the transport path the input
    side's rows are made again from the calibration batch by a firing guard,
    and the output side's are the layer's live outputs.
    """

    in_side: SideStats
    out_side: SideStats

    def __post_init__(self):
        if self.in_side.n != self.out_side.n:
            raise DimensionError(f"the input side pairs {self.in_side.n} sequences, "
                                 f"the output side {self.out_side.n}; a layer's sides pair the same")

    def check_update(self, update, model: str, name: str) -> np.ndarray:
        """``update`` as float64, checked to be (d_out, d_in) of model ``"a"`` or ``"b"``."""
        update = np.asarray(update, dtype=np.float64)
        shape = tuple(getattr(side, f"d_{model}") for side in (self.out_side, self.in_side))
        if update.shape != shape:
            raise DimensionError(f"{name} shape {update.shape} does not match activations {shape}")
        return update


def _guarded_distance(aa: float, bb: float, ab: float, direct) -> float:
    """``sqrt(aa + bb - 2 ab)`` from two squared norms and their inner product,
    or ``direct()`` where that difference cancels more than four digits."""
    squared = aa + bb - 2.0 * ab
    if squared >= 1e-4 * (aa + bb):
        return float(np.sqrt(squared))
    return float(direct())


def procrustes_align(side: SideStats) -> tuple[np.ndarray, float]:
    """The orthonormal (d_a, d_b) map t nearest the side's alignment, source -> target.

    t = u @ vt, the polar factor of the cross-covariance ``h_a.T @ h_b`` from
    its SVD: orthonormal rows where the source is no wider, orthonormal
    columns where it is wider. Either way it maps the narrow side into the
    wide one with the least misfit, ``|h_a @ t - h_b|`` or ``|h_b @ t.T - h_a|``,
    which at the optimum is ``sqrt(|h_a|^2 + |h_b|^2 - 2 sum(sigma))``.
    Returns (t, residual).
    """
    u, sigma, vt = svd(side.cross)
    t = u @ vt

    def direct():  # |narrow mapped into wide - wide|
        h_a, h_b = side.rows()
        return np.linalg.norm(h_a @ t - h_b if side.d_a <= side.d_b else h_b @ t.T - h_a)

    residual = _guarded_distance(np.trace(side.gram_a), np.trace(side.gram_b), np.sum(sigma), direct)
    return t, residual


def procrustes_maps(stats: LayerStats) -> ProcrustesMap:
    """Alignment maps for both sides of a layer."""
    in_map, in_residual = procrustes_align(stats.in_side)
    out_map, out_residual = procrustes_align(stats.out_side)
    return ProcrustesMap(in_map, out_map, in_residual, out_residual)


def _check_norm(side: str, before, after, swapped: bool) -> None:
    """Orthonormal rows keep the Frobenius norm to 1e-10 relative; the
    orthonormal columns of a side whose source is wider (``swapped``) may
    shrink it but never grow it."""
    n0 = float(np.linalg.norm(before))
    n1 = float(np.linalg.norm(after))
    slack = 1e-10 * n0 + 1e-300
    if n1 > n0 + slack or (not swapped and n1 < n0 - slack):
        rule = "bound" if swapped else "identity"
        raise TaskportError(
            f"transport broke the norm {rule} on the {side} side: |update| went {n0!r} -> {n1!r}",
            kind="norm_identity_violation",
        )


def transport_update(update_src, pmap: ProcrustesMap) -> np.ndarray:
    """Conjugate a (d_out_src, d_in_src) update into target coordinates.

    The output is (d_out_dst, d_in_dst). Its Frobenius norm matches the source
    update to 1e-10 relative per side when no source side is wider than its
    target, and does not grow otherwise; the norm is checked after each side,
    not assumed.
    """
    update_src = as_matrix(update_src, "update")
    in_map, out_map = pmap.in_map, pmap.out_map
    if update_src.shape != (out_map.shape[0], in_map.shape[0]):
        raise DimensionError(
            f"update shape {update_src.shape} does not match maps "
            f"({out_map.shape[0]} out, {in_map.shape[0]} in on the source side)"
        )
    left = out_map.T @ update_src
    _check_norm("output", update_src, left, pmap.out_swapped)
    out = left @ in_map
    _check_norm("input", left, out, pmap.in_swapped)
    return out


def transport_bias(bias_delta, pmap: ProcrustesMap) -> np.ndarray:
    """Bias deltas live in the output space only, so they ride the output map
    alone, under the output side's norm check."""
    b = as_vector(bias_delta, pmap.out_map.shape[0], "bias delta")
    out = pmap.out_map.T @ b
    _check_norm("output", b, out, pmap.out_swapped)
    return out


def _coupling_inner(u, c_in, c_out, v) -> float:
    """``<h_in_u u.T h_out_u.T, h_in_v v.T h_out_v.T> = tr(u c_in v.T c_out.T)``
    with c_in = h_in_u.T h_in_v and c_out = h_out_u.T h_out_v."""
    return float(np.vdot(u @ c_in, c_out @ v))


def bilinear_residual(stats: LayerStats, update_a, update_b) -> float:
    """Frobenius distance between the two updates' activation couplings.

    The coupling of an update is ``h_in @ update.T @ h_out.T`` on the paired
    calibration rows; the rows x rows couplings are never formed. The squared
    distance ``|C_a|^2 + |C_b|^2 - 2 <C_a, C_b>`` is taken from traces of the
    layer's statistics. Where it cancels, the distance is taken again from
    the rows, which the sides make again: with ``[hout_a, hout_b] = Q R`` the
    coupling difference is ``[shifted_a, -shifted_b] @ R.T @ Q.T``, whose
    norm is that of the rows x features product ``[shifted_a, -shifted_b] @ R.T``.
    """
    side_in, side_out = stats.in_side, stats.out_side
    update_a = stats.check_update(update_a, "a", "update_a")
    update_b = stats.check_update(update_b, "b", "update_b")
    aa = _coupling_inner(update_a, side_in.gram_a, side_out.gram_a, update_a)
    bb = _coupling_inner(update_b, side_in.gram_b, side_out.gram_b, update_b)
    ab = _coupling_inner(update_a, side_in.cross, side_out.cross, update_b)

    def from_rows():
        hin_a, hin_b = side_in.rows()
        shifted_a, shifted_b = hin_a @ update_a.T, hin_b @ update_b.T
        # R is upper triangular, so hout_a's columns reach only its first o_a rows.
        o_a = side_out.d_a
        r = np.linalg.qr(np.hstack(side_out.rows()), mode="r")
        top = shifted_a @ r[:o_a, :o_a].T - shifted_b @ r[:o_a, o_a:].T
        return np.hypot(np.linalg.norm(top), np.linalg.norm(shifted_b @ r[o_a:, o_a:].T))

    return _guarded_distance(aa, bb, ab, from_rows)


def _blend(arrays, row, layers):
    """Copy the one layer a resampling row picks, or blend the two it weights."""
    if arrays[0] is None:
        return None
    if len(layers) == 1:
        return arrays[layers[0]].copy()
    i, j = layers
    return row[i] * arrays[i] + row[j] * arrays[j]


def depth_expand(ckpt: Checkpoint, target_depth: int) -> Checkpoint:
    """Grow a uniform stack to target_depth by linear interpolation in layer space.

    Layer positions come from ``resample_weights(depth, target_depth)``: a new
    layer on a source layer (the endpoints among them) is a bitwise copy, any
    other blends its two neighbours. Requires every layer to share one spec
    (square, same bias/activation flags); shrinking is not supported.
    """
    depth = ckpt.depth
    if depth < 1:
        raise DimensionError("cannot depth-expand an empty checkpoint")
    if target_depth < depth:
        raise DimensionError(f"cannot expand depth {depth} down to {target_depth}")
    spec0 = ckpt.layer_specs[0]
    if spec0.d_in != spec0.d_out:
        raise DimensionError(
            f"depth expansion needs a uniform-width stack, layer 0 is ({spec0.d_in}, {spec0.d_out})"
        )
    for idx, spec in enumerate(ckpt.layer_specs):
        if spec != spec0:
            raise DimensionError(
                f"depth expansion needs identical layer specs throughout; layer {idx} "
                f"({spec.d_in}, {spec.d_out}, bias={spec.has_bias}, {spec.activation}) "
                f"differs from layer 0"
            )
    if target_depth == depth:
        return ckpt.copy()
    weights, biases = [], []
    for row in resample_weights(depth, target_depth):
        layers = np.flatnonzero(row)
        weights.append(_blend(ckpt.weights, row, layers))
        biases.append(_blend(ckpt.biases, row, layers))
    meta = dict(ckpt.meta)
    meta["depth_expanded_from"] = str(depth)
    return Checkpoint(
        layer_specs=[spec0] * target_depth, weights=weights, biases=biases, meta=meta
    )


def _theseus(stats, delta, bias, spec_b, cfg, seed):
    pmap = procrustes_maps(stats)
    new_bias = None if bias is None else transport_bias(bias, pmap)
    return transport_update(delta, pmap), new_bias, pmap


def _norm_matched_random(d_out, d_in, delta, bias, seed):
    """Seeded Gaussian update, and bias delta when one is given, with the source's norms."""
    new = baselines.random_update(d_out, d_in, float(np.linalg.norm(delta)), seed)
    if bias is None:
        return new, None
    return new, baselines.random_update(d_out, 1, float(np.linalg.norm(bias)), seed + 7919).ravel()


def _random_source(stats, delta, bias, spec_b, cfg, seed):
    src, bias_src = _norm_matched_random(*delta.shape, delta, bias, seed)
    return _theseus(stats, src, bias_src, spec_b, cfg, seed)


def _random(stats, delta, bias, spec_b, cfg, seed):
    return *_norm_matched_random(spec_b.d_out, spec_b.d_in, delta, bias, seed), None


def _zero_pad(stats, delta, bias, spec_b, cfg, seed):
    new_delta = baselines.zero_pad_update(delta, spec_b.d_out, spec_b.d_in)
    new_bias = None
    if bias is not None:  # the update was checked not to shrink, so the bias fits
        new_bias = baselines.zero_pad_update(bias[:, None], spec_b.d_out, 1).ravel()
    return new_delta, new_bias, None


def _pinv(stats, delta, bias, spec_b, cfg, seed):
    return *baselines.gram_transport(stats, delta, bias, rcond=cfg.rcond), None


def _pinv_tikhonov(stats, delta, bias, spec_b, cfg, seed):
    return *baselines.gram_transport(stats, delta, bias, lam=cfg.lam), None


# Per-layer transport by method name. Each entry maps (the layer's
# LayerStats, update, bias delta or None, target layer spec, config, layer
# seed) to (update, bias delta or None, the ProcrustesMap it used or None).
_LAYER_METHODS = {
    "theseus": _theseus,
    "pinv": _pinv,
    "pinv_tikhonov": _pinv_tikhonov,
    "zero_pad": _zero_pad,
    "random": _random,
    "random_source": _random_source,
}
METHODS = tuple(_LAYER_METHODS)


def _transport_layer(layer_index, spec_b, stats: LayerStats, delta, bias_delta, cfg: TransportConfig):
    bias = bias_delta if spec_b.has_bias else None
    new_delta, new_bias, pmap = _LAYER_METHODS[cfg.method](
        stats, delta, bias, spec_b, cfg, cfg.seed + layer_index
    )
    shape = (spec_b.d_out, spec_b.d_in)
    if new_delta.shape != shape:
        raise TaskportError(f"transported update has shape {new_delta.shape}, expected {shape}")
    require_finite(new_delta, "transported update")
    if new_bias is not None:
        require_finite(new_bias, "transported bias delta")

    entry = {"layer_index": layer_index}
    for key in ("in_residual", "out_residual", "in_swapped", "out_swapped"):
        entry[key] = None if pmap is None else getattr(pmap, key)
    entry.update({
        "tau_norm_src": float(np.linalg.norm(delta)),
        "tau_norm_dst": float(np.linalg.norm(new_delta)),
        "bilinear_residual": bilinear_residual(stats, delta, new_delta),
    })
    return new_delta, new_bias, entry


def _calibration_inputs(thetas, calibration) -> list[np.ndarray]:
    """The pair ``calibration()`` returns, checked by ``forward_inputs`` as
    each model's layer-0 input; an array that layer 0 could not write over
    (read-only, not C-contiguous) is copied."""
    inputs_a, inputs_b = calibration()
    return [np.require(forward_inputs(theta, inputs), requirements="CW")
            for theta, inputs in zip(thetas, (inputs_a, inputs_b))]


def _pair_again(thetas, calibration, shapes, idx: int) -> tuple[np.ndarray, np.ndarray]:
    """Layer ``idx``'s input of each model in ``thetas``, made again one
    layer at a time, as ``transport_layers`` makes it, from a new pair
    that ``calibration`` returns, which must have the first pair's
    ``shapes``; a ``CheckpointReader`` reads the earlier layers again."""
    pair = _calibration_inputs(thetas, calibration)
    got = tuple(h.shape for h in pair)
    if got != shapes:
        raise DimensionError(f"the calibration read again has shapes {got[0]} and {got[1]}, "
                             f"the first read {shapes[0]} and {shapes[1]}")
    for i, ckpt in enumerate(thetas):
        for k in range(idx):
            z = _forward_over(ckpt, k, pair[i])
            pair[i] = activate(ckpt.layer_specs[k], z, out=z)
    return tuple(pair)


def _forward_over(ckpt, idx: int, h: np.ndarray) -> np.ndarray:
    """Layer ``idx``'s pre-activation output on ``h``, written over ``h``
    where the layer is square: every input a layer steps is transport's own,
    layer 0's the pair the calibration callable returned."""
    spec = ckpt.layer_specs[idx]
    if spec.d_in == spec.d_out:
        return forward_layer(ckpt, idx, h, h)
    return forward_layer(ckpt, idx, h)


def transport_layers(theta_a, update_a, theta_b, calibration, cfg: TransportConfig):
    """Move the source update ``update_a``, in theta_a's coordinates, into
    theta_b's, yielding each layer's ``(delta, bias delta or None, report
    entry)`` as soon as that layer is transported.

    ``theta_a`` and ``theta_b`` are each a ``Checkpoint`` or an open
    ``CheckpointReader``: every weight is reached through ``layer(idx)``, so
    a reader reads each layer from its file when the loop reaches it, and
    again only for a firing input-side guard. ``update_a`` is a callable
    that returns layer ``idx``'s ``(delta, bias delta or None)``, which
    transport owns: it is called once per layer, when the loop reaches
    that layer, and the pair is dropped once transported.
    ``TaskVector.take`` is one; ``functools.partial(layer_delta, base,
    finetuned)`` over two readers is another, which reads the fine-tuned
    layer and writes the delta over it.

    ``calibration`` is a zero-argument callable that returns a new
    ``(inputs_a, inputs_b)`` pair on every call: paired calibration inputs,
    the same underlying samples rendered in each model's input space.
    Transport owns each pair it is given and writes over it. It is called
    once, after the depth check, and again only when an input-side guard
    fires; a pair read again must have the first pair's shapes. A caller
    that keeps its arrays returns copies of them.

    The generator keeps nothing it yields, so a consumer that drops each
    layer's delta before asking for the next holds one transported layer
    at a time.

    The two base models run on the pair one layer at a time: each layer's
    activations are reduced to its statistics (length-aligned per
    cfg.strategy), which fit that layer's maps per cfg.method. A layer's input
    statistics are taken before its forward pass, which writes over its input
    where the layer is square, else drops it once its output exists, so no
    calibration array outlives layer 0, one activation per model is alive
    through the solve and memory does not grow with depth. A firing guard on
    the input side makes its rows again from a new pair; one on the output
    side reads the live outputs.
    """
    if theta_a.depth != theta_b.depth:
        raise DepthMismatchError(
            f"source has {theta_a.depth} layers, target has {theta_b.depth}; "
            f"expand the shallower stack first"
        )
    thetas = (theta_a, theta_b)
    h_a, h_b = _calibration_inputs(thetas, calibration)
    shapes = (h_a.shape, h_b.shape)

    # Each layer's output array replaces its input, or is written over it,
    # and is activated in place, as nothing else holds it once the layer's
    # statistics are dropped.
    for idx in range(theta_a.depth):
        with prefixed(f"layer {idx}"):
            in_side = SideStats(h_a, h_b, cfg.strategy, "hin",
                                partial(_pair_again, thetas, calibration, shapes, idx))
        z_a = _forward_over(theta_a, idx, h_a)
        del h_a
        z_b = _forward_over(theta_b, idx, h_b)
        del h_b
        with prefixed(f"layer {idx}"):
            stats = LayerStats(in_side, SideStats(z_a, z_b, cfg.strategy, "hout"))
        delta, bias_delta = update_a(idx)
        with prefixed(f"layer {idx}"):
            layer = _transport_layer(idx, theta_b.layer_specs[idx], stats, delta, bias_delta, cfg)
        # Else they outlive the next layer's input statistics, and the output
        # side's rows are the outputs that are activated in place next. The
        # source update of a transported layer is not read again.
        del in_side, stats, delta, bias_delta
        h_a = activate(theta_a.layer_specs[idx], z_a, out=z_a)
        h_b = activate(theta_b.layer_specs[idx], z_b, out=z_b)
        yield layer
        del layer  # else the layer outlives the consumer's copy, through the next solve


def transport_task_vector(
    theta_a: Checkpoint,
    theta_a_ft: Checkpoint,
    theta_b: Checkpoint,
    calibration,
    cfg: TransportConfig,
) -> tuple[TaskVector, dict]:
    """Move the update (theta_a_ft - theta_a) into theta_b's coordinates:
    ``task_vector``, whose layers ``transport_layers`` takes and drops one
    by one, and every layer of ``transport_layers``, whose ``calibration``
    contract this shares. Returns the transported task vector and a
    per-layer report."""
    layers = list(transport_layers(theta_a, task_vector(theta_a, theta_a_ft).take, theta_b, calibration, cfg))
    update_b = TaskVector(deltas=[d for d, _, _ in layers], bias_deltas=[b for _, b, _ in layers])
    return update_b, {**cfg.echo(), "layers": [entry for _, _, entry in layers]}


def transport_meta(report: dict) -> dict:
    """The meta entries a transported checkpoint carries, from the report of
    a transport applied at ``report["alpha"]``: ``alpha`` as ``apply_update``
    records it, ``transport`` (the report without its layers) and
    ``transport_residuals`` (its layers)."""
    return {
        "alpha": repr(float(report["alpha"])),
        "transport": json.dumps({k: v for k, v in report.items() if k != "layers"}, sort_keys=True),
        "transport_residuals": json.dumps(report["layers"], sort_keys=True),
    }


def transport_model(
    theta_a: Checkpoint,
    theta_a_ft: Checkpoint,
    theta_b: Checkpoint,
    calibration,
    cfg: TransportConfig,
    alpha: float = 1.0,
) -> tuple[Checkpoint, dict]:
    """Full per-layer pipeline: ``transport_task_vector``, then
    ``apply_update`` at strength alpha, the result's meta extended by
    ``transport_meta``. ``calibration`` is ``transport_layers``': a
    zero-argument callable that returns a new calibration pair, which
    transport owns, on every call."""
    update_b, report = transport_task_vector(theta_a, theta_a_ft, theta_b, calibration, cfg)
    out = apply_update(theta_b, update_b, alpha)
    report = {**report, "alpha": float(alpha)}
    out.meta.update(transport_meta(report))
    return out, report

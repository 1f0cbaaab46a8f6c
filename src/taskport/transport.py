"""Transport of task-specific weight updates between models of different widths.

The update of a layer is characterized by the coupling it induces between the
layer's input activations and its pre-update output activations on a shared
calibration set. Transport finds, for each side of the layer, the orthonormal
map that best aligns the source model's activations with the target model's
(an orthogonal Procrustes problem solved by SVD of the cross-covariance), then
conjugates the source update with those maps:

    new_update = out_map.T @ source_update @ in_map

with each map stored and applied source -> target as a (d_src, d_dst) matrix.
A side whose source is no wider than its target has a map with orthonormal
rows, and conjugation keeps the update's Frobenius norm exactly. A side whose
source is wider is solved with the Procrustes roles swapped, so its map has
more rows than columns, is reported ``*_swapped``, has orthonormal columns and
can only shrink the norm. ``transport_update`` asserts the norm identity on
every unswapped side and that no swapped side grows the norm.

The solves and diagnostics read a layer's aligned rows only through
``LayerStats``, feature-space statistics computed and checked once per layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import baselines
from .errors import ConfigError, DepthMismatchError, DimensionError, TaskportError
from .linalg import DEFAULT_RCOND, as_matrix, as_vector, cross_covariance, require_finite, svd
from .model import (
    ActivationRecord,
    Checkpoint,
    TaskVector,
    activate,
    apply_update,
    forward_inputs,
    forward_layer,
    task_vector,
)
from .seqalign import STRATEGIES, align_sequence, flatten_tokens, resample_weights

__all__ = [
    "METHODS",
    "LayerStats",
    "ProcrustesMap",
    "TransportConfig",
    "cross_covariance",
    "procrustes_align",
    "procrustes_maps",
    "transport_update",
    "transport_bias",
    "bilinear_residual",
    "depth_expand",
    "transport_task_vector",
    "transport_model",
]


@dataclass(frozen=True)
class ProcrustesMap:
    """Orthonormal alignment maps for one layer, stored source -> target.

    ``in_map`` is (d_in_src, d_in_dst) and ``out_map`` is (d_out_src,
    d_out_dst), the orientation conjugation applies. Each map is orthonormal
    along its narrow side: rows when the source is no wider than the target,
    columns otherwise. A map with more rows than columns was solved with the
    roles swapped, which ``in_swapped``/``out_swapped`` report. The residuals
    are the Frobenius misfits of the solved alignment at the optimum.
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


class SideStats:
    """One side of a layer's statistics: source and target rows ``h_a``, ``h_b``,
    their Grams, and their cross-covariance ``cross`` as the Procrustes SVD
    takes it, narrow side first (``h_b.T @ h_a`` when ``swapped``, the source
    wider); ``cross_ab`` is ``h_a.T @ h_b`` either way, as a view."""

    def __init__(self, h_a, h_b, name: str):
        self.h_a, self.h_b = h_a, h_b
        self.swapped = h_a.shape[1] > h_b.shape[1]
        # Non-finite or overflowing rows give non-finite products, rejected here.
        with np.errstate(over="ignore", invalid="ignore"):
            self.gram_a = require_finite(h_a.T @ h_a, f"{name}_a.T @ {name}_a")
            self.gram_b = require_finite(h_b.T @ h_b, f"{name}_b.T @ {name}_b")
            cross = h_b.T @ h_a if self.swapped else h_a.T @ h_b
        self.cross = require_finite(cross, f"the {name} cross-covariance")

    @property
    def cross_ab(self) -> np.ndarray:
        return self.cross.T if self.swapped else self.cross


class LayerStats:
    """Four Grams and two cross-covariances of one layer's aligned rows
    (hin_a, hout_a, hin_b, hout_b), as ``in_side`` and ``out_side``.

    Procrustes, the Gram solve and the coupling residual read these instead
    of rows, and this is where the rows are checked: they must pair, and the
    six products must be finite. A NaN or Inf in a row reaches its Gram's
    diagonal, so this rejects bad rows scanning features x features entries.
    """

    def __init__(self, hin_a, hout_a, hin_b, hout_b):
        rows = [np.asarray(h, dtype=np.float64) for h in (hin_a, hout_a, hin_b, hout_b)]
        for name, h in zip(("hin_a", "hout_a", "hin_b", "hout_b"), rows):
            if h.ndim != 2 or min(h.shape) < 1:
                raise DimensionError(f"{name} must be a non-empty 2-D matrix, got shape {h.shape}")
        if len({h.shape[0] for h in rows}) != 1:
            raise DimensionError("all four activation matrices must have the same number of rows")
        self.in_side = SideStats(rows[0], rows[2], "hin")
        self.out_side = SideStats(rows[1], rows[3], "hout")

    def check_update(self, update, model: str, name: str) -> np.ndarray:
        """``update`` as float64, checked to be (d_out, d_in) of model ``"a"`` or ``"b"``."""
        update = np.asarray(update, dtype=np.float64)
        shape = tuple(getattr(side, f"h_{model}").shape[1] for side in (self.out_side, self.in_side))
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
    """Best orthonormal (d_src, d_dst) map t minimizing ``|h_a @ t - h_b|`` on one side.

    t = u @ vt from the SVD of the side's cross-covariance, with orthonormal
    rows; on a swapped side the SVD solves target -> source and t is its
    transpose, with orthonormal columns. The residual at the optimum is
    ``sqrt(|h_a|^2 + |h_b|^2 - 2 sum(sigma))``. Returns (t, residual).
    """
    u, sigma, vt = svd(side.cross)
    t = u @ vt
    narrow, wide = (side.h_b, side.h_a) if side.swapped else (side.h_a, side.h_b)
    residual = _guarded_distance(
        np.trace(side.gram_a), np.trace(side.gram_b), np.sum(sigma),
        lambda: np.linalg.norm(narrow @ t - wide),
    )
    return (t.T if side.swapped else t), residual


def procrustes_maps(stats: LayerStats) -> ProcrustesMap:
    """Alignment maps for both sides of a layer."""
    in_map, in_residual = procrustes_align(stats.in_side)
    out_map, out_residual = procrustes_align(stats.out_side)
    return ProcrustesMap(in_map, out_map, in_residual, out_residual)


def _check_norm(side: str, before, after, swapped: bool) -> None:
    """Orthonormal rows keep the Frobenius norm to 1e-10 relative; the
    orthonormal columns of a swapped side may shrink it but never grow it."""
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
    update to 1e-10 relative per side when neither side is swapped, and does
    not grow otherwise; the norm is checked after each side, not assumed.
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
    the rows: with ``[hout_a, hout_b] = Q R`` the coupling difference is
    ``[shifted_a, -shifted_b] @ R.T @ Q.T``, whose norm is that of the
    rows x features product ``[shifted_a, -shifted_b] @ R.T``.
    """
    side_in, side_out = stats.in_side, stats.out_side
    update_a = stats.check_update(update_a, "a", "update_a")
    update_b = stats.check_update(update_b, "b", "update_b")
    aa = _coupling_inner(update_a, side_in.gram_a, side_out.gram_a, update_a)
    bb = _coupling_inner(update_b, side_in.gram_b, side_out.gram_b, update_b)
    ab = _coupling_inner(update_a, side_in.cross_ab, side_out.cross_ab, update_b)

    def from_rows():
        shifted_a = side_in.h_a @ update_a.T
        shifted_b = side_in.h_b @ update_b.T
        # R is upper triangular, so hout_a's columns reach only its first o_a rows.
        o_a = side_out.h_a.shape[1]
        r = np.linalg.qr(np.hstack([side_out.h_a, side_out.h_b]), mode="r")
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


def _aligned_flat(rec_a: ActivationRecord, rec_b: ActivationRecord, strategy: str):
    """Length-align one layer's activation records and flatten tokens into rows."""
    length = 1 if strategy == "mean" else max(rec_a.h_in.shape[1], rec_b.h_in.shape[1])
    return tuple(
        flatten_tokens(h if strategy != "mean" and h.shape[1] == length
                       else align_sequence(h, length, strategy))
        for h in (rec_a.h_in, rec_a.h_out, rec_b.h_in, rec_b.h_out)
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


def _transport_layer(layer_index, spec_b, rec_a, rec_b, delta, bias_delta, cfg: TransportConfig):
    stats = LayerStats(*_aligned_flat(rec_a, rec_b, cfg.strategy))
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


def transport_task_vector(
    theta_a: Checkpoint,
    theta_a_ft: Checkpoint,
    theta_b: Checkpoint,
    calib_inputs_a,
    calib_inputs_b,
    cfg: TransportConfig,
) -> tuple[TaskVector, dict]:
    """Move the update (theta_a_ft - theta_a) into theta_b's coordinates.

    The two base models run on paired calibration inputs (the same underlying
    samples rendered in each model's input space) one layer at a time: each
    layer's activations are length-aligned per cfg.strategy, reduced to its
    statistics and used to fit that layer's maps per cfg.method, and are
    dropped before the next layer runs, so memory does not grow with depth.
    Returns the transported task vector and a per-layer report.
    """
    if theta_a.depth != theta_b.depth:
        raise DepthMismatchError(
            f"source has {theta_a.depth} layers, target has {theta_b.depth}; "
            f"expand the shallower stack first"
        )
    update_a = task_vector(theta_a, theta_a_ft)
    ca = np.asarray(calib_inputs_a, dtype=np.float64)
    cb = np.asarray(calib_inputs_b, dtype=np.float64)
    if ca.ndim != 3 or cb.ndim != 3 or ca.shape[0] != cb.shape[0]:
        raise DimensionError(
            "calibration inputs must be 3-D and pair the same samples "
            f"(got shapes {ca.shape} and {cb.shape})"
        )
    # One layer's activations per model at a time: h_* are replaced by the
    # activated outputs, and z_* and ca/cb are deleted rather than left bound
    # while the next layer makes its own arrays.
    h_a = forward_inputs(theta_a, ca)
    h_b = forward_inputs(theta_b, cb)
    del ca, cb

    results = []
    for idx in range(theta_a.depth):
        z_a = forward_layer(theta_a, idx, h_a)
        z_b = forward_layer(theta_b, idx, h_b)
        try:
            results.append(_transport_layer(
                idx, theta_b.layer_specs[idx],
                ActivationRecord(h_a, z_a), ActivationRecord(h_b, z_b),
                update_a.deltas[idx], update_a.bias_deltas[idx], cfg,
            ))
        except TaskportError as exc:
            raise type(exc)(f"layer {idx}: {exc}", kind=exc.kind) from exc
        h_a = activate(theta_a.layer_specs[idx], z_a)
        h_b = activate(theta_b.layer_specs[idx], z_b)
        del z_a, z_b

    deltas = [r[0] for r in results]
    bias_deltas = [r[1] for r in results]
    report = {**cfg.echo(), "layers": [r[2] for r in results]}
    return TaskVector(deltas=deltas, bias_deltas=bias_deltas), report


def transport_model(
    theta_a: Checkpoint,
    theta_a_ft: Checkpoint,
    theta_b: Checkpoint,
    calib_inputs_a,
    calib_inputs_b,
    cfg: TransportConfig,
    alpha: float = 1.0,
) -> tuple[Checkpoint, dict]:
    """Full per-layer pipeline: transport the update and apply it at strength alpha."""
    update_b, report = transport_task_vector(
        theta_a, theta_a_ft, theta_b, calib_inputs_a, calib_inputs_b, cfg
    )
    out = apply_update(theta_b, update_b, alpha)
    report = {**report, "alpha": float(alpha)}
    out.meta["transport"] = json.dumps({**cfg.echo(), "alpha": float(alpha)}, sort_keys=True)
    out.meta["transport_residuals"] = json.dumps(report["layers"], sort_keys=True)
    return out, report

"""Transport of task-specific weight updates between models of different widths.

The update of a layer is characterized by the coupling it induces between the
layer's input activations and its pre-update output activations on a shared
calibration set. Transport finds, for each side of the layer, the orthonormal
map that best aligns the source model's activations with the target model's
(an orthogonal Procrustes problem solved by SVD of the cross-covariance), then
conjugates the source update with those maps:

    new_update = out_map.T @ source_update @ in_map

with each map applied source -> target as a (d_src, d_dst) matrix. A side
whose source is no wider than its target is solved directly; its map has
orthonormal rows and conjugation keeps the update's Frobenius norm exactly. A
side whose source is wider is solved with the Procrustes roles swapped and
flagged ``*_swapped``; its map is applied transposed, has orthonormal columns,
and can only shrink the norm. ``transport_update`` asserts the norm identity on
every unswapped side and that no swapped side grows the norm.
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
    apply_update,
    forward_collect,
    task_vector,
)
from .seqalign import STRATEGIES, align_sequence, flatten_tokens

__all__ = [
    "METHODS",
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
    """Orthonormal alignment maps for one layer, stored as solved.

    Every map has orthonormal rows. On an unswapped side it is stored source
    -> target: ``in_map`` is (d_in_src, d_in_dst), ``out_map`` is
    (d_out_src, d_out_dst). A side flagged ``in_swapped``/``out_swapped`` has
    a wider source, was solved target -> source, is stored (d_dst, d_src) and
    is applied transposed. The residuals are the Frobenius misfits of the
    solved alignment at the optimum.
    """

    in_map: np.ndarray
    out_map: np.ndarray
    in_residual: float = 0.0
    out_residual: float = 0.0
    in_swapped: bool = False
    out_swapped: bool = False

    def __post_init__(self):
        for name, m in (("in_map", self.in_map), ("out_map", self.out_map)):
            m = as_matrix(m, name)
            if m.shape[0] > m.shape[1]:
                raise DimensionError(
                    f"{name} is {m.shape[0]}x{m.shape[1]}; maps are stored as solved, "
                    f"narrow side first (source -> target unless the side is swapped)"
                )
            gram = m @ m.T
            if not np.allclose(gram, np.eye(m.shape[0]), atol=1e-8):
                raise DimensionError(f"{name} rows are not orthonormal (worst "
                                     f"deviation {np.abs(gram - np.eye(m.shape[0])).max():.3e})")
            object.__setattr__(self, name, m)
        for name, r in (("in_residual", self.in_residual), ("out_residual", self.out_residual)):
            r = float(r)
            if not (np.isfinite(r) and r >= 0.0):
                raise DimensionError(f"{name} must be a finite non-negative real, got {r}")
            object.__setattr__(self, name, r)


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
            raise ConfigError(f"unknown seq-align strategy {self.strategy!r}, valid: {', '.join(STRATEGIES)}")
        if self.lam is not None and not (np.isfinite(self.lam) and self.lam > 0):
            raise ConfigError(f"lambda must be finite and positive when given, got {self.lam}")
        if not (np.isfinite(self.rcond) and self.rcond >= 0):
            raise ConfigError(f"rcond must be finite and non-negative, got {self.rcond}")
        self.seed = int(self.seed)

    def echo(self) -> dict:
        return {
            "method": self.method,
            "seq_align": self.strategy,
            "lambda": self.lam,
            "rcond": self.rcond,
            "seed": self.seed,
        }


def procrustes_align(h_src, h_dst) -> tuple[np.ndarray, float]:
    """Best row-orthonormal map t minimizing ``|h_src @ t - h_dst|``.

    t is (d_src, d_dst) with d_src <= d_dst, computed as u @ vt from the SVD of
    the cross-covariance. Returns (t, residual at the optimum).
    """
    h_src = as_matrix(h_src, "h_src")
    h_dst = as_matrix(h_dst, "h_dst")
    if h_src.shape[1] > h_dst.shape[1]:
        raise DimensionError(
            f"alignment source is wider than its target ({h_src.shape[1]} > {h_dst.shape[1]}); "
            f"swap the roles and transpose the map"
        )
    res = svd(cross_covariance(h_src, h_dst))
    t = res.u @ res.vt
    residual = float(np.linalg.norm(h_src @ t - h_dst))
    return t, residual


def procrustes_maps(hin_a, hin_b, hout_a, hout_b) -> ProcrustesMap:
    """Alignment maps for both sides of a layer from paired calibration activations.

    A side whose source activations are wider than the target's is solved with
    the roles swapped and flagged, so every map comes out row-orthonormal.
    """
    sides = {}
    for side, h_src, h_dst in (("in", hin_a, hin_b), ("out", hout_a, hout_b)):
        swapped = np.shape(h_src)[-1] > np.shape(h_dst)[-1]
        t, residual = procrustes_align(h_dst, h_src) if swapped else procrustes_align(h_src, h_dst)
        sides.update({f"{side}_map": t, f"{side}_residual": residual, f"{side}_swapped": swapped})
    return ProcrustesMap(**sides)


def _applied(m: np.ndarray, swapped: bool) -> np.ndarray:
    """A stored map in the source -> target orientation conjugation applies."""
    return m.T if swapped else m


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
    in_map = _applied(pmap.in_map, pmap.in_swapped)
    out_map = _applied(pmap.out_map, pmap.out_swapped)
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
    out_map = _applied(pmap.out_map, pmap.out_swapped)
    b = as_vector(bias_delta, out_map.shape[0], "bias delta")
    out = out_map.T @ b
    _check_norm("output", b, out, pmap.out_swapped)
    return out


def _trace_product(p, q) -> float:
    return float(np.einsum("ij,ji->", p, q))


def bilinear_residual(hin_a, hout_a, hin_b, hout_b, update_a, update_b) -> float:
    """Frobenius distance between the two updates' activation couplings.

    The coupling of an update is ``h_in @ update.T @ h_out.T`` on paired
    calibration rows; the rows x rows couplings are never formed. The squared
    distance is first taken from feature-space Gram matrices as
    ``|C_a|^2 + |C_b|^2 - 2 <C_a, C_b>``. When that difference cancels more
    than four of float64's ~16 digits (a near-exact transport), the distance
    is taken again without cancellation: with ``[hout_a, hout_b] = Q R`` (Q with
    orthonormal columns) the coupling difference is
    ``[shifted_a, -shifted_b] @ R.T @ Q.T``, whose norm is that of the
    rows x features product ``[shifted_a, -shifted_b] @ R.T``.
    """
    hin_a = as_matrix(hin_a, "hin_a")
    hout_a = as_matrix(hout_a, "hout_a")
    hin_b = as_matrix(hin_b, "hin_b")
    hout_b = as_matrix(hout_b, "hout_b")
    update_a = as_matrix(update_a, "update_a")
    update_b = as_matrix(update_b, "update_b")
    rows = hin_a.shape[0]
    if not (hout_a.shape[0] == hin_b.shape[0] == hout_b.shape[0] == rows):
        raise DimensionError("all four activation matrices must have the same number of rows")
    if update_a.shape != (hout_a.shape[1], hin_a.shape[1]):
        raise DimensionError(
            f"update_a shape {update_a.shape} does not match activations "
            f"({hout_a.shape[1]}, {hin_a.shape[1]})"
        )
    if update_b.shape != (hout_b.shape[1], hin_b.shape[1]):
        raise DimensionError(
            f"update_b shape {update_b.shape} does not match activations "
            f"({hout_b.shape[1]}, {hin_b.shape[1]})"
        )
    shifted_a = hin_a @ update_a.T
    shifted_b = hin_b @ update_b.T
    aa = _trace_product(shifted_a.T @ shifted_a, hout_a.T @ hout_a)
    bb = _trace_product(shifted_b.T @ shifted_b, hout_b.T @ hout_b)
    ab = _trace_product(shifted_a.T @ shifted_b, hout_b.T @ hout_a)
    squared = aa + bb - 2.0 * ab
    if squared >= 1e-4 * (aa + bb):
        return float(np.sqrt(squared))
    # R is upper triangular, so hout_a's columns reach only its first o_a rows.
    o_a = hout_a.shape[1]
    r = np.linalg.qr(np.hstack([hout_a, hout_b]), mode="r")
    top = shifted_a @ r[:o_a, :o_a].T - shifted_b @ r[:o_a, o_a:].T
    return float(np.hypot(np.linalg.norm(top), np.linalg.norm(shifted_b @ r[o_a:, o_a:].T)))


def depth_expand(ckpt: Checkpoint, target_depth: int) -> Checkpoint:
    """Grow a uniform stack to target_depth by linear interpolation in layer space.

    New layer l sits at fractional position l * (depth-1) / (target_depth-1) in
    the source stack; endpoint layers are copied bitwise. Requires every layer
    to share one spec (square, same bias/activation flags); shrinking is not
    supported.
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
    out = ckpt.copy()
    if target_depth == depth:
        return out
    weights, biases = [], []
    denom = target_depth - 1
    for new_idx in range(target_depth):
        i0, rem = divmod(new_idx * (depth - 1), denom)
        if rem == 0:
            weights.append(ckpt.weights[i0].copy())
            biases.append(None if ckpt.biases[i0] is None else ckpt.biases[i0].copy())
        else:
            frac = rem / denom
            weights.append((1.0 - frac) * ckpt.weights[i0] + frac * ckpt.weights[i0 + 1])
            if ckpt.biases[i0] is None:
                biases.append(None)
            else:
                biases.append((1.0 - frac) * ckpt.biases[i0] + frac * ckpt.biases[i0 + 1])
    meta = dict(ckpt.meta)
    meta["depth_expanded_from"] = str(depth)
    return Checkpoint(
        layer_specs=[spec0] * target_depth, weights=weights, biases=biases, meta=meta
    )


def _aligned_flat(rec_a: ActivationRecord, rec_b: ActivationRecord, strategy: str):
    """Length-align one layer's activation records and flatten tokens into rows."""
    la, lb = rec_a.h_in.shape[1], rec_b.h_in.shape[1]
    a_in, a_out, b_in, b_out = rec_a.h_in, rec_a.h_out, rec_b.h_in, rec_b.h_out
    if strategy == "mean":
        a_in = align_sequence(a_in, 1, "mean")
        a_out = align_sequence(a_out, 1, "mean")
        b_in = align_sequence(b_in, 1, "mean")
        b_out = align_sequence(b_out, 1, "mean")
    elif la < lb:
        a_in = align_sequence(a_in, lb, strategy)
        a_out = align_sequence(a_out, lb, strategy)
    elif lb < la:
        b_in = align_sequence(b_in, la, strategy)
        b_out = align_sequence(b_out, la, strategy)
    return tuple(flatten_tokens(h) for h in (a_in, a_out, b_in, b_out))


def _theseus(acts, delta, bias, spec_b, cfg, seed):
    hin_a, hout_a, hin_b, hout_b = acts
    pmap = procrustes_maps(hin_a, hin_b, hout_a, hout_b)
    new_bias = None if bias is None else transport_bias(bias, pmap)
    return transport_update(delta, pmap), new_bias, pmap


def _norm_matched_random(d_out, d_in, delta, bias, seed):
    """Seeded Gaussian update, and bias delta when one is given, with the source's norms."""
    new = baselines.random_update(d_out, d_in, float(np.linalg.norm(delta)), seed)
    if bias is None:
        return new, None
    return new, baselines.random_update(d_out, 1, float(np.linalg.norm(bias)), seed + 7919).ravel()


def _random_source(acts, delta, bias, spec_b, cfg, seed):
    src, bias_src = _norm_matched_random(*delta.shape, delta, bias, seed)
    return _theseus(acts, src, bias_src, spec_b, cfg, seed)


def _random(acts, delta, bias, spec_b, cfg, seed):
    return *_norm_matched_random(spec_b.d_out, spec_b.d_in, delta, bias, seed), None


def _zero_pad(acts, delta, bias, spec_b, cfg, seed):
    new_delta = baselines.zero_pad_update(delta, spec_b.d_out, spec_b.d_in)
    new_bias = None
    if bias is not None:  # the update was checked not to shrink, so the bias fits
        new_bias = baselines.zero_pad_update(bias[:, None], spec_b.d_out, 1).ravel()
    return new_delta, new_bias, None


def _pinv(acts, delta, bias, spec_b, cfg, seed):
    return *baselines.gram_transport(*acts, delta, bias, rcond=cfg.rcond), None


def _pinv_tikhonov(acts, delta, bias, spec_b, cfg, seed):
    return *baselines.gram_transport(*acts, delta, bias, lam=cfg.lam), None


# Per-layer transport by method name. Each entry maps (aligned activations
# (hin_a, hout_a, hin_b, hout_b), update, bias delta or None, target layer
# spec, config, layer seed) to (update, bias delta or None, the ProcrustesMap
# it used or None).
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
    acts = _aligned_flat(rec_a, rec_b, cfg.strategy)
    bias = bias_delta if spec_b.has_bias else None
    new_delta, new_bias, pmap = _LAYER_METHODS[cfg.method](
        acts, delta, bias, spec_b, cfg, cfg.seed + layer_index
    )
    shape = (spec_b.d_out, spec_b.d_in)
    if new_delta.shape != shape:
        raise TaskportError(f"transported update has shape {new_delta.shape}, expected {shape}")
    require_finite(new_delta, "transported update")
    if new_bias is not None:
        require_finite(new_bias, "transported bias delta")

    stats = {"layer_index": layer_index}
    for key in ("in_residual", "out_residual", "in_swapped", "out_swapped"):
        stats[key] = None if pmap is None else getattr(pmap, key)
    stats.update({
        "tau_norm_src": float(np.linalg.norm(delta)),
        "tau_norm_dst": float(np.linalg.norm(new_delta)),
        "bilinear_residual": bilinear_residual(*acts, delta, new_delta),
    })
    return new_delta, new_bias, stats


def transport_task_vector(
    theta_a: Checkpoint,
    theta_a_ft: Checkpoint,
    theta_b: Checkpoint,
    calib_inputs_a,
    calib_inputs_b,
    cfg: TransportConfig,
) -> tuple[TaskVector, dict]:
    """Move the update (theta_a_ft - theta_a) into theta_b's coordinates.

    Activations are collected from the two base models on paired calibration
    inputs (the same underlying samples rendered in each model's input space),
    length-aligned per cfg.strategy, and used to fit per-layer maps per
    cfg.method. Returns the transported task vector and a per-layer report.
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
    _, rec_a = forward_collect(theta_a, ca)
    _, rec_b = forward_collect(theta_b, cb)

    results = []
    for idx in range(theta_a.depth):
        try:
            results.append(_transport_layer(
                idx, theta_b.layer_specs[idx], rec_a[idx], rec_b[idx],
                update_a.deltas[idx], update_a.bias_deltas[idx], cfg,
            ))
        except TaskportError as exc:
            raise type(exc)(f"layer {idx}: {exc}", kind=exc.kind) from exc

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

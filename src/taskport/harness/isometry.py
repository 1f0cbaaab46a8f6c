"""Construction of targets whose activations are exact orthonormal images of a
source model's, giving transport a case with a known right answer."""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError
from ..linalg import random_orthonormal_rows
from ..model import Checkpoint, LayerSpec
from ..transport import ProcrustesMap, transport_bias, transport_update

__all__ = ["build_isometric_target"]


def build_isometric_target(theta_a: Checkpoint, widths=None, seed: int = 0,
                           keep_final: bool = False):
    """Rotate a linear stack into wider coordinates with known orthonormal maps.

    For every interface l (layer inputs for l=0, layer l-1 outputs otherwise) a
    row-orthonormal map t_l of shape (d_a_l, widths[l]) is sampled, and target
    weights are the source's conjugated through them, ``t_{l+1}.T @ w_a @ t_l``
    by ``transport_update`` (biases ride t_{l+1} alone, by ``transport_bias``), so
    the target's layer activations equal the source's mapped through t exactly,
    provided inputs are rendered through t_0. Only identity activations keep
    that exactness, so ReLU layers are rejected.

    widths lists the target dimension per interface (depth+1 entries, default:
    same as the source). keep_final pins the last interface map to the identity
    so any readout on the final features is preserved. Every map is stored
    source -> target, as ``ProcrustesMap`` holds it. Returns (theta_b,
    per-layer ProcrustesMap list with zero residuals).
    """
    for idx, spec in enumerate(theta_a.layer_specs):
        if spec.activation != "identity":
            raise DimensionError(
                f"isometric construction needs identity activations; layer {idx} uses relu"
            )
    dims_a = [theta_a.layer_specs[0].d_in] + [s.d_out for s in theta_a.layer_specs]
    if widths is None:
        widths = list(dims_a)
    widths = [int(w) for w in widths]
    if len(widths) != len(dims_a):
        raise DimensionError(
            f"widths must give one dimension per interface ({len(dims_a)}), got {len(widths)}"
        )
    for l, (da, wb) in enumerate(zip(dims_a, widths)):
        if wb < da:
            raise DimensionError(
                f"interface {l}: target width {wb} is narrower than the source's {da}"
            )
    if keep_final and widths[-1] != dims_a[-1]:
        raise DimensionError(
            f"keep_final needs matching final widths, got {dims_a[-1]} vs {widths[-1]}"
        )

    maps = []
    for l, (da, wb) in enumerate(zip(dims_a, widths)):
        if keep_final and l == len(dims_a) - 1:
            maps.append(np.eye(da))
        else:
            maps.append(random_orthonormal_rows(da, wb, np.random.SeedSequence((int(seed), l))))

    true_maps = [
        ProcrustesMap(in_map=maps[idx], out_map=maps[idx + 1], in_residual=0.0, out_residual=0.0)
        for idx in range(theta_a.depth)
    ]
    specs_b = [
        LayerSpec(d_in=widths[idx], d_out=widths[idx + 1], has_bias=spec.has_bias, activation="identity")
        for idx, spec in enumerate(theta_a.layer_specs)
    ]
    theta_b = Checkpoint(
        layer_specs=specs_b,
        weights=[transport_update(w, pmap) for w, pmap in zip(theta_a.weights, true_maps)],
        biases=[None if b is None else transport_bias(b, pmap) for b, pmap in zip(theta_a.biases, true_maps)],
        meta={"construction": "isometric"},
    )
    return theta_b, true_maps

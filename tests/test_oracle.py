"""A differential oracle for the whole transport pipeline.

The reference below is written from the method's definition (README, "How
transport works" and the method table) with numpy alone; of ``taskport`` it
uses only the checkpoint container and the entry point under test. Per layer
it runs an explicit einsum forward pass, resamples tokens by its own position
rule, flattens the tokens into rows and then:

- ``theseus``: on each side, the orthonormal map ``u @ vt`` from the SVD of
  the rows' cross-covariance, narrow side first (a source wider than its
  target is solved target -> source and transposed), and the update
  conjugated as ``out_map.T @ delta @ in_map``;
- ``pinv``: the minimum-norm least-squares match of the rows x rows coupling
  ``h_in @ delta.T @ h_out.T``, by ``lstsq`` on its Kronecker operator;
- ``pinv_tikhonov``: the same coupling match through ridge inverses of the
  target Grams, lambda 1e-3 times each Gram's mean diagonal;
- ``zero_pad``, ``random``, ``random_source``: as the method table says, with
  the random baselines' seeding (layer l draws from ``seed + l``, its bias
  from ``seed + l + 7919``).

The alignment residuals are distances between rows, and the coupling
residual is the distance between explicit rows x rows couplings.

Data are generic: seeded Gaussian weights, biases and inputs, and every
width at most one more than the width before it, so each pre-activation
output can have full column rank. Drawn examples are rejected, as
degenerate, when any layer's aligned rows on either stack miss full column
rank by a condition number of 1e3 (a ReLU unit dead on every row, for
instance) or a cross-covariance misses full rank by 1e6; then each
Procrustes map and each Gram inverse is unique. ``mean`` rows are the
sequences, so there are always more sequences than any width.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import calibration
from taskport.errors import DimensionError
from taskport.model import Checkpoint, LayerSpec
from taskport.transport import TransportConfig, transport_task_vector

METHODS = ("theseus", "pinv", "pinv_tikhonov", "zero_pad", "random", "random_source")
STRATEGIES = ("mean", "interp1d", "interp2d")
WIDTH_CASES = ("narrow_to_wide", "wide_to_narrow", "mixed", "equal")
RAW = 8  # raw token features, at least every input width
TOL = 1e-7  # relative to max(1, norm), as in test_geometry.py


# -- the reference ------------------------------------------------------------


def forward(ckpt, x):
    """Each layer's input and pre-activation output ``x @ w.T + b``."""
    layers = []
    for spec, w, b in zip(ckpt.layer_specs, ckpt.weights, ckpt.biases):
        z = np.einsum("nli,oi->nlo", x, w) + b
        layers.append((x, z))
        x = np.maximum(z, 0.0) if spec.activation == "relu" else z
    return layers


def hat(l_src, l_out):
    """(l_out, l_src) linear interpolation: output token j sits at source
    position j (l_src - 1) / (l_out - 1), and source token i weighs
    1 - |position - i| where that is positive."""
    position = np.linspace(0.0, l_src - 1, l_out)
    return np.maximum(0.0, 1.0 - np.abs(position[:, None] - np.arange(l_src)))


def align(h, length, strategy):
    """Tokens resampled to ``length``: pooled by ``mean``, left alone when
    the count already matches, else resampled along the sequence or, under
    ``interp2d``, along both axes of a g x g grid behind an optional leading
    token that passes through."""
    n, l, d = h.shape
    if strategy == "mean":
        return h.mean(axis=1, keepdims=True)
    if l == length:
        return h
    if strategy == "interp1d":
        return np.einsum("ts,nsd->ntd", hat(l, length), h)
    g, g_out = int(np.sqrt(l)), int(np.sqrt(length))
    extra = l - g * g
    w = hat(g, g_out)
    grid = np.einsum("ik,jl,nkld->nijd", w, w, h[:, extra:].reshape(n, g, g, d))
    return np.concatenate([h[:, :extra], grid.reshape(n, g_out * g_out, d)], axis=1)


def layer_rows(layers_a, layers_b, strategy):
    """Per layer, the aligned rows (hin_a, hout_a, hin_b, hout_b)."""
    out = []
    for (x_a, z_a), (x_b, z_b) in zip(layers_a, layers_b):
        length = max(x_a.shape[1], x_b.shape[1])
        out.append(tuple(align(h, length, strategy).reshape(-1, h.shape[2])
                         for h in (x_a, z_a, x_b, z_b)))
    return out


def procrustes(h_a, h_b):
    """The orthonormal (d_a, d_b) map t closest to taking h_a to h_b, solved
    narrow side first. Returns (t, residual, swapped)."""
    swapped = h_a.shape[1] > h_b.shape[1]
    narrow, wide = (h_b, h_a) if swapped else (h_a, h_b)
    u, _, vt = np.linalg.svd(narrow.T @ wide, full_matrices=False)
    t = u @ vt
    return (t.T if swapped else t), float(np.linalg.norm(narrow @ t - wide)), swapped


def coupling(h_in, update, h_out):
    return h_in @ update.T @ h_out.T


def coupling_lstsq(hin_b, hout_b, target):
    """The minimum-norm x whose coupling is closest to ``target``:
    vec(hin_b x.T hout_b.T) = (hout_b kron hin_b) vec(x.T), columns stacked."""
    sol = np.linalg.lstsq(np.kron(hout_b, hin_b), target.flatten(order="F"), rcond=None)[0]
    return sol.reshape((hin_b.shape[1], hout_b.shape[1]), order="F").T


def ridge(h, rhs):
    gram = h.T @ h
    return np.linalg.solve(gram + 1e-3 * np.mean(np.diag(gram)) * np.eye(len(gram)), rhs)


def norm_matched(shape, norm, seed):
    draw = np.random.default_rng(seed).standard_normal(shape)
    return draw * (norm / np.linalg.norm(draw))


def reference_layer(method, rows, delta, bias, seed):
    """(update, bias delta, report entry) of one layer, or None where the
    method cannot apply (zero padding into a narrower target)."""
    hin_a, hout_a, hin_b, hout_b = rows
    d_out, d_in = hout_b.shape[1], hin_b.shape[1]
    entry = dict.fromkeys(("in_residual", "out_residual", "in_swapped", "out_swapped"))
    if method in ("theseus", "random_source"):
        src, src_bias = delta, bias
        if method == "random_source":
            src = norm_matched(delta.shape, np.linalg.norm(delta), seed)
            src_bias = norm_matched((len(bias), 1), np.linalg.norm(bias), seed + 7919).ravel()
        in_map, entry["in_residual"], entry["in_swapped"] = procrustes(hin_a, hin_b)
        out_map, entry["out_residual"], entry["out_swapped"] = procrustes(hout_a, hout_b)
        new, new_bias = out_map.T @ src @ in_map, out_map.T @ src_bias
    elif method == "pinv":
        new = coupling_lstsq(hin_b, hout_b, coupling(hin_a, delta, hout_a))
        new_bias = np.linalg.lstsq(hout_b, hout_a @ bias, rcond=None)[0]
    elif method == "pinv_tikhonov":
        left = ridge(hout_b, hout_b.T @ hout_a @ delta @ hin_a.T @ hin_b)
        new = ridge(hin_b, left.T).T
        new_bias = ridge(hout_b, hout_b.T @ hout_a @ bias)
    elif method == "zero_pad":
        if d_out < delta.shape[0] or d_in < delta.shape[1]:
            return None
        new, new_bias = np.zeros((d_out, d_in)), np.zeros(d_out)
        new[:delta.shape[0], :delta.shape[1]] = delta
        new_bias[:len(bias)] = bias
    else:
        new = norm_matched((d_out, d_in), np.linalg.norm(delta), seed)
        new_bias = norm_matched((d_out, 1), np.linalg.norm(bias), seed + 7919).ravel()
    entry.update(
        tau_norm_src=float(np.linalg.norm(delta)),
        tau_norm_dst=float(np.linalg.norm(new)),
        bilinear_residual=float(np.linalg.norm(
            coupling(hin_a, delta, hout_a) - coupling(hin_b, new, hout_b))),
    )
    return new, new_bias, entry


# -- the draws ----------------------------------------------------------------


def full_rank(m, cond):
    sigma = np.linalg.svd(m, compute_uv=False)
    return sigma[-1] > sigma[0] / cond


def widths(draw, case):
    """Source and target interface widths (input, two hidden, output), each
    at most one more than the one before, related as the case says; mixed
    alternates a wider and a narrower target."""
    if case == "mixed":
        a = [draw(st.integers(2, 5))]
        a.append(draw(st.integers(3, a[0] + 1)))
        a.append(draw(st.integers(2, a[1] - 1)))
        a.append(draw(st.integers(3, a[2] + 1)))
        return a, [w + (-1) ** i for i, w in enumerate(a)]
    a = [draw(st.integers(2, 5))]
    for _ in range(3):
        a.append(draw(st.integers(2, a[-1] + 1)))
    b = list(a) if case == "equal" else [w + 1 for w in a]
    return (b, a) if case == "wide_to_narrow" else (a, b)


def stack(widths, rng):
    specs = [LayerSpec(widths[i], widths[i + 1], has_bias=True,
                       activation="relu" if i < len(widths) - 2 else "identity")
             for i in range(len(widths) - 1)]
    weights = [rng.standard_normal((s.d_out, s.d_in)) / np.sqrt(s.d_in) for s in specs]
    biases = [1.0 + 0.5 * rng.standard_normal(s.d_out) for s in specs]
    return Checkpoint(layer_specs=specs, weights=weights, biases=biases)


@st.composite
def instances(draw):
    """A method, a strategy, a width case, two stacks and a fine-tune of the
    source, and paired calibration inputs whose token counts (g*g, or g*g + 1
    with a leading token) may differ."""
    method = draw(st.sampled_from(METHODS))
    strategy = draw(st.sampled_from(STRATEGIES))
    widths_a, widths_b = widths(draw, draw(st.sampled_from(WIDTH_CASES)))
    extra = draw(st.integers(0, 1))
    tokens_a, tokens_b = (draw(st.integers(2, 3)) ** 2 + extra for _ in range(2))
    seqs = draw(st.integers(8, 9))  # more than any width, for `mean` rows
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1211)))
    theta_a, theta_b = stack(widths_a, rng), stack(widths_b, rng)
    theta_a_ft = Checkpoint(
        layer_specs=list(theta_a.layer_specs),
        weights=[w + 0.1 * rng.standard_normal(w.shape) for w in theta_a.weights],
        biases=[b + 0.1 * rng.standard_normal(b.shape) for b in theta_a.biases],
    )
    raw = rng.standard_normal((seqs, tokens_a, RAW))
    calib_a = raw @ rng.standard_normal((RAW, widths_a[0]))
    calib_b = np.einsum("ts,nsd->ntd", hat(tokens_a, tokens_b), raw) @ rng.standard_normal((RAW, widths_b[0]))
    rows = layer_rows(forward(theta_a, calib_a), forward(theta_b, calib_b), strategy)
    assume(all(full_rank(h, 1e3) for layer in rows for h in layer))
    assume(all(full_rank(layer[i].T @ layer[i + 2], 1e6) for layer in rows for i in (0, 1)))
    cfg = TransportConfig(method=method, strategy=strategy, seed=draw(st.integers(0, 100)))
    return theta_a, theta_a_ft, theta_b, calib_a, calib_b, cfg, rows


def assert_close(got, want, what):
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL * max(1.0, float(np.linalg.norm(want))),
                               err_msg=what)


@settings(max_examples=100)
@given(instances())
def test_pipeline_matches_the_reference(inst):
    theta_a, theta_a_ft, theta_b, calib_a, calib_b, cfg, rows = inst
    want = [
        reference_layer(cfg.method, layer, wf - wa, bf - ba, cfg.seed + idx)
        for idx, (layer, wa, wf, ba, bf) in enumerate(zip(
            rows, theta_a.weights, theta_a_ft.weights, theta_a.biases, theta_a_ft.biases))
    ]
    if any(layer is None for layer in want):
        with pytest.raises(DimensionError, match="zero-pad"):
            transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_b), cfg)
        return
    got, report = transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_b), cfg)
    for idx, (new, new_bias, entry) in enumerate(want):
        assert_close(got.deltas[idx], new, f"layer {idx} delta")
        assert_close(got.bias_deltas[idx], new_bias, f"layer {idx} bias delta")
        reported = report["layers"][idx]
        for key, value in entry.items():
            if value is None or isinstance(value, bool):
                assert reported[key] == value, (idx, key)
            else:
                assert_close(reported[key], value, f"layer {idx} {key}")

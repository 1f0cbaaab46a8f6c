"""Shared assertions and generators for the test suite."""

import numpy as np

from taskport.model import Checkpoint, LayerSpec, init_checkpoint
from taskport.transport import LayerStats, SideStats


def assert_checkpoint_equal(a: Checkpoint, b: Checkpoint, bitwise: bool = True):
    assert a.layer_specs == b.layer_specs
    for idx in range(a.depth):
        if bitwise:
            assert np.array_equal(a.weights[idx], b.weights[idx])
        else:
            np.testing.assert_allclose(a.weights[idx], b.weights[idx])
        ba, bb = a.biases[idx], b.biases[idx]
        assert (ba is None) == (bb is None)
        if ba is not None:
            if bitwise:
                assert np.array_equal(ba, bb)
            else:
                np.testing.assert_allclose(ba, bb)


def small_checkpoint(widths=(3, 4, 2), seed=0, activation="relu", has_bias=True):
    """Chained dense stack with the given interface widths."""
    specs = [
        LayerSpec(d_in=widths[i], d_out=widths[i + 1], has_bias=has_bias,
                  activation=activation if i < len(widths) - 2 else "identity")
        for i in range(len(widths) - 1)
    ]
    return init_checkpoint(specs, np.random.SeedSequence((seed, 77)))


def calibration(inputs_a, inputs_b):
    """Transport's calibration callable for a pair a test keeps: each call
    returns new copies, since transport writes over the pair it is given."""
    return lambda: (np.array(inputs_a), np.array(inputs_b))


def layer_stats(hin_a, hout_a, hin_b, hout_b):
    """``LayerStats`` of one layer's paired (rows, features) activations.

    ``SideStats`` builds each side from its rows given as one-token
    sequences; equal token counts take the products on the rows themselves,
    bitwise, whatever the (non-mean) strategy, and a firing guard reads them.
    """
    return LayerStats(*(SideStats(np.asarray(a)[:, None], np.asarray(b)[:, None], "interp1d", name)
                        for a, b, name in ((hin_a, hin_b, "hin"), (hout_a, hout_b, "hout"))))


def full_rank_activations(m, d, seed, scale=1.0):
    """Gaussian (m, d) matrix; full column rank with probability 1 for m >= d."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 909)))
    return scale * rng.standard_normal((m, d))


def rank_deficient_witness(seed=23, zero_col=2, eval_per_class=16):
    """Low-sample instance where truncated-pinv fitting falls apart.

    Twenty flattened calibration rows against a 24-wide hidden interface
    leave the target-side Gram singular before we zero a column on top;
    the smallest surviving singular value sits orders of magnitude above
    the rcond=1e-10 cutoff while everything dropped is at machine zero,
    so the truncation is stable across BLAS builds. The pseudo-inverse
    still reproduces the coupling exactly on the fitting rows (it is the
    least-squares minimizer there by construction), but the near-null
    directions it inverts are batch noise, and on held-out rows of the
    same task its residual blows up while the orthogonal transport stays
    put.

    Returns (fit, held_out, update) where fit and held_out are
    (h_in_a, h_out_a, h_in_b, h_out_b) tuples and h_in_b in the fit
    tuple already has ``zero_col`` zeroed.
    """
    from taskport.harness.data import (
        SyntheticTask,
        input_projection,
        make_dataset,
        render_tokens,
    )
    from taskport.model import forward_collect

    def hidden_acts(ck, toks, proj):
        _, rec = forward_collect(ck, render_tokens(toks, proj))
        r = rec[1]
        return r.h_in.reshape(-1, r.h_in.shape[2]), r.h_out.reshape(-1, r.h_out.shape[2])

    def stack(width, s):
        specs = [
            LayerSpec(width, width, has_bias=True, activation="relu"),
            LayerSpec(width, width, has_bias=True, activation="identity"),
        ]
        return init_checkpoint(specs, np.random.SeedSequence((s, 11, width)))

    task = SyntheticTask.generate(
        n_classes=4, d_raw=20, tokens=5, noise_sigma=0.75, seed=seed
    )
    fit_x, _ = make_dataset(task, 4, "calib")
    eval_x, _ = make_dataset(task, eval_per_class, "test")
    fit_toks = fit_x.reshape(-1, task.tokens, 4)[:4]
    eval_toks = eval_x.reshape(-1, task.tokens, 4)
    proj_a = input_projection(4, 16, np.random.SeedSequence((seed, 31)))
    proj_b = input_projection(4, 24, np.random.SeedSequence((seed, 37)))
    ck_a, ck_b = stack(16, seed), stack(24, seed + 1000)
    fin_a, fout_a = hidden_acts(ck_a, fit_toks, proj_a)
    fin_b, fout_b = hidden_acts(ck_b, fit_toks, proj_b)
    fin_b = fin_b.copy()
    fin_b[:, zero_col] = 0.0
    held_out = hidden_acts(ck_a, eval_toks, proj_a) + hidden_acts(ck_b, eval_toks, proj_b)
    update = np.random.default_rng(np.random.SeedSequence((seed, 23))).standard_normal((16, 16)) / 4.0
    return (fin_a, fout_a, fin_b, fout_b), held_out, update

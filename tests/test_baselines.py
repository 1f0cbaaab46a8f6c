import numpy as np
import pytest

from helpers import calibration, full_rank_activations, layer_stats, rank_deficient_witness, small_checkpoint
from taskport.baselines import gram_transport, pinv_transport, random_update, zero_pad_update
from taskport.errors import DimensionError
from taskport.linalg import DEFAULT_RCOND, pseudo_inverse, random_orthonormal_rows, ridge_inverse
from taskport.model import task_vector
from taskport.transport import (
    ProcrustesMap,
    TransportConfig,
    bilinear_residual,
    procrustes_maps,
    transport_task_vector,
    transport_update,
)


def aligned_instance(m, d_in_a, d_in_b, d_out_a, d_out_b, seed):
    ss = np.random.SeedSequence((seed, 71))
    rng = np.random.default_rng(ss)
    hin_a = rng.standard_normal((m, d_in_a))
    hout_a = rng.standard_normal((m, d_out_a))
    tau_a = rng.standard_normal((d_out_a, d_in_a))
    t_in = random_orthonormal_rows(d_in_a, d_in_b, np.random.SeedSequence((seed, 72)))
    t_out = random_orthonormal_rows(d_out_a, d_out_b, np.random.SeedSequence((seed, 73)))
    return hin_a, hout_a, hin_a @ t_in, hout_a @ t_out, tau_a, t_in, t_out


# -- zero padding ------------------------------------------------------------


def test_zero_pad_equal_dims_is_identity():
    tau = np.random.default_rng(0).standard_normal((3, 2))
    np.testing.assert_array_equal(zero_pad_update(tau, 3, 2), tau)


def test_zero_pad_block_placement():
    out = zero_pad_update(np.array([[5.0]]), 2, 2)
    np.testing.assert_array_equal(out, np.array([[5.0, 0.0], [0.0, 0.0]]))


def test_zero_pad_preserves_norm():
    rng = np.random.default_rng(1)
    for _ in range(10):
        tau = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        out = zero_pad_update(tau, tau.shape[0] + 2, tau.shape[1] + 3)
        # The summation order over the padded array differs, so the norms can
        # disagree in the last ulp even though the nonzero entries are shared.
        assert abs(np.linalg.norm(out) - np.linalg.norm(tau)) <= 1e-12 * np.linalg.norm(tau)


def test_zero_pad_rejects_shrinking():
    with pytest.raises(DimensionError, match="zero-pad"):
        zero_pad_update(np.zeros((3, 2)), 2, 2)
    with pytest.raises(DimensionError, match="zero-pad"):
        zero_pad_update(np.zeros((3, 2)), 3, 1)


# -- random update -----------------------------------------------------------


def test_random_update_zero_norm():
    np.testing.assert_array_equal(random_update(3, 4, 0.0, seed=0), np.zeros((3, 4)))


def test_random_update_exact_norm():
    for seed in range(5):
        out = random_update(4, 5, 2.5, seed=seed)
        assert abs(np.linalg.norm(out) - 2.5) <= 1e-12


def test_random_update_deterministic():
    a = random_update(3, 3, 1.0, seed=7)
    b = random_update(3, 3, 1.0, seed=7)
    c = random_update(3, 3, 1.0, seed=8)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_random_update_rejects_bad_args():
    with pytest.raises(DimensionError):
        random_update(0, 3, 1.0, seed=0)
    with pytest.raises(DimensionError):
        random_update(3, 3, -1.0, seed=0)


# -- pseudo-inverse transport ------------------------------------------------


def test_pinv_identity_sides_recover_update():
    hin = full_rank_activations(20, 3, seed=2)
    hout = full_rank_activations(20, 4, seed=3)
    tau = np.random.default_rng(4).standard_normal((4, 3))
    out = pinv_transport(layer_stats(hin, hout, hin, hout), tau)
    np.testing.assert_allclose(out, tau, atol=1e-7)


def test_pinv_matches_closed_form_on_aligned_instance():
    hin_a, hout_a, hin_b, hout_b, tau_a, t_in, t_out = aligned_instance(40, 3, 5, 2, 4, seed=10)
    closed = transport_update(tau_a, ProcrustesMap(in_map=t_in, out_map=t_out))
    solved = gram_transport(layer_stats(hin_a, hout_a, hin_b, hout_b), tau_a, rcond=DEFAULT_RCOND)[0]
    np.testing.assert_allclose(solved, closed, atol=1e-6)


def test_pinv_degrades_on_rank_deficient_target():
    # On the fitting rows the pseudo-inverse is the least-squares minimizer of
    # the coupling objective and cannot lose there, so the comparison that
    # matters is on held-out rows: the near-null Gram directions it inverts
    # are batch noise and do not generalize.
    fit, held_out, update = rank_deficient_witness()
    fit_stats, held_out_stats = layer_stats(*fit), layer_stats(*held_out)
    solved = gram_transport(fit_stats, update, rcond=1e-10)[0]
    assert np.all(np.isfinite(solved))
    aligned = transport_update(update, procrustes_maps(fit_stats))
    res_aligned = bilinear_residual(held_out_stats, update, aligned)
    res_pinv = bilinear_residual(held_out_stats, update, solved)
    assert res_aligned < res_pinv
    # The gap is structural (the witness has a 6x margin), not a lucky ulp.
    assert res_pinv > 2.0 * res_aligned
    # Amplification of the inverted noise directions shows up in the norm.
    assert np.linalg.norm(solved) > 10.0 * np.linalg.norm(aligned)


@pytest.mark.parametrize("route", ["rcond", "ridge"])
def test_gram_transport_is_the_conjugation_through_the_least_squares_maps_bitwise(route):
    # S = G_b^+ C_ab.T per side, built here by the same solve. At 24 -> 36
    # wide a plan that held a contiguous copy of S.T, not the view, would
    # hand BLAS another layout and move these bits.
    rng = np.random.default_rng(np.random.SeedSequence((24, 36)))
    stats = layer_stats(*(rng.standard_normal((120, d)) for d in (24, 24, 36, 36)))
    update, bias = rng.standard_normal((24, 24)), rng.standard_normal(24)
    solve = {"rcond": DEFAULT_RCOND} if route == "rcond" else {"lam": 0.5}

    def least_squares_map(side):
        if route == "rcond":
            return pseudo_inverse(side.gram_b, DEFAULT_RCOND, side.cross.T)
        return ridge_inverse(side.gram_b, 0.5, side.cross.T)

    s_in, s_out = least_squares_map(stats.in_side), least_squares_map(stats.out_side)
    new, new_bias = gram_transport(stats, update, bias, **solve)
    assert new.tobytes() == ((s_out @ update) @ s_in.T).tobytes()
    assert new_bias.tobytes() == (s_out @ bias).tobytes()


def test_pinv_rejects_shape_mismatch():
    h = np.zeros((5, 2))
    with pytest.raises(DimensionError):
        pinv_transport(layer_stats(h, h, h, h), np.zeros((3, 2)))


# -- Tikhonov transport ------------------------------------------------------


def test_tikhonov_small_lambda_approaches_pinv():
    # Full-rank sides only: a rank-deficient Gram would leave the ridge
    # blowing up the null directions by 1/lam while the pinv truncates them.
    hin_a = full_rank_activations(40, 3, seed=12)
    hout_a = full_rank_activations(40, 2, seed=13)
    hin_b = full_rank_activations(40, 5, seed=14)
    hout_b = full_rank_activations(40, 4, seed=15)
    tau_a = np.random.default_rng(16).standard_normal((2, 3))
    stats = layer_stats(hin_a, hout_a, hin_b, hout_b)
    plain = gram_transport(stats, tau_a, rcond=0.0)[0]
    ridged = gram_transport(stats, tau_a, lam=1e-9)[0]
    assert np.abs(ridged - plain).max() <= 1e-6 * max(1.0, np.abs(plain).max())


def test_tikhonov_large_lambda_norm_bound():
    hin_a, hout_a, hin_b, hout_b, tau_a, _, _ = aligned_instance(40, 3, 5, 2, 4, seed=13)
    coupling = hin_a @ tau_a.T @ hout_a.T
    numerator = np.linalg.norm(hin_b.T @ coupling @ hout_b)
    stats = layer_stats(hin_a, hout_a, hin_b, hout_b)
    for lam in (1e2, 1e4, 1e6):
        out = gram_transport(stats, tau_a, lam=lam)[0]
        # Both regularized Gram solves contract by at least 1/lam, so the
        # norm falls off at least as fast as 1/lam^2. This is an exact
        # operator-norm bound, not an asymptotic one.
        assert np.linalg.norm(out) <= numerator / lam**2


def test_tikhonov_tames_ill_conditioned_instance():
    hin_a, hout_a, hin_b, hout_b, tau_a, _, _ = aligned_instance(40, 3, 5, 2, 4, seed=14)
    hin_b = hin_b.copy()
    hin_b[:, 0] *= 1e-7  # nearly dead direction blows up the pure pinv solve
    stats = layer_stats(hin_a, hout_a, hin_b, hout_b)
    plain = gram_transport(stats, tau_a, rcond=0.0)[0]
    ridged = gram_transport(stats, tau_a, lam=1e-3)[0]
    assert np.linalg.norm(ridged) < np.linalg.norm(plain)


def test_tikhonov_default_lambda_resolves_per_side():
    hin_a, hout_a, hin_b, hout_b, tau_a, _, _ = aligned_instance(40, 3, 5, 2, 4, seed=15)
    stats = layer_stats(hin_a, hout_a, hin_b, hout_b)
    out = gram_transport(stats, tau_a, lam=None)[0]
    assert np.all(np.isfinite(out))
    with pytest.raises(DimensionError, match="positive"):
        gram_transport(stats, tau_a, lam=-1.0)


# -- bias transport ----------------------------------------------------------


def test_gram_bias_identity_sides_recover_delta():
    hin = full_rank_activations(20, 3, seed=18)
    hout = full_rank_activations(20, 4, seed=16)
    delta = np.random.default_rng(17).standard_normal(4)
    stats = layer_stats(hin, hout, hin, hout)

    def bias(**solve):
        return gram_transport(stats, np.zeros((4, 3)), delta, **solve)[1]

    # Without an explicit rcond the solve is ridge-regularized and only
    # approximate; the truncated route recovers the shift exactly.
    np.testing.assert_allclose(bias(rcond=1e-10), delta, atol=1e-8)
    np.testing.assert_allclose(bias(lam=1e-12), delta, atol=1e-6)
    np.testing.assert_allclose(bias(), delta, atol=1e-2)


def test_gram_bias_rejects_shape_mismatch():
    h = np.zeros((5, 2))
    with pytest.raises(DimensionError, match="bias delta"):
        gram_transport(layer_stats(h, np.zeros((5, 3)), h, np.zeros((5, 4))), np.zeros((3, 2)), np.zeros(4))


# -- random-source transport -------------------------------------------------


def test_random_source_norm_and_determinism():
    # Every side widens, so the random update keeps the source update's norm.
    theta_a = small_checkpoint(widths=(3, 4, 2), seed=34)
    theta_a_ft = small_checkpoint(widths=(3, 4, 2), seed=35)
    theta_b = small_checkpoint(widths=(3, 5, 4), seed=36)
    calib = np.random.default_rng(37).standard_normal((8, 2, 3))
    cfg = TransportConfig(method="random_source", strategy="interp1d", seed=20)
    a, _ = transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib, calib), cfg)
    b, _ = transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib, calib), cfg)
    source = task_vector(theta_a, theta_a_ft)
    for idx in range(theta_b.depth):
        assert a.deltas[idx].shape == theta_b.weights[idx].shape
        for got, want in ((a.deltas[idx], source.deltas[idx]),
                          (a.bias_deltas[idx], source.bias_deltas[idx])):
            assert abs(np.linalg.norm(got) - np.linalg.norm(want)) <= 1e-10 * np.linalg.norm(want)
        assert a.deltas[idx].tobytes() == b.deltas[idx].tobytes()
        assert a.bias_deltas[idx].tobytes() == b.bias_deltas[idx].tobytes()
    zero, _ = transport_task_vector(theta_a, theta_a, theta_b, calibration(calib, calib), cfg)
    for idx, delta in enumerate(zero.deltas):
        np.testing.assert_array_equal(delta, np.zeros(theta_b.weights[idx].shape))


# -- activation independence -------------------------------------------------


@pytest.mark.parametrize("method", ["zero_pad", "random"])
def test_activation_free_methods_ignore_calibration(method):
    theta_a = small_checkpoint(widths=(3, 4, 2), seed=30)
    theta_a_ft = small_checkpoint(widths=(3, 4, 2), seed=31)
    theta_b = small_checkpoint(widths=(3, 5, 2), seed=32)
    rng = np.random.default_rng(33)
    calib_1 = rng.standard_normal((8, 2, 3))
    calib_2 = rng.standard_normal((8, 2, 3))
    cfg = TransportConfig(method=method, strategy="interp1d", seed=5)
    tv1, rep1 = transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib_1, calib_1), cfg)
    tv2, rep2 = transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib_2, calib_2), cfg)
    for d1, d2 in zip(tv1.deltas, tv2.deltas):
        assert d1.tobytes() == d2.tobytes()
    # Alignment residuals are undefined for these methods and stay unset.
    assert all(layer["in_residual"] is None for layer in rep1["layers"])
    assert all(layer["out_residual"] is None for layer in rep2["layers"])

import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    assert_checkpoint_equal,
    calibration,
    full_rank_activations,
    layer_stats,
    small_checkpoint,
)
from taskport import transport
from taskport.cli import main
from taskport.errors import ConfigError, DepthMismatchError, DimensionError, NonFiniteError, TaskportError
from taskport.linalg import random_orthonormal_rows
from taskport.model import (
    Checkpoint,
    LayerSpec,
    apply_update,
    forward_collect,
    save_calibration,
    save_checkpoint,
    task_vector,
)
from taskport.seqalign import STRATEGIES, align_sequence, flatten_tokens
from taskport.transport import (
    METHODS,
    LayerStats,
    ProcrustesMap,
    SideStats,
    TransportConfig,
    bilinear_residual,
    cross_covariance,
    depth_expand,
    procrustes_align,
    procrustes_maps,
    transport_bias,
    transport_model,
    transport_task_vector,
    transport_update,
)

ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


def aligned_instance(m, d_in_a, d_in_b, d_out_a, d_out_b, seed):
    """Target activations generated exactly as source activations through
    orthonormal-row maps; the setting where the closed form is optimal."""
    ss = np.random.SeedSequence((seed, 55))
    rng = np.random.default_rng(ss)
    hin_a = rng.standard_normal((m, d_in_a))
    hout_a = rng.standard_normal((m, d_out_a))
    tau_a = rng.standard_normal((d_out_a, d_in_a))
    t_in = random_orthonormal_rows(d_in_a, d_in_b, np.random.SeedSequence((seed, 56)))
    t_out = random_orthonormal_rows(d_out_a, d_out_b, np.random.SeedSequence((seed, 57)))
    return hin_a, hout_a, hin_a @ t_in, hout_a @ t_out, tau_a, t_in, t_out


# -- cross-covariance --------------------------------------------------------


def test_cross_covariance_identity():
    np.testing.assert_array_equal(cross_covariance(np.eye(2), np.eye(2)), np.eye(2))


def test_cross_covariance_zero_side():
    out = cross_covariance(np.random.default_rng(0).standard_normal((5, 3)), np.zeros((5, 4)))
    np.testing.assert_array_equal(out, np.zeros((3, 4)))


def test_cross_covariance_entrywise_dot_products():
    rng = np.random.default_rng(1)
    h_a = rng.standard_normal((10, 3))
    h_b = rng.standard_normal((10, 4))
    out = cross_covariance(h_a, h_b)
    for i in range(3):
        for j in range(4):
            assert abs(out[i, j] - float(np.dot(h_a[:, i], h_b[:, j]))) <= 1e-12


def test_cross_covariance_rejects_row_mismatch():
    with pytest.raises(DimensionError, match="row"):
        cross_covariance(np.zeros((4, 2)), np.zeros((5, 2)))


# -- Procrustes alignment ----------------------------------------------------


def align(h_src, h_dst):
    """``procrustes_align`` on one side: the input side of a layer whose two
    sides carry the same rows."""
    return procrustes_align(layer_stats(h_src, h_src, h_dst, h_dst).in_side)


def test_procrustes_self_alignment_is_identity():
    h = full_rank_activations(20, 4, seed=2)
    t, residual = align(h, h)
    np.testing.assert_allclose(t, np.eye(4), atol=1e-8)
    assert residual <= 1e-8


def test_procrustes_recovers_planted_map():
    h = full_rank_activations(30, 3, seed=3)
    q = random_orthonormal_rows(3, 5, 11)
    t, residual = align(h, h @ q)
    np.testing.assert_allclose(t, q, atol=1e-8)
    assert residual <= 1e-8


def test_procrustes_rank_deficient_source():
    h_src = full_rank_activations(15, 4, seed=4)
    h_src[:, 2] = 0.0
    h_dst = full_rank_activations(15, 6, seed=5)
    t, residual = align(h_src, h_dst)
    np.testing.assert_allclose(t @ t.T, np.eye(4), atol=1e-8)
    assert abs(residual - float(np.linalg.norm(h_src @ t - h_dst))) <= 1e-10


def test_procrustes_wide_source_transposes_the_reverse_solve():
    h_src = full_rank_activations(25, 5, seed=15)
    h_dst = full_rank_activations(25, 3, seed=16)
    t, residual = align(h_src, h_dst)
    rev, rev_residual = align(h_dst, h_src)
    assert t.shape == (5, 3)
    assert t.tobytes() == rev.T.tobytes() and residual == rev_residual
    np.testing.assert_allclose(t.T @ t, np.eye(3), atol=1e-8)


def test_procrustes_direct_residual_maps_the_narrow_side_into_the_wide_one(monkeypatch):
    # Near-exact rows cancel the residual's closed form, so its direct route
    # runs; in either width order it is the misfit of the narrow rows mapped
    # into the wide ones.
    fired = []
    guarded = transport._guarded_distance
    monkeypatch.setattr(transport, "_guarded_distance",
                        lambda aa, bb, ab, direct: guarded(aa, bb, ab, lambda: fired.append(1) or direct()))
    narrow = full_rank_activations(30, 3, seed=17)
    wide = narrow @ random_orthonormal_rows(3, 5, 18) + full_rank_activations(30, 5, seed=19, scale=1e-4)
    t, residual = align(narrow, wide)
    rev, rev_residual = align(wide, narrow)
    assert len(fired) == 2
    want = float(np.linalg.norm(narrow @ t - wide))
    assert abs(residual - want) <= 1e-10 * want
    assert abs(rev_residual - float(np.linalg.norm(narrow @ rev.T - wide))) <= 1e-10 * want


def test_procrustes_maps_bundles_both_sides():
    hin_a = full_rank_activations(25, 3, seed=6)
    hout_a = full_rank_activations(25, 2, seed=7)
    q_in = random_orthonormal_rows(3, 4, 12)
    q_out = random_orthonormal_rows(2, 5, 13)
    pmap = procrustes_maps(layer_stats(hin_a, hout_a, hin_a @ q_in, hout_a @ q_out))
    np.testing.assert_allclose(pmap.in_map, q_in, atol=1e-8)
    np.testing.assert_allclose(pmap.out_map, q_out, atol=1e-8)
    assert pmap.in_residual <= 1e-8 and pmap.out_residual <= 1e-8
    assert not pmap.in_swapped and not pmap.out_swapped
    # A wider source is solved target -> source and stored transposed, source -> target.
    rev = procrustes_maps(layer_stats(hin_a @ q_in, hout_a, hin_a, hout_a @ q_out))
    assert rev.in_swapped and not rev.out_swapped
    np.testing.assert_allclose(rev.in_map, q_in.T, atol=1e-8)


def test_equal_width_full_rank_maps_are_square_orthogonal():
    hin_a = full_rank_activations(30, 4, seed=8)
    q = random_orthonormal_rows(4, 4, 14)
    t, _ = align(hin_a, hin_a @ q)
    np.testing.assert_allclose(t @ t.T, np.eye(4), atol=1e-8)
    np.testing.assert_allclose(t.T @ t, np.eye(4), atol=1e-8)


def test_procrustes_map_validates_orthonormality():
    with pytest.raises(DimensionError, match="orthonormal"):
        ProcrustesMap(in_map=np.array([[1.0, 1.0]]), out_map=np.eye(2))
    with pytest.raises(DimensionError, match="orthonormal"):
        ProcrustesMap(in_map=np.array([[1.0], [1.0]]), out_map=np.eye(2))
    # A tall map with orthonormal columns is a swapped side.
    tall = ProcrustesMap(in_map=np.eye(3)[:, :2], out_map=np.eye(2))
    assert tall.in_swapped and not tall.out_swapped
    with pytest.raises(DimensionError, match="non-negative"):
        ProcrustesMap(in_map=np.eye(2), out_map=np.eye(2), in_residual=-1.0)


# -- conjugation -------------------------------------------------------------


def test_transport_update_identity_maps_is_bitwise():
    tau = np.random.default_rng(9).standard_normal((3, 2))
    pmap = ProcrustesMap(in_map=np.eye(2), out_map=np.eye(3))
    out = transport_update(tau, pmap)
    assert out.tobytes() == tau.tobytes()


def test_transport_update_rotation_swaps_diagonal():
    pmap = ProcrustesMap(in_map=ROT90, out_map=ROT90)
    out = transport_update(np.diag([1.0, 2.0]), pmap)
    np.testing.assert_allclose(out, np.diag([2.0, 1.0]), atol=1e-14)


def test_transport_update_rejects_shape_mismatch():
    pmap = ProcrustesMap(in_map=np.eye(2), out_map=np.eye(3))
    with pytest.raises(DimensionError):
        transport_update(np.zeros((2, 3)), pmap)


@settings(max_examples=60)
@given(
    st.integers(1, 64), st.integers(0, 63), st.integers(1, 64), st.integers(0, 63),
    st.integers(0, 2**16),
)
def test_transport_update_preserves_norm(d_in_a, in_extra, d_out_a, out_extra, seed):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 21)))
    tau = rng.standard_normal((d_out_a, d_in_a))
    pmap = ProcrustesMap(
        in_map=random_orthonormal_rows(d_in_a, d_in_a + in_extra, np.random.SeedSequence((seed, 22))),
        out_map=random_orthonormal_rows(d_out_a, d_out_a + out_extra, np.random.SeedSequence((seed, 23))),
    )
    out = transport_update(tau, pmap)
    assert abs(np.linalg.norm(out) - np.linalg.norm(tau)) <= 1e-10 * np.linalg.norm(tau)


@settings(max_examples=60)
@given(
    st.integers(1, 24), st.integers(1, 24), st.integers(1, 24), st.integers(1, 24),
    st.integers(0, 2**16),
)
def test_single_conjugation_both_directions(d_in_a, d_in_b, d_out_a, d_out_b, seed):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 24)))
    tau = rng.standard_normal((d_out_a, d_in_a))
    bias = rng.standard_normal(d_out_a)
    in_swapped, out_swapped = d_in_a > d_in_b, d_out_a > d_out_b
    # Maps source -> target: orthonormal along the narrow side.
    in_map = random_orthonormal_rows(
        min(d_in_a, d_in_b), max(d_in_a, d_in_b), np.random.SeedSequence((seed, 25))
    )
    out_map = random_orthonormal_rows(
        min(d_out_a, d_out_b), max(d_out_a, d_out_b), np.random.SeedSequence((seed, 26))
    )
    in_map = in_map.T if in_swapped else in_map
    out_map = out_map.T if out_swapped else out_map
    pmap = ProcrustesMap(in_map=in_map, out_map=out_map)
    assert (pmap.in_swapped, pmap.out_swapped) == (in_swapped, out_swapped)
    out = transport_update(tau, pmap)
    assert out.shape == (d_out_b, d_in_b)
    assert out.tobytes() == (out_map.T @ tau @ in_map).tobytes()
    assert transport_bias(bias, pmap).tobytes() == (out_map.T @ bias).tobytes()
    norm_src, norm_dst = np.linalg.norm(tau), np.linalg.norm(out)
    if in_swapped or out_swapped:
        assert norm_dst <= norm_src * (1.0 + 1e-10)
    else:
        assert abs(norm_dst - norm_src) <= 1e-10 * norm_src


@pytest.mark.parametrize("swapped", [False, True])
def test_norm_checks_catch_a_stretching_map(swapped):
    # Orthonormal within the 1e-8 validation tolerance, yet the map stretches
    # the first coordinate by 1e-9: the side's norm check catches it. The
    # swapped case is a tall (2, 1) map, the unswapped one a square map.
    stretch = np.array([[1.0 + 1e-9], [0.0]]) if swapped else np.diag([1.0 + 1e-9, 1.0])
    rule = "bound" if swapped else "identity"
    pmap = ProcrustesMap(in_map=stretch, out_map=np.eye(1))
    assert pmap.in_swapped == swapped
    with pytest.raises(TaskportError, match=f"norm {rule} on the input side"):
        transport_update(np.array([[1.0, 0.0]]), pmap)
    pmap = ProcrustesMap(in_map=np.eye(1), out_map=stretch)
    with pytest.raises(TaskportError, match=f"norm {rule} on the output side"):
        transport_update(np.array([[1.0], [0.0]]), pmap)
    with pytest.raises(TaskportError, match=f"norm {rule} on the output side"):
        transport_bias(np.array([1.0, 0.0]), pmap)


def test_transport_bias_rides_output_map():
    pmap = ProcrustesMap(in_map=np.eye(2), out_map=ROT90)
    out = transport_bias(np.array([1.0, 0.0]), pmap)
    np.testing.assert_allclose(out, ROT90.T @ np.array([1.0, 0.0]), atol=1e-14)
    with pytest.raises(DimensionError):
        transport_bias(np.array([1.0, 0.0, 0.0]), pmap)


def test_round_trip_with_square_maps_restores_update():
    # Equal widths: transporting with (t_in, t_out) then with the transposed
    # maps inverts the conjugation exactly.
    rng = np.random.default_rng(10)
    tau = rng.standard_normal((3, 4))
    t_in = random_orthonormal_rows(4, 4, 15)
    t_out = random_orthonormal_rows(3, 3, 16)
    there = transport_update(tau, ProcrustesMap(in_map=t_in, out_map=t_out))
    back = transport_update(there, ProcrustesMap(in_map=t_in.T, out_map=t_out.T))
    np.testing.assert_allclose(back, tau, atol=1e-8)


def test_round_trip_through_recovered_maps():
    hin_a = full_rank_activations(20, 4, seed=17)
    hout_a = full_rank_activations(20, 3, seed=18)
    q_in = random_orthonormal_rows(4, 4, 19)
    q_out = random_orthonormal_rows(3, 3, 20)
    hin_b, hout_b = hin_a @ q_in, hout_a @ q_out
    tau = np.random.default_rng(21).standard_normal((3, 4))
    fwd = procrustes_maps(layer_stats(hin_a, hout_a, hin_b, hout_b))
    rev = procrustes_maps(layer_stats(hin_b, hout_b, hin_a, hout_a))
    back = transport_update(transport_update(tau, fwd), rev)
    np.testing.assert_allclose(back, tau, atol=1e-8)


# -- coupling residual -------------------------------------------------------


def test_bilinear_residual_zero_updates():
    h = full_rank_activations(6, 2, seed=22)
    assert bilinear_residual(layer_stats(h, h, h, h), np.zeros((2, 2)), np.zeros((2, 2))) == 0.0


def test_bilinear_residual_identical_instance():
    hin = full_rank_activations(6, 2, seed=23)
    hout = full_rank_activations(6, 3, seed=24)
    tau = np.random.default_rng(25).standard_normal((3, 2))
    assert bilinear_residual(layer_stats(hin, hout, hin, hout), tau, tau) <= 1e-10


def test_bilinear_residual_matches_direct_definition():
    rng = np.random.default_rng(26)
    hin_a, hout_a = rng.standard_normal((6, 2)), rng.standard_normal((6, 3))
    hin_b, hout_b = rng.standard_normal((6, 4)), rng.standard_normal((6, 2))
    tau_a, tau_b = rng.standard_normal((3, 2)), rng.standard_normal((2, 4))
    fact = bilinear_residual(layer_stats(hin_a, hout_a, hin_b, hout_b), tau_a, tau_b)
    # The raw definition materializes the rows x rows couplings.
    direct = np.linalg.norm(hin_a @ tau_a.T @ hout_a.T - hin_b @ tau_b.T @ hout_b.T)
    assert abs(fact - direct) <= 1e-12


@pytest.mark.parametrize("rows", [5, 40])
def test_bilinear_residual_resolves_a_near_exact_transport(rows):
    # The target repeats the source's features and adds unused ones, so the
    # couplings differ by exactly hin_a @ delta.T @ hout_a.T, about 1e-7 of
    # their norm: below what a difference of squared norms can resolve.
    rng = np.random.default_rng(28)
    hin_a, hout_a = rng.standard_normal((rows, 3)), rng.standard_normal((rows, 4))
    hin_b = np.hstack([hin_a, rng.standard_normal((rows, 2))])
    hout_b = np.hstack([hout_a, rng.standard_normal((rows, 3))])
    tau_a = rng.standard_normal((4, 3))
    delta = 1e-7 * rng.standard_normal((4, 3))
    tau_b = np.zeros((7, 5))
    tau_b[:4, :3] = tau_a + delta
    want = np.linalg.norm(hin_a @ (tau_b[:4, :3] - tau_a).T @ hout_a.T)
    got = bilinear_residual(layer_stats(hin_a, hout_a, hin_b, hout_b), tau_a, tau_b)
    assert abs(got - want) <= 1e-6 * want


def test_bilinear_residual_rejects_mismatches():
    h = np.zeros((4, 2))
    with pytest.raises(DimensionError, match="pair the same samples"):
        bilinear_residual(layer_stats(h, h, np.zeros((5, 2)), np.zeros((5, 2))), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(DimensionError, match="update_src"):
        bilinear_residual(layer_stats(h, h, h, h), np.zeros((3, 2)), np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e160])
def test_layer_stats_rejects_non_finite_rows(bad):
    # A NaN, an Inf or an overflowing entry reaches its Gram's diagonal.
    h = full_rank_activations(6, 2, seed=29)
    hout_b = full_rank_activations(6, 3, seed=30)
    hout_b[4, 1] = bad
    with pytest.raises(NonFiniteError, match=r"hout_b\.T @ hout_b"):
        layer_stats(h, h, h, hout_b)


def test_layer_stats_rejects_sides_of_different_sequence_counts():
    # Each side pairs its own two models; the layer's two sides must pair the same sequences.
    h = full_rank_activations(6, 2, seed=31)
    in_side = SideStats(h[:, None], h[:, None], "interp1d", "hin")
    out_side = SideStats(h[:5, None], h[:5, None], "interp1d", "hout")
    with pytest.raises(DimensionError, match="input side pairs 6 sequences, the output side 5"):
        LayerStats(in_side, out_side)
    assert LayerStats(in_side, in_side).out_side is in_side


def test_closed_form_minimizes_coupling_residual():
    hin_a, hout_a, hin_b, hout_b, tau_a, t_in, t_out = aligned_instance(12, 3, 5, 2, 4, seed=0)
    tau_b = t_out.T @ tau_a @ t_in
    base = bilinear_residual(layer_stats(hin_a, hout_a, hin_b, hout_b), tau_a, tau_b)
    assert base <= 1e-8
    rng = np.random.default_rng(27)
    for _ in range(100):
        noise = rng.standard_normal(tau_b.shape)
        noise *= 1e-3 / np.linalg.norm(noise)
        perturbed = bilinear_residual(layer_stats(hin_a, hout_a, hin_b, hout_b), tau_a, tau_b + noise)
        assert base <= perturbed


def test_closed_form_matches_kronecker_least_squares():
    for seed in range(5):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 61)))
        d_in_a = int(rng.integers(1, 4))
        d_out_a = int(rng.integers(1, 4))
        d_in_b = int(rng.integers(d_in_a, 5))
        d_out_b = int(rng.integers(d_out_a, 5))
        m = int(rng.integers(max(d_in_a, d_out_a) + 1, 11))
        hin_a, hout_a, hin_b, hout_b, tau_a, t_in, t_out = aligned_instance(
            m, d_in_a, d_in_b, d_out_a, d_out_b, seed=seed + 100
        )
        closed = t_out.T @ tau_a @ t_in
        # Vectorize the coupling-match objective: the target coupling is
        # hin_b @ tau_b.T @ hout_b.T, linear in tau_b through a Kronecker
        # operator acting on the column-stacked tau_b.T.
        coupling_a = hin_a @ tau_a.T @ hout_a.T
        k = np.kron(hout_b, hin_b)
        x = np.linalg.lstsq(k, coupling_a.flatten(order="F"), rcond=1e-12)[0]
        solved = x.reshape((d_in_b, d_out_b), order="F").T
        np.testing.assert_allclose(closed, solved, atol=1e-7)


def test_kronecker_operator_injectivity_witness():
    rng = np.random.default_rng(np.random.SeedSequence((0, 62)))
    hin = rng.standard_normal((16, 3))
    hout = rng.standard_normal((16, 4))
    operator = np.kron(hout.T @ hout, hin.T @ hin)
    assert operator.shape == (12, 12)
    sigma = np.linalg.svd(operator, compute_uv=False)
    assert sigma[-1] > 1e-10


# -- depth expansion ---------------------------------------------------------


def uniform_stack(depth, d, seed):
    specs = [LayerSpec(d, d, has_bias=True, activation="identity") for _ in range(depth)]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 63)))
    return Checkpoint(
        layer_specs=specs,
        weights=[rng.standard_normal((d, d)) for _ in range(depth)],
        biases=[rng.standard_normal(d) for _ in range(depth)],
    )


def test_depth_expand_same_depth_is_identity():
    ckpt = uniform_stack(3, 4, seed=28)
    assert_checkpoint_equal(depth_expand(ckpt, 3), ckpt, bitwise=True)


def test_depth_expand_two_to_three_interpolates_middle():
    ckpt = uniform_stack(2, 3, seed=29)
    out = depth_expand(ckpt, 3)
    assert out.depth == 3
    np.testing.assert_array_equal(out.weights[0], ckpt.weights[0])
    np.testing.assert_array_equal(out.weights[2], ckpt.weights[1])
    np.testing.assert_allclose(out.weights[1], 0.5 * (ckpt.weights[0] + ckpt.weights[1]), atol=1e-15)
    np.testing.assert_allclose(out.biases[1], 0.5 * (ckpt.biases[0] + ckpt.biases[1]), atol=1e-15)


def test_depth_expand_endpoints_bitwise():
    ckpt = uniform_stack(3, 2, seed=30)
    # A -0.0 survives only a copy: a weighted sum would turn it into +0.0.
    for w, b in zip(ckpt.weights, ckpt.biases):
        w[0, 0] = b[0] = -0.0
    out = depth_expand(ckpt, 7)
    # New layers 0, 3 and 6 sit exactly on source layers 0, 1 and 2.
    for new_idx, src_idx in ((0, 0), (3, 1), (6, 2)):
        assert out.weights[new_idx].tobytes() == ckpt.weights[src_idx].tobytes()
        assert out.biases[new_idx].tobytes() == ckpt.biases[src_idx].tobytes()


def test_depth_expand_rejects_non_uniform_and_shrink():
    mixed = small_checkpoint(widths=(3, 4, 2))
    with pytest.raises(DimensionError, match="uniform"):
        depth_expand(mixed, 4)
    ckpt = uniform_stack(3, 2, seed=31)
    with pytest.raises(DimensionError, match="expand"):
        depth_expand(ckpt, 2)


# -- full pipeline -----------------------------------------------------------


def relu_pair(seed, widths_a=(3, 4, 2), widths_b=(3, 5, 2)):
    theta_a = small_checkpoint(widths=widths_a, seed=seed)
    theta_a_ft = small_checkpoint(widths=widths_a, seed=seed + 1)
    theta_b = small_checkpoint(widths=widths_b, seed=seed + 2)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 64)))
    calib_a = rng.standard_normal((16, 4, widths_a[0]))
    calib_b = (
        calib_a
        if widths_b[0] == widths_a[0]
        else rng.standard_normal((16, 4, widths_b[0]))
    )
    return theta_a, theta_a_ft, theta_b, calib_a, calib_b


@pytest.mark.parametrize("method", METHODS)
def test_equal_token_counts_are_left_untouched(method):
    # Three tokens form no grid, so interp2d cannot align them; sides of one
    # length are never aligned, so interp2d transports exactly as interp1d.
    theta_a, theta_a_ft, theta_b, _, _ = relu_pair(seed=44)
    calib = np.random.default_rng(np.random.SeedSequence((44, 3))).standard_normal((16, 3, 3))
    with pytest.raises(DimensionError, match="not a square grid"):
        align_sequence(calib, 3, "interp2d")
    results = [
        transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib, calib),
                              TransportConfig(method=method, strategy=strategy))
        for strategy in ("interp1d", "interp2d")
    ]
    (tv_1d, report_1d), (tv_2d, report_2d) = results
    for a, b in zip(tv_1d.deltas + tv_1d.bias_deltas, tv_2d.deltas + tv_2d.bias_deltas):
        assert a.tobytes() == b.tobytes()
    assert report_1d["layers"] == report_2d["layers"]


@pytest.mark.parametrize("method", METHODS)
def test_zero_task_vector_transports_to_zero(method):
    theta_a, _, theta_b, calib_a, calib_b = relu_pair(seed=40)
    cfg = TransportConfig(method=method, strategy="interp1d")
    for alpha in (0.0, 0.5, 1.0):
        out, report = transport_model(theta_a, theta_a, theta_b, calibration(calib_a, calib_b), cfg,
                                      alpha=alpha)
        for idx in range(theta_b.depth):
            np.testing.assert_array_equal(out.weights[idx], theta_b.weights[idx])
            np.testing.assert_array_equal(out.biases[idx], theta_b.biases[idx])
        assert report["alpha"] == alpha


def test_identical_models_recover_scaled_update():
    # Non-expanding widths keep every interface full rank (an expanding layer
    # with zero biases caps h_out's rank at d_in, leaving the self-alignment
    # map undetermined on the null direction).
    theta_a, theta_a_ft, _, calib_a, _ = relu_pair(
        seed=41, widths_a=(4, 4, 2), widths_b=(4, 4, 2)
    )
    theta_b = theta_a.copy()
    update = task_vector(theta_a, theta_a_ft)
    cfg = TransportConfig(method="theseus", strategy="interp1d")
    for alpha in (0.5, 1.0):
        out, _ = transport_model(theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_a), cfg,
                                 alpha=alpha)
        for idx in range(theta_b.depth):
            want = theta_b.weights[idx] + alpha * update.deltas[idx]
            np.testing.assert_allclose(out.weights[idx], want, atol=1e-6)


def test_isometric_target_functional_match():
    from taskport.harness.isometry import build_isometric_target

    specs = [
        LayerSpec(5, 4, has_bias=True, activation="identity"),
        LayerSpec(4, 3, has_bias=True, activation="identity"),
    ]
    theta_a = Checkpoint(
        layer_specs=specs,
        weights=[np.random.default_rng(42).standard_normal(s) for s in [(4, 5), (3, 4)]],
        biases=[np.random.default_rng(43).standard_normal(4), np.random.default_rng(44).standard_normal(3)],
    )
    theta_b, true_maps = build_isometric_target(theta_a, widths=[8, 6, 5], seed=9)
    rng = np.random.default_rng(np.random.SeedSequence((9, 65)))
    calib_a = rng.standard_normal((64, 4, 5))
    calib_b = np.einsum("nld,de->nle", calib_a, true_maps[0].in_map)

    tau = task_vector(theta_a, small_checkpoint_like(theta_a, seed=45))
    theta_a_ft = apply_update(theta_a, tau, 1.0)
    cfg = TransportConfig(method="theseus", strategy="interp1d")
    out, report = transport_model(theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_b), cfg, alpha=1.0)

    got, _ = forward_collect(out, calib_b)
    src, _ = forward_collect(theta_a_ft, calib_a)
    want = np.einsum("nld,de->nle", src, true_maps[-1].out_map)
    np.testing.assert_allclose(got, want, atol=1e-6)
    for layer in report["layers"]:
        assert layer["in_residual"] <= 1e-6
        assert layer["out_residual"] <= 1e-6


def small_checkpoint_like(ckpt, seed):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 66)))
    out = ckpt.copy()
    for idx in range(out.depth):
        out.weights[idx] = out.weights[idx] + 0.1 * rng.standard_normal(out.weights[idx].shape)
        if out.biases[idx] is not None:
            out.biases[idx] = out.biases[idx] + 0.1 * rng.standard_normal(out.biases[idx].shape)
    return out


def test_transport_rejects_depth_mismatch():
    theta_a, theta_a_ft, _, calib_a, _ = relu_pair(seed=46, widths_b=(3, 4, 2))
    deep = uniform_stack(3, 3, seed=47)
    with pytest.raises(DepthMismatchError, match="2 layers, target has 3"):
        transport_task_vector(theta_a, theta_a_ft, deep, calibration(calib_a, calib_a), TransportConfig())


def _calibration_never_read():
    raise AssertionError("the calibration was read")


@pytest.mark.parametrize("run", [transport_task_vector, transport_model])
@pytest.mark.parametrize("widths_ft", [(3, 5, 2), (3, 4, 4, 2)])
def test_transport_refuses_a_finetuned_source_of_other_specs(run, widths_ft):
    # Refused before any other check (the target is deeper too) and before
    # the calibration is read.
    theta_a, _, _, _, _ = relu_pair(seed=61)
    finetuned = small_checkpoint(widths=widths_ft, seed=62)
    deep = uniform_stack(3, 3, seed=63)
    with pytest.raises(DimensionError) as info:
        run(theta_a, finetuned, deep, _calibration_never_read, TransportConfig())
    assert str(info.value) == "base and finetuned checkpoints have different layer specs"


def test_transport_layer_errors_name_the_layer():
    theta_a, theta_a_ft, _, calib_a, _ = relu_pair(seed=48, widths_b=(3, 4, 2))
    shrunk = small_checkpoint(widths=(3, 4, 1), seed=49)
    cfg = TransportConfig(method="zero_pad", strategy="interp1d")
    with pytest.raises(DimensionError, match="layer 1"):
        transport_task_vector(theta_a, theta_a_ft, shrunk, calibration(calib_a, calib_a), cfg)


def layer_bytes(ckpt):
    return [a.tobytes() for idx in range(ckpt.depth) for a in ckpt.layer(idx) if a is not None]


def test_report_structure():
    theta_a, theta_a_ft, theta_b, calib_a, calib_b = relu_pair(seed=51)
    cfg = TransportConfig(method="theseus", strategy="interp1d")
    before = [layer_bytes(theta) for theta in (theta_a, theta_a_ft, theta_b)]
    _, report = transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_b), cfg)
    # Each layer's source update is formed in new arrays: no input is written over.
    assert [layer_bytes(theta) for theta in (theta_a, theta_a_ft, theta_b)] == before
    assert report["method"] == "theseus"
    assert report["seq_align"] == "interp1d"
    assert len(report["layers"]) == 2
    for idx, layer in enumerate(report["layers"]):
        assert layer["layer_index"] == idx
        for key in ("in_residual", "out_residual", "in_swapped", "out_swapped",
                    "tau_norm_src", "tau_norm_dst", "bilinear_residual"):
            assert key in layer
    # Conjugation preserves the per-layer update norm.
    for layer in report["layers"]:
        assert abs(layer["tau_norm_dst"] - layer["tau_norm_src"]) <= 1e-9 * max(1.0, layer["tau_norm_src"])


def test_big_to_small_direction_swaps_roles():
    # Wider source than target: each narrowing side's map is the polar factor
    # of h_a.T @ h_b, taller than wide with orthonormal columns, so the
    # transport still produces the right shape (norms may shrink).
    theta_a, theta_a_ft, theta_b, calib_a, _ = relu_pair(
        seed=52, widths_a=(3, 6, 2), widths_b=(3, 4, 2)
    )
    cfg = TransportConfig(method="theseus", strategy="interp1d")
    update, report = transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_a), cfg)
    assert update.deltas[0].shape == (4, 3)
    assert update.deltas[1].shape == (2, 4)
    assert np.all(np.isfinite(update.deltas[0]))
    assert report["layers"][0]["tau_norm_dst"] <= report["layers"][0]["tau_norm_src"] + 1e-9
    # Layer 0 narrows its output side (6 -> 4), layer 1 its input side.
    layers = report["layers"]
    assert [(l["in_swapped"], l["out_swapped"]) for l in layers] == [(False, True), (True, False)]
    ckpt, _ = transport_model(theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_a), cfg)
    assert json.loads(ckpt.meta["transport_residuals"]) == layers


def test_transport_config_validation():
    with pytest.raises(ConfigError, match="unknown method"):
        TransportConfig(method="teleport")
    with pytest.raises(ConfigError, match="strategy"):
        TransportConfig(strategy="spline")
    with pytest.raises(ConfigError, match="lambda"):
        TransportConfig(lam=-1.0)
    with pytest.raises(ConfigError, match="rcond"):
        TransportConfig(rcond=-0.1)
    echo = TransportConfig().echo()
    assert set(echo) == {"method", "seq_align", "lambda", "rcond", "seed"}


def test_transport_rejects_unpaired_calibration():
    theta_a, theta_a_ft, theta_b, calib_a, calib_b = relu_pair(seed=53)
    with pytest.raises(DimensionError, match="pair"):
        transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_b[:-1]),
                              TransportConfig())


def traced_peak(depth, width, seqs, tokens, source_tokens=None):
    """Peak traced bytes of one theseus transport between two ReLU stacks
    of ``depth`` layers, all ``width`` wide; the source's inputs have
    ``source_tokens`` tokens, by default as many as the target's."""
    widths = (width,) * (depth + 1)
    theta_a = small_checkpoint(widths=widths, seed=54)
    theta_a_ft = small_checkpoint(widths=widths, seed=55)
    theta_b = small_checkpoint(widths=widths, seed=56)
    rng = np.random.default_rng(np.random.SeedSequence((57, depth)))
    calib_a = rng.standard_normal((seqs, source_tokens or tokens, width))
    calib_b = rng.standard_normal((seqs, tokens, width))
    cfg = TransportConfig(method="theseus", strategy="interp1d")
    tracemalloc.start()
    try:
        transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_b), cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transport_memory_does_not_grow_with_depth():
    # The stacks run one layer at a time, so a deeper stack holds no more
    # activations at once; holding every layer's would add 16 arrays here.
    width, seqs, tokens = 16, 64, 32
    one_layer = seqs * tokens * width * 8
    shallow = traced_peak(2, width, seqs, tokens)
    deep = traced_peak(6, width, seqs, tokens)
    assert abs(deep - shallow) < one_layer, (shallow, deep, one_layer)


def test_cli_transport_memory_does_not_grow_with_depth(tmp_path):
    # `taskport transport` reads each checkpoint a layer at a time, so a
    # deeper stack holds no more weights at once, nor more activations.
    # Holding the source, the update and the target whole added a layer of
    # each per layer, four layers of the three checkpoints here.
    width, seqs, tokens = 64, 16, 8
    one_layer = 3 * 8 * (width * width + width)
    rng = np.random.default_rng(58)
    save_calibration(rng.standard_normal((seqs, tokens, width)), rng.standard_normal((seqs, tokens, width)),
                     tmp_path / "calib.tpc")

    def peak(depth):
        widths = (width,) * (depth + 1)
        argv = ["transport", "--calib", str(tmp_path / "calib.tpc"), "--output", str(tmp_path / "out.tpk"),
                "--report", str(tmp_path / "report.json")]
        for flag, seed in (("--source", 54), ("--finetuned", 55), ("--target", 56)):
            path = tmp_path / f"{flag[2:]}{depth}.tpk"
            save_checkpoint(small_checkpoint(widths=widths, seed=seed), path)
            argv += [flag, str(path)]
        assert main(argv) == 0  # the first run's one-time allocations stay out of the peak
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    shallow, deep = peak(2), peak(6)
    assert abs(deep - shallow) < one_layer, (shallow, deep, one_layer)


def test_transport_keeps_no_aligned_source_rows():
    # A 17-token source is never aligned to the target's 26 tokens: each
    # side's products are taken on 17-token arrays, made one at a time and
    # dropped once used. A 26-token source aligns nothing. Keeping both
    # sides' aligned rows through the layer, as row-holding statistics did,
    # peaked about 1.3 aligned arrays above the 26-token run here; aligning
    # each side and dropping it, about 0.2; the 17-token products, about 0.2
    # below it, as the source's own activations are smaller.
    width, seqs = 32, 64
    aligned = seqs * 26 * width * 8
    unaligned = traced_peak(2, width, seqs, 26)
    resampled = traced_peak(2, width, seqs, 26, source_tokens=17)
    assert resampled - unaligned < aligned, (unaligned, resampled, aligned)


@pytest.mark.parametrize("width, tokens, source_tokens", [(16, 32, None), (32, 26, 17)])
def test_transport_holds_one_activation_per_model(width, tokens, source_tokens):
    # A layer's input statistics are taken before its forward pass, and each
    # model's input is dropped once its output exists, so only the outputs
    # are alive through the solve: the peaks are about 3.37 and 3.02
    # one-layer arrays. Holding each model's input beside its output through
    # the solve peaked at 4.34 and 4.25.
    seqs = 64
    one_layer = seqs * tokens * width * 8
    peak = traced_peak(4, width, seqs, tokens, source_tokens)
    assert peak < 3.8 * one_layer, (peak / one_layer, peak, one_layer)


@pytest.mark.parametrize("width, tokens, source_tokens", [(16, 32, None), (32, 26, 17)])
def test_transport_steps_each_layer_over_its_input(width, tokens, source_tokens):
    # From layer 1 on, a square layer's output is written over its input
    # through one block-sized temporary, and each layer's source update is
    # dropped once transported, so a forward step holds one activation per
    # model: the peaks are about 2.35 and 2.54 one-layer arrays. Allocating
    # each output beside its input peaked at 3.37 and 3.02.
    seqs = 64
    one_layer = seqs * tokens * width * 8
    peak = traced_peak(4, width, seqs, tokens, source_tokens)
    assert peak < 2.75 * one_layer, (peak / one_layer, peak, one_layer)


@pytest.mark.parametrize("case, error, message", [
    ("features", DimensionError, "inputs have 2 features, layer 0 expects 3"),
    ("no_tokens", DimensionError,
     "inputs must contain at least one sequence and one token, got shape (16, 0, 3)"),
    ("nan", NonFiniteError, "inputs contains NaN or Inf entries"),
])
def test_transport_calibration_errors_are_the_forward_pass_errors(case, error, message):
    theta_a, theta_a_ft, theta_b, calib_a, calib_b = relu_pair(seed=58)
    if case == "features":
        calib_a = calib_a[:, :, :2]
    elif case == "no_tokens":
        calib_a = calib_a[:, :0]
    else:
        calib_b = calib_b.copy()
        calib_b[3, 1, 0] = np.nan
    with pytest.raises(error) as info:
        transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_b), TransportConfig())
    assert str(info.value) == message and info.value.kind == error.kind


def test_transport_empty_checkpoints_cannot_run_forward():
    empty = Checkpoint(layer_specs=[], weights=[], biases=[])
    calib = np.zeros((2, 3, 4))
    with pytest.raises(DimensionError) as info:
        transport_task_vector(empty, empty, empty, calibration(calib, calib), TransportConfig())
    assert str(info.value) == "cannot run a forward pass on an empty checkpoint"


def test_transport_forward_errors_name_their_layer_once():
    theta_a, theta_a_ft, theta_b, calib_a, calib_b = relu_pair(seed=59)
    # A spec edited after construction no longer chains to layer 0's output.
    theta_b.layer_specs[1] = LayerSpec(4, 2, has_bias=True, activation="identity")
    with pytest.raises(DimensionError) as info:
        transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_b), TransportConfig())
    assert str(info.value) == "layer 1: got 5 input features, expected 4"


def test_transport_overflowing_layer_is_one_non_finite_error():
    theta_a, theta_a_ft, theta_b, calib_a, calib_b = relu_pair(seed=60)
    theta_b.weights[1] = 1e300 * theta_b.weights[1]  # layer 1's outputs overflow
    with np.errstate(over="raise", invalid="raise"), pytest.raises(NonFiniteError) as info:
        transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_b), TransportConfig())
    message = str(info.value)
    assert message.startswith("layer 1: ") and message.count("layer") == 1, message


def _near_exact_unequal_tokens():
    """Identity stacks whose target is an exact isometric image of the source,
    on a 17-token source and its 26-token interp2d alignment: every Procrustes
    residual and every coupling residual cancels, so every guard fires."""
    from taskport.harness.isometry import build_isometric_target

    widths_a = (5, 4, 6, 3)
    theta_a = small_checkpoint(widths=widths_a, seed=70, activation="identity")
    theta_b, maps = build_isometric_target(theta_a, widths=[7, 6, 8, 5], seed=71)
    finetuned = small_checkpoint(widths=widths_a, seed=72, activation="identity")
    theta_a_ft = apply_update(theta_a, task_vector(theta_a, finetuned), 1.0)
    calib_a = np.random.default_rng(73).standard_normal((24, 17, 5))
    calib_b = align_sequence(calib_a, 26, "interp2d") @ maps[0].in_map
    return theta_a, theta_a_ft, theta_b, calib_a, calib_b


@pytest.mark.parametrize("method, fallbacks", [("theseus", 9), ("pinv", 3)])
def test_fallbacks_on_rows_made_again_match_kept_rows(monkeypatch, method, fallbacks):
    # An input-side fallback makes its layer's rows again from the
    # calibration batch, an output-side one aligns the layer's live outputs;
    # each must read exactly the rows that an explicit alignment of the
    # layer's kept activations (forward_collect's records) gives. The
    # comparison keeps the same statistics and swaps only where rows come from.
    fired = []
    guarded = transport._guarded_distance
    monkeypatch.setattr(transport, "_guarded_distance",
                        lambda aa, bb, ab, direct: guarded(aa, bb, ab, lambda: fired.append(1) or direct()))
    theta_a, theta_a_ft, theta_b, calib_a, calib_b = _near_exact_unequal_tokens()
    before = calib_a.tobytes(), calib_b.tobytes()
    cfg = TransportConfig(method=method, strategy="interp2d")
    args = (theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_b), cfg)
    made_again, made_again_report = transport_task_vector(*args)
    assert len(fired) == fallbacks
    assert (calib_a.tobytes(), calib_b.tobytes()) == before

    records = [forward_collect(theta, calib)[1] for theta, calib in ((theta_a, calib_a), (theta_b, calib_b))]
    built = {"hin": 0, "hout": 0}

    def on_kept_rows(h_a, h_b, strategy, name, remake=None):
        made = SideStats(h_a, h_b, strategy, name, remake)
        idx, built[name] = built[name], built[name] + 1  # sides are built layer by layer
        pair = [getattr(r[idx], "h_in" if name == "hin" else "h_out") for r in records]
        length = max(h.shape[1] for h in pair)
        kept = tuple(flatten_tokens(align_sequence(h, length, strategy)) for h in pair)
        made.rows = lambda: kept
        return made

    monkeypatch.setattr(transport, "SideStats", on_kept_rows)
    kept, kept_report = transport_task_vector(*args)
    assert len(fired) == 2 * fallbacks
    assert json.dumps(made_again_report) == json.dumps(kept_report)
    for got, want in zip(made_again.deltas + made_again.bias_deltas, kept.deltas + kept.bias_deltas):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("method, forward_calls", [("theseus", 18), ("pinv", 12)])
def test_output_side_fallback_runs_no_second_forward_pass(monkeypatch, method, forward_calls):
    # Every guard fires on these depth-3 stacks. The pipeline runs 6 layer
    # steps; an input-side fallback at layer idx runs 2 idx more, and the
    # theseus Procrustes and coupling residual guards each read the input
    # side (12 steps), pinv's coupling residual guard only (6). An output
    # side's rows are the layer's live outputs, so its fallbacks run none:
    # made again, as they once were, they took 42 and 24 steps.
    calls = []
    step = transport.forward_layer
    monkeypatch.setattr(transport, "forward_layer", lambda *args: calls.append(1) or step(*args))
    theta_a, theta_a_ft, theta_b, calib_a, calib_b = _near_exact_unequal_tokens()
    transport_task_vector(theta_a, theta_a_ft, theta_b, calibration(calib_a, calib_b),
                          TransportConfig(method=method, strategy="interp2d"))
    assert len(calls) == forward_calls


@pytest.mark.parametrize("method, reads", [("theseus", 7), ("pinv", 4), (None, 1)])
def test_calibration_pair_is_dropped_at_layer_0_and_read_again_per_input_side_guard(
        monkeypatch, method, reads):
    # No calibration array outlives layer 0: each layer 0 here changes width,
    # so its outputs are new arrays and every pair the callable returned so
    # far (layer 0's guards read it again) is unreachable before layer 1's
    # forward steps, the first two with idx 1. The callable runs once, and
    # once more per input-side guard that fires: on the near-exact stacks,
    # both theseus guards per layer read the input side, pinv's one (three
    # layers); the ReLU pair on unrelated inputs fires none.
    if method is None:
        theta_a, theta_a_ft, theta_b, calib_a, _ = relu_pair(seed=78)
        calib_b = np.random.default_rng(79).standard_normal((16, 9, 3))
        method = "theseus"
    else:
        theta_a, theta_a_ft, theta_b, calib_a, calib_b = _near_exact_unequal_tokens()
    returned = []

    def read():
        pair = calibration(calib_a, calib_b)()
        returned.append([weakref.ref(h) for h in pair])
        return pair

    alive_at_layer_1 = []
    step = transport.forward_layer

    def forward(spec, w, *args):
        # Checkpoint.layer returns the arrays held, so the weights name the layer.
        if any(w is theta.weights[1] for theta in (theta_a, theta_b)) and len(alive_at_layer_1) < 2:
            alive_at_layer_1.append([ref() is not None for refs in returned for ref in refs])
        return step(spec, w, *args)

    monkeypatch.setattr(transport, "forward_layer", forward)
    transport_task_vector(theta_a, theta_a_ft, theta_b, read, TransportConfig(method=method, strategy="interp2d"))
    assert len(returned) == reads
    assert len(alive_at_layer_1) == 2 and not any(map(any, alive_at_layer_1)), alive_at_layer_1


def test_a_replay_of_other_shapes_is_one_dimension_error():
    # A calibration that changes between reads is refused at the first
    # firing guard, before any product reads the replayed pair.
    theta_a, theta_a_ft, theta_b, calib_a, calib_b = _near_exact_unequal_tokens()
    reads = []

    def shrinking():
        reads.append(1)
        n = len(calib_a) - (len(reads) > 1)
        return calibration(calib_a[:n], calib_b[:n])()

    with pytest.raises(DimensionError) as info:
        transport_task_vector(theta_a, theta_a_ft, theta_b, shrinking, TransportConfig(strategy="interp2d"))
    assert str(info.value) == ("layer 0: the calibration read again has shapes (23, 17, 5) and (23, 26, 7), "
                               "the first read (24, 17, 5) and (24, 26, 7)")
    assert len(reads) == 2


def test_rows_made_again_are_the_relu_pipelines_activations():
    # The near-exact stacks above are affine; on ReLU stacks the second
    # forward pass activates in place as transport does, and must give
    # forward_collect's layer inputs bitwise without writing the calibration.
    theta_a, _, theta_b, calib_a, _ = relu_pair(seed=76, widths_a=(3, 4, 5, 2), widths_b=(3, 5, 6, 2))
    calib_b = np.random.default_rng(77).standard_normal((16, 9, 3))
    before = calib_a.tobytes(), calib_b.tobytes()
    thetas, shapes = (theta_a, theta_b), (calib_a.shape, calib_b.shape)
    records = [forward_collect(theta, calib)[1] for theta, calib in zip(thetas, (calib_a, calib_b))]
    for idx in range(theta_a.depth):
        for got, record in zip(transport._pair_again(thetas, calibration(calib_a, calib_b), shapes, idx),
                               records):
            want = record[idx].h_in
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), idx
    assert (calib_a.tobytes(), calib_b.tobytes()) == before


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(STRATEGIES), st.booleans(), st.integers(1, 4), st.integers(1, 4),
       st.lists(st.integers(1, 6), min_size=4, max_size=4), st.integers(1, 4), st.integers(0, 2**16))
def test_statistics_on_own_tokens_match_statistics_on_aligned_rows(
        strategy, extra, g_a, g_b, widths, seqs, seed):
    # Token counts g*g (+ 1): grids for interp2d, so the source is shorter,
    # longer or as long; widths (hin_a, hout_a, hin_b, hout_b), swapped or not.
    rng = np.random.default_rng(seed)
    acts = tuple(rng.standard_normal((seqs, g * g + extra, d))
                 for g, d in zip((g_a, g_a, g_b, g_b), widths))
    length = 1 if strategy == "mean" else max(acts[0].shape[1], acts[2].shape[1])
    aligned = [flatten_tokens(align_sequence(h, length, strategy)) for h in acts]
    want = layer_stats(*aligned)
    in_side, out_side = (SideStats(acts[i], acts[i + 2], strategy, name) for i, name in ((0, "hin"), (1, "hout")))
    for side, ref, rows in ((in_side, want.in_side, aligned[0::2]),
                            (out_side, want.out_side, aligned[1::2])):
        assert (side.d_a, side.d_b) == (ref.d_a, ref.d_b)
        # One orientation for every side: the cross-covariance is h_a.T @ h_b.
        assert side.cross.shape == (side.d_a, side.d_b)
        direct = rows[0].T @ rows[1]
        assert np.abs(side.cross - direct).max() <= 1e-12 * np.abs(direct).max()
        for name in ("gram_a", "gram_b", "cross"):
            product, expected = getattr(side, name), getattr(ref, name)
            assert product.shape == expected.shape
            assert np.abs(product - expected).max() <= 1e-12 * np.abs(expected).max(), name
        for made, kept in zip(side.rows(), rows):
            assert made.shape == kept.shape and made.tobytes() == kept.tobytes()


def test_transport_writes_no_calibration_and_collect_keeps_pre_activations():
    # Transport writes only into the pair the callable returned: layer 0,
    # square on both models here, writes its output over it and activates
    # it in place, so it ends as layer 1's input, forward_collect's bitwise.
    # The arrays the caller keeps and the checkpoints are never written, and
    # forward_collect's records keep z.
    theta_a, theta_a_ft, theta_b, calib_a, _ = relu_pair(seed=74, widths_a=(3, 3, 2), widths_b=(3, 3, 2))
    calib_b = np.random.default_rng(75).standard_normal((16, 9, 3))
    before = calib_a.tobytes(), calib_b.tobytes()
    weights = [w.tobytes() for theta in (theta_a, theta_a_ft, theta_b) for w in theta.weights]
    returned = []
    transport_task_vector(theta_a, theta_a_ft, theta_b,
                          lambda: returned.append(calibration(calib_a, calib_b)()) or returned[-1],
                          TransportConfig(strategy="interp2d"))
    assert (calib_a.tobytes(), calib_b.tobytes()) == before
    assert [w.tobytes() for theta in (theta_a, theta_a_ft, theta_b) for w in theta.weights] == weights
    (pair,) = returned
    for theta, calib, written in zip((theta_a, theta_b), (calib_a, calib_b), pair):
        assert written.tobytes() == forward_collect(theta, calib)[1][1].h_in.tobytes()
    _, records = forward_collect(theta_a, calib_a)
    assert calib_a.tobytes() == before[0]
    for record, following in zip(records, records[1:]):
        assert (record.h_out < 0).any()
        np.testing.assert_array_equal(following.h_in, np.maximum(record.h_out, 0.0))

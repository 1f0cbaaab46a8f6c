import numpy as np
import pytest
from hypothesis import given, strategies as st

from taskport.errors import DimensionError
from taskport.seqalign import (
    STRATEGIES,
    align_sequence,
    flatten_tokens,
    grid_side,
    resample_weights,
)

# Token counts every strategy accepts: squares work for interp2d and anything
# works for mean/interp1d.
_SQUARE_LENGTHS = (1, 4, 9, 16)


def test_mean_always_pools_to_one_token():
    h = np.random.default_rng(0).standard_normal((3, 7, 4))
    out = align_sequence(h, 7, "mean")
    assert out.shape == (3, 1, 4)
    np.testing.assert_allclose(out[:, 0, :], h.mean(axis=1), atol=1e-15)


@given(
    st.sampled_from(STRATEGIES),
    st.sampled_from(_SQUARE_LENGTHS),
    st.sampled_from(_SQUARE_LENGTHS),
    st.floats(-1e6, 1e6, allow_nan=False),
)
def test_constant_sequences_stay_constant(strategy, l_src, l_target, value):
    h = np.full((2, l_src, 3), value)
    out = align_sequence(h, l_target, strategy)
    np.testing.assert_allclose(out, value, atol=1e-15 * max(1.0, abs(value)))


def test_interp1d_equal_lengths_is_bitwise_copy():
    h = np.random.default_rng(1).standard_normal((4, 6, 2))
    out = align_sequence(h, 6, "interp1d")
    assert out.tobytes() == h.tobytes()
    assert out is not h


def test_interp1d_two_to_three_tokens():
    h = np.zeros((1, 2, 1))
    h[0, :, 0] = [0.0, 2.0]
    out = align_sequence(h, 3, "interp1d")
    np.testing.assert_allclose(out[0, :, 0], [0.0, 1.0, 2.0], atol=1e-15)


def test_interp1d_pins_endpoints():
    h = np.random.default_rng(2).standard_normal((3, 5, 4))
    for l_target in (2, 3, 9, 17):
        out = align_sequence(h, l_target, "interp1d")
        np.testing.assert_array_equal(out[:, 0, :], h[:, 0, :])
        np.testing.assert_array_equal(out[:, -1, :], h[:, -1, :])


def test_interp2d_two_by_two_to_three_by_three():
    # Grid values 0..3 laid out row-major; bilinear upsampling of a 2x2 corner
    # grid gives row interpolation then column interpolation.
    h = np.arange(4.0).reshape(1, 4, 1)
    out = align_sequence(h, 9, "interp2d")
    expected = np.array([0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 2.0, 2.5, 3.0])
    np.testing.assert_allclose(out[0, :, 0], expected, atol=1e-12)
    assert abs(out[0, 4, 0] - 1.5) <= 1e-12


def test_interp2d_equal_lengths_is_bitwise_copy():
    h = np.random.default_rng(3).standard_normal((2, 9, 3))
    out = align_sequence(h, 9, "interp2d")
    assert out.tobytes() == h.tobytes()


def test_interp2d_extra_token_passthrough():
    rng = np.random.default_rng(4)
    h = rng.standard_normal((3, 5, 2))  # 2x2 grid plus one leading token
    out = align_sequence(h, 10, "interp2d")  # 3x3 grid plus the same token
    assert out.shape == (3, 10, 2)
    np.testing.assert_array_equal(out[:, 0, :], h[:, 0, :])


def test_interp2d_rejects_mismatched_extra_token():
    with pytest.raises(DimensionError, match="extra leading token"):
        align_sequence(np.zeros((1, 5, 2)), 9, "interp2d")
    with pytest.raises(DimensionError, match="extra leading token"):
        align_sequence(np.zeros((1, 4, 2)), 10, "interp2d")


def test_interp2d_rejects_non_grid_counts():
    with pytest.raises(DimensionError, match="not a square grid"):
        align_sequence(np.zeros((1, 7, 2)), 9, "interp2d")
    with pytest.raises(DimensionError, match="not a square grid"):
        align_sequence(np.zeros((1, 9, 2)), 7, "interp2d")
    # Equal non-grid lengths must still be rejected, not fast-pathed.
    with pytest.raises(DimensionError, match="not a square grid"):
        align_sequence(np.zeros((1, 3, 2)), 3, "interp2d")


@given(
    st.sampled_from(STRATEGIES),
    st.sampled_from(_SQUARE_LENGTHS),
    st.sampled_from(_SQUARE_LENGTHS),
    st.integers(0, 2**16),
)
def test_alignment_is_linear(strategy, l_src, l_target, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, l_src, 3))
    b = rng.standard_normal((2, l_src, 3))
    combined = align_sequence(2.0 * a + 3.0 * b, l_target, strategy)
    separate = 2.0 * align_sequence(a, l_target, strategy) + 3.0 * align_sequence(b, l_target, strategy)
    np.testing.assert_allclose(combined, separate, atol=1e-12)


def test_resample_weights_rows_sum_to_one():
    for l_src in (1, 2, 5, 9):
        for l_target in (1, 3, 8):
            w = resample_weights(l_src, l_target)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-15)


def test_resample_weights_identity_on_equal_lengths():
    np.testing.assert_array_equal(resample_weights(5, 5), np.eye(5))


def test_resample_weights_rejects_non_positive():
    with pytest.raises(DimensionError):
        resample_weights(0, 3)
    with pytest.raises(DimensionError):
        align_sequence(np.zeros((1, 2, 1)), 0, "interp1d")


def test_grid_side_forms():
    assert grid_side(9) == (3, False)
    assert grid_side(10) == (3, True)
    assert grid_side(1) == (1, False)
    assert grid_side(2) == (1, True)
    with pytest.raises(DimensionError):
        grid_side(7)


def test_unknown_strategy_rejected():
    with pytest.raises(DimensionError, match="unknown strategy"):
        align_sequence(np.zeros((1, 4, 2)), 4, "cubic")


def test_flatten_single_token():
    h = np.arange(6.0).reshape(1, 1, 6)
    flat = flatten_tokens(h)
    assert flat.shape == (1, 6)
    np.testing.assert_array_equal(flat[0], h[0, 0])


def test_flatten_row_order():
    h = np.random.default_rng(5).standard_normal((2, 3, 4))
    flat = flatten_tokens(h)
    assert flat.shape == (6, 4)
    # Row n*L + l is token l of sequence n; row 4 is sequence 1, token 1.
    np.testing.assert_array_equal(flat[4], h[1, 1])

import numpy as np
import pytest

from helpers import assert_checkpoint_equal, small_checkpoint
from taskport.errors import DimensionError, FormatError
from taskport.model import (
    Checkpoint,
    LayerSpec,
    TaskVector,
    apply_update,
    forward_collect,
    init_checkpoint,
    load_calibration,
    load_checkpoint,
    save_calibration,
    save_checkpoint,
    task_vector,
)


def identity_checkpoint(d, n_layers=1, activation="identity"):
    specs = [LayerSpec(d, d, has_bias=False, activation=activation) for _ in range(n_layers)]
    return Checkpoint(layer_specs=specs, weights=[np.eye(d) for _ in specs], biases=[None] * n_layers)


# -- forward passes ----------------------------------------------------------


def test_forward_identity_network():
    x = np.random.default_rng(0).standard_normal((4, 3, 5))
    out, records = forward_collect(identity_checkpoint(5), x)
    assert records[0].h_in.tobytes() == x.tobytes()
    np.testing.assert_array_equal(records[0].h_out, x)
    np.testing.assert_array_equal(out, x)


def test_forward_scalar_scaling():
    ckpt = Checkpoint(
        layer_specs=[LayerSpec(1, 1, has_bias=False)],
        weights=[np.array([[2.0]])],
        biases=[None],
    )
    out, _ = forward_collect(ckpt, np.full((1, 1, 1), 3.0))
    assert out[0, 0, 0] == 6.0


def test_forward_relu_stack_against_standalone_multiply():
    ckpt = small_checkpoint(widths=(3, 4, 2), seed=9, activation="relu")
    x = np.random.default_rng(10).standard_normal((6, 2, 3))
    out, records = forward_collect(ckpt, x)
    w0, b0 = ckpt.weights[0], ckpt.biases[0]
    flat = records[0].h_in.reshape(-1, 3)
    expected = (flat @ w0.T + b0).reshape(6, 2, 4)
    np.testing.assert_array_equal(records[0].h_out, expected)
    # The next layer sees the post-ReLU values.
    np.testing.assert_array_equal(records[1].h_in, np.maximum(records[0].h_out, 0.0))
    assert out.shape == (6, 2, 2)


def test_forward_hout_bitwise_for_identity_activation():
    ckpt = small_checkpoint(widths=(4, 4, 4), seed=3, activation="identity")
    x = np.random.default_rng(4).standard_normal((5, 3, 4))
    _, records = forward_collect(ckpt, x)
    for rec, w, b in zip(records, ckpt.weights, ckpt.biases):
        flat = rec.h_in.reshape(-1, w.shape[1])
        want = (flat @ w.T + b).reshape(rec.h_out.shape)
        assert rec.h_out.tobytes() == want.tobytes()
    assert records[1].h_in.tobytes() == records[0].h_out.tobytes()


def test_forward_rejects_wrong_feature_count():
    with pytest.raises(DimensionError, match="layer 0"):
        forward_collect(identity_checkpoint(5), np.zeros((2, 2, 4)))


def test_forward_rejects_empty_checkpoint():
    empty = Checkpoint(layer_specs=[], weights=[], biases=[])
    with pytest.raises(DimensionError, match="empty"):
        forward_collect(empty, np.zeros((1, 1, 1)))


# -- task-vector arithmetic --------------------------------------------------


def test_task_vector_zero_update():
    ckpt = small_checkpoint(seed=1)
    tv = task_vector(ckpt, ckpt.copy())
    assert all(np.all(d == 0.0) for d in tv.deltas)
    assert tv.norm() == 0.0


def test_task_vector_zero_base():
    ft = small_checkpoint(seed=2)
    base = ft.copy()
    for idx in range(base.depth):
        base.weights[idx] = np.zeros_like(base.weights[idx])
    tv = task_vector(base, ft)
    for idx in range(base.depth):
        np.testing.assert_array_equal(tv.deltas[idx], ft.weights[idx])


def test_task_vector_add_back():
    base = small_checkpoint(seed=5)
    ft = small_checkpoint(seed=6)
    tv = task_vector(base, ft)
    back = apply_update(base, tv, 1.0)
    for idx in range(base.depth):
        assert np.linalg.norm(back.weights[idx] - ft.weights[idx]) <= 1e-12
        assert np.linalg.norm(back.biases[idx] - ft.biases[idx]) <= 1e-12


def test_task_vector_rejects_mismatched_specs():
    with pytest.raises(DimensionError):
        task_vector(small_checkpoint(widths=(3, 4, 2)), small_checkpoint(widths=(3, 5, 2)))


def test_apply_alpha_zero_is_exact_copy():
    base = small_checkpoint(seed=7)
    tv = task_vector(base, small_checkpoint(seed=8))
    out = apply_update(base, tv, 0.0)
    assert_checkpoint_equal(out, base, bitwise=True)
    assert out.meta["alpha"] == "0.0"


def test_apply_midpoint_scalar():
    ckpt = Checkpoint(
        layer_specs=[LayerSpec(1, 1, has_bias=False)],
        weights=[np.array([[2.0]])],
        biases=[None],
    )
    tv = TaskVector(deltas=[np.array([[2.0]])], bias_deltas=[None])
    out = apply_update(ckpt, tv, 0.5)
    assert out.weights[0][0, 0] == 3.0


def test_apply_rejects_bad_shapes():
    base = small_checkpoint(widths=(3, 4, 2))
    tv = TaskVector(deltas=[np.zeros((4, 3))], bias_deltas=[None])
    with pytest.raises(DimensionError):
        apply_update(base, tv, 1.0)
    tv = TaskVector(
        deltas=[np.zeros((4, 3)), np.zeros((2, 5))], bias_deltas=[np.zeros(4), np.zeros(2)]
    )
    with pytest.raises(DimensionError, match="layer 1"):
        apply_update(base, tv, 1.0)


def test_checkpoint_chaining_validation():
    with pytest.raises(DimensionError, match="chain"):
        Checkpoint(
            layer_specs=[LayerSpec(3, 4, has_bias=False), LayerSpec(5, 2, has_bias=False)],
            weights=[np.zeros((4, 3)), np.zeros((2, 5))],
            biases=[None, None],
        )
    with pytest.raises(DimensionError, match="bias"):
        Checkpoint(layer_specs=[LayerSpec(2, 2)], weights=[np.eye(2)], biases=[None])


def test_layer_spec_validation():
    with pytest.raises(DimensionError):
        LayerSpec(0, 3)
    with pytest.raises(DimensionError):
        LayerSpec(2, 2, activation="tanh")


# -- serialization -----------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path):
    ckpt = small_checkpoint(seed=11)
    ckpt.meta["task"] = "demo"
    path = tmp_path / "c.tpk"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert_checkpoint_equal(loaded, ckpt, bitwise=True)
    assert loaded.meta == ckpt.meta
    # Saving the loaded copy reproduces the file byte for byte.
    path2 = tmp_path / "c2.tpk"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_empty_layer_list_round_trips(tmp_path):
    empty = Checkpoint(layer_specs=[], weights=[], biases=[], meta={"note": "none"})
    path = tmp_path / "empty.tpk"
    save_checkpoint(empty, path)
    loaded = load_checkpoint(path)
    assert loaded.depth == 0
    assert loaded.meta == {"note": "none"}


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.tpk"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.kind == "bad_magic"


def test_checkpoint_truncated(tmp_path):
    good = tmp_path / "good.tpk"
    save_checkpoint(small_checkpoint(seed=0), good)
    clipped = tmp_path / "clipped.tpk"
    clipped.write_bytes(good.read_bytes()[:-9])
    with pytest.raises(FormatError) as err:
        load_checkpoint(clipped)
    assert err.value.kind == "truncated"


def test_checkpoint_trailing_bytes(tmp_path):
    good = tmp_path / "good.tpk"
    save_checkpoint(small_checkpoint(seed=0), good)
    padded = tmp_path / "padded.tpk"
    padded.write_bytes(good.read_bytes() + b"\x00")
    with pytest.raises(FormatError) as err:
        load_checkpoint(padded)
    assert err.value.kind == "bad_format"


def test_calibration_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(33)
    a = rng.standard_normal((6, 3, 4))
    b = rng.standard_normal((6, 5, 9))
    path = tmp_path / "cal.tpc"
    save_calibration(a, b, path)
    la, lb = load_calibration(path)
    assert la.tobytes() == a.tobytes()
    assert lb.tobytes() == b.tobytes()


def test_calibration_rejects_unpaired_counts(tmp_path):
    with pytest.raises(DimensionError, match="pair"):
        save_calibration(np.zeros((3, 2, 2)), np.zeros((4, 2, 2)), tmp_path / "x.tpc")


def test_calibration_truncated(tmp_path):
    good = tmp_path / "good.tpc"
    save_calibration(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)), good)
    clipped = tmp_path / "clipped.tpc"
    clipped.write_bytes(good.read_bytes()[:-1])
    with pytest.raises(FormatError) as err:
        load_calibration(clipped)
    assert err.value.kind == "truncated"


def test_init_checkpoint_deterministic():
    specs = [LayerSpec(3, 4, activation="relu"), LayerSpec(4, 2)]
    a = init_checkpoint(specs, seed=17)
    b = init_checkpoint(specs, seed=17)
    assert_checkpoint_equal(a, b, bitwise=True)
    assert all(np.all(bias == 0.0) for bias in a.biases)


def test_task_vector_norm_counts_biases():
    tv = TaskVector(deltas=[np.array([[3.0]])], bias_deltas=[np.array([4.0])])
    assert tv.norm() == 5.0

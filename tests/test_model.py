import gc
import io
import re
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import assert_checkpoint_equal, small_checkpoint
from taskport import model
from taskport.errors import DimensionError, FormatError, NonFiniteError, TaskportError
from taskport.model import (
    Checkpoint,
    CheckpointReader,
    LayerSpec,
    TaskVector,
    apply_update,
    forward_collect,
    forward_layer,
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


@pytest.mark.parametrize("has_bias", [True, False])
@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, -1), (2, 0), (2, 1)])
def test_forward_steps_have_the_single_products_bits(blocks, extra, has_bias):
    # Into a new array, a given one or its own input, a layer's output has
    # the one product's bits at the trainer's widths and at 64, on one row
    # and on row counts below, at and above a multiple of the block; a
    # one-row last block over the input, which BLAS sums as a gemv, would not.
    rng = np.random.default_rng(38)
    rows = blocks * model._FORWARD_BLOCK_ROWS + extra
    for width in (16, 24, 64):
        ckpt = init_checkpoint([LayerSpec(width, width, has_bias=has_bias)], seed=37)
        if has_bias:
            ckpt.biases[0] = rng.standard_normal(width)
        h = rng.standard_normal((rows, 1, width))
        want = h.reshape(rows, width) @ ckpt.weights[0].T
        if has_bias:
            want += ckpt.biases[0]
        want = want.tobytes()
        before = h.tobytes()
        assert forward_layer(ckpt, 0, h).tobytes() == want
        assert h.tobytes() == before
        out = np.full_like(h, np.nan)
        assert forward_layer(ckpt, 0, h, out) is out
        assert out.tobytes() == want
        assert forward_layer(ckpt, 0, h, h) is h
        assert h.tobytes() == want


def test_forward_over_its_input_copies_one_block():
    # Written over its input, a step holds numpy's copy of one input block,
    # not of the whole input (1,000 rows go as four blocks of 250).
    ckpt = init_checkpoint([LayerSpec(64, 64)], seed=40)
    h = np.random.default_rng(41).standard_normal((1000, 1, 64))
    tracemalloc.start()
    try:
        forward_layer(ckpt, 0, h, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_bytes = model._FORWARD_BLOCK_ROWS * 64 * 8
    assert peak <= 1.1 * block_bytes, (peak / block_bytes, peak, block_bytes)


def test_forward_into_refuses_an_output_of_another_shape():
    ckpt = init_checkpoint([LayerSpec(4, 3)], seed=39)
    h = np.zeros((2, 5, 4))
    with pytest.raises(DimensionError, match="layer 0: out must be"):
        forward_layer(ckpt, 0, h, h)


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


def test_apply_overflow_raises_non_finite():
    base = small_checkpoint(widths=(2, 2), seed=9)
    tv = TaskVector(deltas=[np.full((2, 2), 20.0)], bias_deltas=[np.ones(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="layer 0 weights"):
            apply_update(base, tv, 1e308)
    assert np.all(np.isfinite(base.weights[0]))


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


def test_checkpoint_writer_holds_no_array_twice(tmp_path):
    # The arrays are written one at a time; joining every array's bytes
    # before the write peaked at twice their total.
    ckpt = init_checkpoint([LayerSpec(128, 128, has_bias=True, activation="relu")] * 4, seed=36)
    array_bytes = sum(w.nbytes + b.nbytes for w, b in zip(ckpt.weights, ckpt.biases))
    path = tmp_path / "c.tpk"
    tracemalloc.start()
    try:
        save_checkpoint(ckpt, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * array_bytes, (peak / array_bytes, peak, array_bytes)
    assert_checkpoint_equal(load_checkpoint(path), ckpt, bitwise=True)


def test_checkpoint_writer_refuses_layers_the_header_does_not_declare(tmp_path):
    # A stream written layer by layer must match its header, or the file
    # would not read back.
    ckpt = small_checkpoint(widths=(3, 4, 2), seed=12)
    cases = {
        "one more": list(zip(ckpt.weights, ckpt.biases)) + [(ckpt.weights[1], ckpt.biases[1])],
        "transposed": [(ckpt.weights[0].T, ckpt.biases[0])],
        "bias missing": [(ckpt.weights[0], None)],
        "one missing": [(ckpt.weights[0], ckpt.biases[0])],
    }
    for name, layers in cases.items():
        with open(tmp_path / "c.tpk", "wb") as f, pytest.raises(DimensionError):
            writer = model.CheckpointWriter(f, ckpt.layer_specs)
            for w, b in layers:
                writer.layer(w, b)
            writer.finish({})
            pytest.fail(f"wrote {name}")


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


def test_loaded_arrays_are_copied_once_and_own_their_memory(tmp_path):
    # The reader cuts each array from a view of the file and copies it once,
    # so the traced peak is the file and its arrays, about twice the file; a
    # second copy of each array would add the larger side again (2.5 here).
    rng = np.random.default_rng(34)
    a, b = rng.standard_normal((64, 16, 32)), rng.standard_normal((64, 16, 32))
    path = tmp_path / "cal.tpc"
    save_calibration(a, b, path)
    tracemalloc.start()
    try:
        loaded = load_calibration(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * path.stat().st_size, (peak, path.stat().st_size)
    ckpt_path = tmp_path / "ckpt.tpk"
    save_checkpoint(init_checkpoint([LayerSpec(3, 4, has_bias=True, activation="relu")], seed=35), ckpt_path)
    ckpt = load_checkpoint(ckpt_path)
    for got in (*loaded, *ckpt.weights, *ckpt.biases):
        assert got.flags.owndata and got.flags.writeable
    for got, want in zip(loaded, (a, b)):
        assert got.tobytes() == want.tobytes()


def test_files_are_read_straight_into_their_arrays(tmp_path):
    # Each array is read into its own new array, with no copy of the file
    # beside it: the traced peak is about the file's size. Reading the file
    # whole and copying each array out of it peaked at about twice that.
    rng = np.random.default_rng(37)
    calib = tmp_path / "cal.tpc"
    save_calibration(rng.standard_normal((64, 16, 32)), rng.standard_normal((64, 16, 32)), calib)
    ckpt = tmp_path / "ckpt.tpk"
    save_checkpoint(init_checkpoint([LayerSpec(128, 128, has_bias=True, activation="relu")] * 4, seed=38), ckpt)
    for load, path in ((load_calibration, calib), (load_checkpoint, ckpt)):
        tracemalloc.start()
        try:
            load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * path.stat().st_size, (load.__name__, peak, path.stat().st_size)


def test_reader_closes_its_file_on_every_path(tmp_path):
    bad = tmp_path / "bad.tpk"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    good = tmp_path / "good.tpk"
    save_checkpoint(small_checkpoint(seed=0), good)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(FormatError):
            load_checkpoint(bad)
        load_checkpoint(good)
        with pytest.raises(FormatError):
            CheckpointReader(bad)
        with CheckpointReader(good) as reader, pytest.raises(RuntimeError):
            reader.layer(0)
            raise RuntimeError("the block fails")
        gc.collect()


@st.composite
def mutated_checkpoints(draw):
    """A small TPK1 file with a few header, tail or payload bytes flipped,
    its tail cut off, or bytes appended."""
    ckpt = small_checkpoint(widths=(3, 4, 2), seed=draw(st.integers(0, 3)))
    f = io.BytesIO()
    writer = model.CheckpointWriter(f, ckpt.layer_specs)
    for w, b in zip(ckpt.weights, ckpt.biases):
        writer.layer(w, b)
    writer.finish({"task": "demo"})
    data = f.getvalue()
    kind = draw(st.sampled_from(["flip", "truncate", "append"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "append":
        return data + draw(st.binary(min_size=1, max_size=16))
    end = len(data) - 1
    pos = st.integers(4, 27) | st.integers(end - 23, end) | st.integers(0, end)
    out = bytearray(data)
    for p, mask in draw(st.lists(st.tuples(pos, st.integers(1, 255)), min_size=1, max_size=4)):
        out[p] ^= mask
    return bytes(out)


@given(mutated_checkpoints())
def test_reader_refuses_at_open_what_load_checkpoint_refuses(data):
    # Opening checks the whole layout; only the arrays' values wait for
    # ``layer``, which refuses a non-finite layer as loading does.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.tpk"
        path.write_bytes(data)
        try:
            want = load_checkpoint(path)
        except NonFiniteError as exc:
            with CheckpointReader(path) as reader:
                with pytest.raises(NonFiniteError, match=re.escape(str(exc))):
                    for idx in range(reader.depth):
                        reader.layer(idx)
            return
        except TaskportError as exc:
            with pytest.raises(type(exc)) as err:
                CheckpointReader(path)
            assert err.value.kind == exc.kind and str(err.value) == str(exc)
            return
        with CheckpointReader(path) as reader:
            assert reader.layer_specs == want.layer_specs and reader.meta == want.meta
            got = [reader.layer(idx) for idx in range(reader.depth)]
    assert_checkpoint_equal(Checkpoint(want.layer_specs, [w for w, _ in got], [b for _, b in got]), want)


def test_calibration_rejects_unpaired_counts(tmp_path):
    with pytest.raises(DimensionError, match="pair"):
        save_calibration(np.zeros((3, 2, 2)), np.zeros((4, 2, 2)), tmp_path / "x.tpc")


@st.composite
def calibration_pairs(draw):
    """Two (N, L, d) sides; either may have an empty axis, a NaN or Inf entry,
    or a sequence count of its own."""
    sides = []
    n = draw(st.integers(0, 3))
    for _ in range(2):
        shape = (draw(st.sampled_from([n, n + 1])), draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        side = np.arange(np.prod(shape), dtype=np.float64).reshape(shape) - 2.5
        if side.size and draw(st.booleans()):
            side.flat[draw(st.integers(0, side.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        sides.append(side)
    return sides


def _reader_refusal(a, b, path):
    """What ``load_calibration`` raises on the pair written raw, field by
    field as the TPC1 layout says; None when it reads the pair."""
    header = struct.pack("<4sIIIII", b"TPC1", a.shape[0], *a.shape[1:], *b.shape[1:])
    path.write_bytes(header + a.astype("<f8").tobytes() + b.astype("<f8").tobytes())
    try:
        load_calibration(path)
    except TaskportError as exc:
        return exc
    return None


@given(calibration_pairs())
def test_calibration_writer_refuses_what_the_reader_refuses(pair):
    a, b = pair
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cal.tpc"
        try:
            save_calibration(a, b, path)
        except TaskportError as exc:
            assert not path.exists()
            refused = exc
        else:
            got_a, got_b = load_calibration(path)
            assert got_a.tobytes() == a.tobytes() and got_a.shape == a.shape
            assert got_b.tobytes() == b.tobytes() and got_b.shape == b.shape
            return
        if a.shape[0] != b.shape[0]:  # TPC1 holds one sequence count
            assert isinstance(refused, DimensionError)
            return
        reader = _reader_refusal(a, b, Path(tmp) / "raw.tpc")
    # An empty axis: the reader refuses the header by the writer's shape rule.
    kind = DimensionError if min(a.shape + b.shape) == 0 else NonFiniteError
    assert type(refused) is type(reader) is kind and str(refused) == str(reader)


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

"""Token-sequence dense networks: layer specs, checkpoints, forward passes with
activation capture, task-vector arithmetic, and binary serialization.

A model is a stack of dense layers applied tokenwise to inputs of shape
(n_sequences, n_tokens, d_in). Weights are stored (d_out, d_in) so a layer
computes ``h_out = h_in @ w.T (+ bias)``; the recorded ``h_out`` is always the
pre-nonlinearity value.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, FormatError
from .linalg import as_batch, as_matrix, as_vector, require_batch_shape, require_finite

__all__ = [
    "ACTIVATIONS",
    "LayerSpec",
    "Checkpoint",
    "TaskVector",
    "ActivationRecord",
    "forward_inputs",
    "forward_layer",
    "activate",
    "forward_collect",
    "task_vector",
    "apply_layer",
    "apply_update",
    "layer_delta",
    "init_checkpoint",
    "CheckpointReader",
    "CheckpointWriter",
    "save_checkpoint",
    "load_checkpoint",
    "save_calibration",
    "load_calibration",
    "calibration_shapes",
]

ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class LayerSpec:
    d_in: int
    d_out: int
    has_bias: bool = True
    activation: str = "identity"

    def __post_init__(self):
        if self.d_in < 1 or self.d_out < 1:
            raise DimensionError(f"layer dims must be positive, got ({self.d_in}, {self.d_out})")
        if not isinstance(self.has_bias, bool):
            # Catches LayerSpec(d_in, d_out, "relu"): a string is truthy, so the
            # mistake would otherwise pass silently with an identity activation.
            raise DimensionError(f"has_bias must be a bool, got {self.has_bias!r}")
        if self.activation not in ACTIVATIONS:
            raise DimensionError(
                f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}"
            )


def _checked_layer(idx: int, spec: LayerSpec, w, b):
    """Layer ``idx``'s (weights, bias or None) checked against ``spec``:
    shapes, the bias present exactly where the spec has one, finite."""
    w = as_matrix(w, f"layer {idx} weights")
    if w.shape != (spec.d_out, spec.d_in):
        raise DimensionError(
            f"layer {idx}: weight shape {w.shape} does not match spec "
            f"({spec.d_out}, {spec.d_in})"
        )
    if spec.has_bias:
        if b is None:
            raise DimensionError(f"layer {idx}: spec has a bias but none was given")
        b = as_vector(b, spec.d_out, f"layer {idx} bias")
    elif b is not None:
        raise DimensionError(f"layer {idx}: spec has no bias but one was given")
    return w, b


def _require_chained(layer_specs) -> None:
    for idx in range(len(layer_specs) - 1):
        if layer_specs[idx].d_out != layer_specs[idx + 1].d_in:
            raise DimensionError(
                f"layers {idx} and {idx + 1} do not chain: "
                f"d_out {layer_specs[idx].d_out} vs d_in {layer_specs[idx + 1].d_in}"
            )


@dataclass
class Checkpoint:
    """Weights, optional biases, and free-form string metadata for a layer stack.

    Consecutive layers must chain: d_out of layer l equals d_in of layer l+1.
    """

    layer_specs: list[LayerSpec]
    weights: list[np.ndarray]
    biases: list[np.ndarray | None]
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.weights) != len(self.layer_specs) or len(self.biases) != len(self.layer_specs):
            raise DimensionError(
                f"got {len(self.layer_specs)} specs, {len(self.weights)} weight blocks, "
                f"{len(self.biases)} bias slots; counts must agree"
            )
        for idx, (spec, w, b) in enumerate(zip(self.layer_specs, self.weights, self.biases)):
            self.weights[idx], self.biases[idx] = _checked_layer(idx, spec, w, b)
        _require_chained(self.layer_specs)

    @property
    def depth(self) -> int:
        return len(self.layer_specs)

    def layer(self, idx: int):
        """Layer ``idx``'s (weights, bias or None): the arrays held, not copies."""
        return self.weights[idx], self.biases[idx]

    def copy(self) -> "Checkpoint":
        return Checkpoint(
            layer_specs=list(self.layer_specs),
            weights=[w.copy() for w in self.weights],
            biases=[None if b is None else b.copy() for b in self.biases],
            meta=dict(self.meta),
        )


def _checked_update(idx: int, delta, bias_delta):
    """Layer ``idx``'s (delta, bias delta or None) as finite float64 arrays, 2-D and 1-D."""
    delta = as_matrix(delta, f"delta {idx}")
    if bias_delta is not None:
        bias_delta = np.asarray(bias_delta, dtype=np.float64)
        if bias_delta.ndim != 1:
            raise DimensionError(f"bias delta {idx} must be 1-D, got shape {bias_delta.shape}")
        require_finite(bias_delta, f"bias delta {idx}")
    return delta, bias_delta


@dataclass
class TaskVector:
    """Per-layer weight deltas (and bias deltas where the layer has a bias)."""

    deltas: list[np.ndarray]
    bias_deltas: list[np.ndarray | None]

    def __post_init__(self):
        if len(self.deltas) != len(self.bias_deltas):
            raise DimensionError(
                f"{len(self.deltas)} weight deltas vs {len(self.bias_deltas)} bias slots"
            )
        for idx, layer in enumerate(zip(self.deltas, self.bias_deltas)):
            self.deltas[idx], self.bias_deltas[idx] = _checked_update(idx, *layer)

    def take(self, idx: int):
        """Layer ``idx``'s (delta, bias delta or None), dropped from the
        vector: the form of update ``transport_layers`` takes."""
        layer = self.deltas[idx], self.bias_deltas[idx]
        self.deltas[idx] = self.bias_deltas[idx] = None
        return layer

    def norm(self) -> float:
        """Frobenius norm over all deltas, biases included."""
        total = sum(float(np.sum(d * d)) for d in self.deltas)
        total += sum(float(np.sum(b * b)) for b in self.bias_deltas if b is not None)
        return float(np.sqrt(total))


@dataclass
class ActivationRecord:
    """Input/output activations of one layer on a calibration batch.

    ``h_in`` is (N, L, d_in); ``h_out`` is (N, L, d_out) and is captured before
    the nonlinearity, so ``h_out == h_in @ w.T (+ bias)`` exactly.
    """

    h_in: np.ndarray
    h_out: np.ndarray


def forward_inputs(ckpt, inputs) -> np.ndarray:
    """``inputs`` checked as a finite (N, L, d_in) float64 batch for the
    stack's first layer."""
    if not ckpt.layer_specs:
        raise DimensionError("cannot run a forward pass on an empty checkpoint")
    x = as_batch(inputs, "inputs")
    d_in = ckpt.layer_specs[0].d_in
    if x.shape[2] != d_in:
        raise DimensionError(f"inputs have {x.shape[2]} features, layer 0 expects {d_in}")
    return require_finite(x, "inputs")


# Rows per block of a forward step written over its own input: numpy copies
# one input block at a time, about 1.5 MB at width 768.
_FORWARD_BLOCK_ROWS = 256


def forward_layer(ckpt, idx: int, h: np.ndarray, out=None) -> np.ndarray:
    """Pre-activation output (N, L, d_out) of layer ``idx`` on its (N, L, d_in) input.

    ``ckpt`` is a ``Checkpoint`` or an open ``CheckpointReader``: the
    layer's weights are reached through ``ckpt.layer(idx)`` once the shapes
    are checked, so a reader reads them from its file here. The output is
    written into ``out``, a C-contiguous float64 (N, L, d_out) array, when
    given, else into a new array, which is returned. ``out`` may be ``h`` itself on a square layer: there the rows
    go block by block, and numpy copies each input block before its product
    overwrites it, so one block is the only temporary. The blocks keep the
    single product's bits, which a test pins.
    """
    spec = ckpt.layer_specs[idx]
    n, l = h.shape[0], h.shape[1]
    if h.shape[2] != spec.d_in:
        raise DimensionError(f"layer {idx}: got {h.shape[2]} input features, expected {spec.d_in}")
    if out is None:
        out = np.empty((n, l, spec.d_out))
    elif out.shape != (n, l, spec.d_out) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise DimensionError(f"layer {idx}: out must be a C-contiguous float64 array of shape "
                             f"{(n, l, spec.d_out)}, got {out.dtype} {out.shape}")
    w, b = ckpt.layer(idx)
    rows = n * l
    x, z = h.reshape(rows, spec.d_in), out.reshape(rows, spec.d_out)
    # Blocks only over its own input, so numpy's overlap copy is one block,
    # of equal size to a row: BLAS sums a product of a few rows in another
    # order (one row is a gemv), so a short last block would move its bits.
    # With more rows than one block, each has at least half.
    count = -(-rows // _FORWARD_BLOCK_ROWS) if np.may_share_memory(out, h) else 1
    bounds = [rows * k // count for k in range(count + 1)]
    # Overflow gives non-finite activations, which transport rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in zip(bounds, bounds[1:]):
            np.matmul(x[start:stop], w.T, out=z[start:stop])
            if b is not None:
                z[start:stop] += b
    return out


def activate(spec: LayerSpec, z: np.ndarray, out=None) -> np.ndarray:
    """A layer's nonlinearity applied to its pre-activation output; ReLU
    writes into ``out`` when given (z itself, by a caller that alone holds z)."""
    return np.maximum(z, 0.0, out=out) if spec.activation == "relu" else z


def forward_collect(ckpt: Checkpoint, inputs) -> tuple[np.ndarray, list[ActivationRecord]]:
    """Run the stack on (N, L, d_in) inputs, recording every layer's activations.

    Returns the post-activation output of the last layer and one
    ActivationRecord per layer.
    """
    h = forward_inputs(ckpt, inputs)
    records = []
    for idx, spec in enumerate(ckpt.layer_specs):
        z = forward_layer(ckpt, idx, h)
        records.append(ActivationRecord(h_in=h, h_out=z))
        h = activate(spec, z)
    return h, records


def task_vector(base: Checkpoint, finetuned: Checkpoint, *, overwrite: bool = False) -> TaskVector:
    """Difference finetuned - base, layer by layer.

    With ``overwrite``, each delta is written over finetuned's own array, with
    the same bits, for a caller that gives finetuned up: the update then
    replaces the fine-tuned checkpoint instead of sitting beside it. Each of
    finetuned's arrays must then be its own, not shared between layers.
    """
    if base.layer_specs != finetuned.layer_specs:
        raise DimensionError("base and finetuned checkpoints have different layer specs")

    def delta(b, f):
        return np.subtract(f, b, out=f if overwrite else None)

    deltas = [delta(wb, wf) for wb, wf in zip(base.weights, finetuned.weights)]
    bias_deltas = [None if bb is None else delta(bb, bf) for bb, bf in zip(base.biases, finetuned.biases)]
    return TaskVector(deltas=deltas, bias_deltas=bias_deltas)


def layer_delta(base, finetuned, idx: int):
    """Layer ``idx`` of the update ``finetuned - base``, (delta, bias delta
    or None), checked as ``TaskVector`` checks it and with ``task_vector``'s
    bits. Each delta is written over the array ``finetuned.layer(idx)``
    returns, which must be the caller's to give up: a ``CheckpointReader``'s
    new arrays. The caller checks that the two stacks' specs agree."""
    (w, b), (w_ft, b_ft) = base.layer(idx), finetuned.layer(idx)
    with np.errstate(over="ignore", invalid="ignore"):  # the checks reject overflow
        delta = np.subtract(w_ft, w, out=w_ft)
        bias_delta = None if b is None else np.subtract(b_ft, b, out=b_ft)
    return _checked_update(idx, delta, bias_delta)


def apply_layer(base, idx: int, delta, bias_delta, alpha: float):
    """Layer ``idx`` of ``base + alpha * update``, given its weight delta and
    bias delta (None for none): the (weights, bias or None) pair. ``base``
    is a ``Checkpoint`` or an open ``CheckpointReader``, whose layer is read
    through ``base.layer(idx)`` once the shapes are checked.

    alpha = 0 copies the base layer exactly, not a sum with zero, so a
    ``-0.0`` weight stays ``-0.0``. A sum that overflows raises
    ``NonFiniteError``, as the ``Checkpoint`` constructor would.
    """
    spec = base.layer_specs[idx]
    if delta.shape != (spec.d_out, spec.d_in):
        raise DimensionError(
            f"layer {idx}: delta shape {delta.shape} does not match ({spec.d_out}, {spec.d_in})"
        )
    if bias_delta is not None and not spec.has_bias:
        raise DimensionError(f"layer {idx}: bias delta given but the layer has no bias")
    if bias_delta is not None and bias_delta.shape != (spec.d_out,):
        raise DimensionError(
            f"layer {idx}: bias delta shape {bias_delta.shape} does not match ({spec.d_out},)"
        )
    w, b = base.layer(idx)
    if alpha == 0.0:
        w, b = w.copy(), None if b is None else b.copy()
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # the checks below reject overflow
            step = alpha * delta
            w = np.add(w, step, out=step)  # into the product's array: one temporary fewer
            b = None if b is None else (b.copy() if bias_delta is None else b + alpha * bias_delta)
    w = as_matrix(w, f"layer {idx} weights")
    return w, None if b is None else as_vector(b, spec.d_out, f"layer {idx} bias")


def apply_update(base: Checkpoint, update: TaskVector, alpha: float) -> Checkpoint:
    """Return ``base + alpha * update``, layer by layer by ``apply_layer``;
    alpha is recorded in the result's meta."""
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise DimensionError(f"alpha must be finite, got {alpha}")
    if len(update.deltas) != base.depth:
        raise DimensionError(
            f"update has {len(update.deltas)} layers, checkpoint has {base.depth}"
        )
    layers = [apply_layer(base, idx, d, bd, alpha)
              for idx, (d, bd) in enumerate(zip(update.deltas, update.bias_deltas))]
    return Checkpoint(list(base.layer_specs), [w for w, _ in layers], [b for _, b in layers],
                      {**base.meta, "alpha": repr(alpha)})


def init_checkpoint(layer_specs, seed) -> Checkpoint:
    """Seeded Gaussian init, scaled by 1/sqrt(d_in) per layer."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for spec in layer_specs:
        weights.append(1.0 / np.sqrt(spec.d_in) * rng.standard_normal((spec.d_out, spec.d_in)))
        biases.append(np.zeros(spec.d_out) if spec.has_bias else None)
    return Checkpoint(layer_specs=list(layer_specs), weights=weights, biases=biases)


# ---------------------------------------------------------------------------
# Binary formats. Everything is little-endian; floats are IEEE f64.
#
# checkpoint  "TPK1" | u32 layer_count | per layer: u32 d_in, u32 d_out,
#             u8 has_bias, u8 activation (0=relu, 1=identity) | per layer:
#             d_out*d_in f64 row-major weights, then d_out f64 bias if present |
#             u32 meta_count | per entry: u32 len, utf-8 key, u32 len, utf-8 value
# calibration "TPC1" | u32 N, L_a, d_a, L_b, d_b | f64 inputs_a | f64 inputs_b
# ---------------------------------------------------------------------------

_MAGIC_CHECKPOINT = b"TPK1"
_MAGIC_CALIBRATION = b"TPC1"
_ACTIVATION_CODE = {"relu": 0, "identity": 1}
_ACTIVATION_NAME = {v: k for k, v in _ACTIVATION_CODE.items()}


class _Reader:
    """A binary file read field by field, as a context manager that closes
    it: header fields by small reads, each array by ``readinto`` straight
    into a new array of its own. Every length is checked against the file's
    size before anything is read or allocated."""

    def __init__(self, path):
        self.path = str(path)
        self.f = open(path, "rb")
        self.size = os.fstat(self.f.fileno()).st_size
        self.pos = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def seek(self, pos: int) -> None:
        self.f.seek(pos)
        self.pos = pos

    def skip(self, n: int) -> None:
        """Step over ``n`` bytes the file must hold, reading none of them."""
        self._claim(n)
        self.f.seek(self.pos)

    def _claim(self, n: int) -> None:
        if self.pos + n > self.size:
            raise FormatError(
                f"{self.path}: truncated, wanted {n} bytes at offset {self.pos}, "
                f"file has {self.size}",
                kind="truncated",
            )
        self.pos += n

    def _short(self, n: int, got: int):
        # The file shrank after its size was read.
        return FormatError(f"{self.path}: truncated, wanted {n} bytes, read {got}", kind="truncated")

    def take(self, n: int) -> bytes:
        self._claim(n)
        data = self.f.read(n)
        if len(data) != n:
            raise self._short(n, len(data))
        return data

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64_array(self, shape) -> np.ndarray:
        # Python ints, so huge header dims cannot wrap before the length check.
        n = 8 * math.prod(shape)
        self._claim(n)
        out = np.empty(shape, dtype="<f8")
        got = self.f.readinto(out)
        if got != n:
            raise self._short(n, got)
        return out.astype(np.float64, copy=False)

    def expect_magic(self, magic: bytes, what: str):
        got = self.take(4)
        if got != magic:
            raise FormatError(
                f"{self.path}: bad magic {got!r}, expected {magic!r} ({what})",
                kind="bad_magic",
            )

    def done(self):
        if self.pos != self.size:
            raise FormatError(
                f"{self.path}: {self.size - self.pos} trailing bytes after payload",
                kind="bad_format",
            )


def _f64(a: np.ndarray) -> np.ndarray:
    """``a`` as the little-endian f64 buffer a file takes; a copy only when
    its dtype or layout differ."""
    return np.ascontiguousarray(a, dtype="<f8")


class CheckpointWriter:
    """The one TPK1 encoder, writing to an open binary file ``f``: the header
    of ``layer_specs`` on creation, each layer's arrays as ``layer`` is given
    them, then the meta tail on ``finish``. It keeps no array, so a caller
    that makes each layer just before writing it holds one layer at a time."""

    def __init__(self, f, layer_specs):
        self.f, self.specs, self.written = f, list(layer_specs), 0
        head = [_MAGIC_CHECKPOINT, struct.pack("<I", len(self.specs))]
        for spec in self.specs:
            head.append(
                struct.pack(
                    "<IIBB", spec.d_in, spec.d_out, int(spec.has_bias), _ACTIVATION_CODE[spec.activation]
                )
            )
        f.write(b"".join(head))

    def layer(self, weights: np.ndarray, bias: np.ndarray | None) -> None:
        """Write the next layer's weights and bias (None where it has none)."""
        idx = self.written
        if idx == len(self.specs):
            raise DimensionError(f"the header declares {idx} layers, got one more")
        spec = self.specs[idx]
        if weights.shape != (spec.d_out, spec.d_in) or (bias is not None) != spec.has_bias or (
                bias is not None and bias.shape != (spec.d_out,)):
            raise DimensionError(f"layer {idx}: arrays of shapes {weights.shape} and "
                                 f"{None if bias is None else bias.shape} do not fit its spec {spec}")
        self.f.write(_f64(weights))
        if bias is not None:
            self.f.write(_f64(bias))
        self.written += 1

    def finish(self, meta: dict) -> None:
        """Write the meta tail once every declared layer is written."""
        if self.written != len(self.specs):
            raise DimensionError(f"the header declares {len(self.specs)} layers, {self.written} written")
        items = sorted(meta.items())
        tail = [struct.pack("<I", len(items))]
        for key, value in items:
            kb, vb = key.encode("utf-8"), str(value).encode("utf-8")
            tail.append(struct.pack("<I", len(kb)) + kb + struct.pack("<I", len(vb)) + vb)
        self.f.write(b"".join(tail))


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` as TPK1 through ``CheckpointWriter``, one array at a
    time, none held twice."""
    with open(path, "wb") as f:
        writer = CheckpointWriter(f, ckpt.layer_specs)
        for w, b in zip(ckpt.weights, ckpt.biases):
            writer.layer(w, b)
        writer.finish(ckpt.meta)


class CheckpointReader:
    """The one TPK1 decoder, a context manager that closes its file.

    Opening checks the whole layout but not the arrays' values: the magic,
    each layer spec, that the layers chain, every declared array length
    against the file's size, the meta tail, and that no bytes trail it.
    ``layer(idx)`` then reads that layer's weights and bias straight into
    new arrays, checked as ``Checkpoint`` checks them, so a reader stands
    in for a loaded checkpoint wherever weights are reached through
    ``layer``: ``forward_layer``, ``apply_layer``, ``layer_delta`` and
    ``transport_layers``. ``load`` reads every layer into a ``Checkpoint``.
    """

    def __init__(self, path):
        self._r = _Reader(path)
        try:
            self._read_layout()
        except BaseException:
            self.close()
            raise

    def _read_layout(self) -> None:
        r = self._r
        r.expect_magic(_MAGIC_CHECKPOINT, "checkpoint")
        specs = []
        for _ in range(r.u32()):
            d_in, d_out = r.u32(), r.u32()
            has_bias, act_code = struct.unpack("<BB", r.take(2))
            if act_code not in _ACTIVATION_NAME:
                raise FormatError(f"{r.path}: unknown activation code {act_code}", kind="bad_format")
            if has_bias not in (0, 1):
                raise FormatError(f"{r.path}: bad has_bias byte {has_bias}", kind="bad_format")
            specs.append(
                LayerSpec(d_in=d_in, d_out=d_out, has_bias=bool(has_bias), activation=_ACTIVATION_NAME[act_code])
            )
        _require_chained(specs)
        self._offsets = []
        for spec in specs:
            self._offsets.append(r.pos)
            r.skip(8 * spec.d_out * spec.d_in)
            if spec.has_bias:
                r.skip(8 * spec.d_out)
        meta = {}
        for _ in range(r.u32()):
            try:
                key = r.take(r.u32()).decode("utf-8")
                value = r.take(r.u32()).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{r.path}: meta entry is not valid utf-8: {exc}", kind="bad_format")
            meta[key] = value
        r.done()
        self.layer_specs, self.meta = specs, meta

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        self._r.f.close()

    @property
    def depth(self) -> int:
        return len(self.layer_specs)

    def _arrays(self, idx: int):
        spec = self.layer_specs[idx]
        self._r.seek(self._offsets[idx])
        w = self._r.f64_array((spec.d_out, spec.d_in))
        return w, self._r.f64_array((spec.d_out,)) if spec.has_bias else None

    def layer(self, idx: int):
        """Layer ``idx``'s (weights, bias or None), read into new arrays and
        checked finite (``layer {idx} weights``, ``layer {idx} bias``)."""
        return _checked_layer(idx, self.layer_specs[idx], *self._arrays(idx))

    def load(self) -> Checkpoint:
        """Every layer, read into a ``Checkpoint``, whose constructor checks each once."""
        layers = [self._arrays(idx) for idx in range(self.depth)]
        return Checkpoint(list(self.layer_specs), [w for w, _ in layers], [b for _, b in layers],
                          dict(self.meta))


def load_checkpoint(path) -> Checkpoint:
    """Read a whole TPK1 checkpoint: a ``CheckpointReader`` and every layer."""
    with CheckpointReader(path) as reader:
        return reader.load()


def save_calibration(inputs_a, inputs_b, path) -> None:
    """Write paired calibration inputs, the same N samples in each model's input
    space; refuses, before creating the file, what ``load_calibration`` refuses."""
    a = as_batch(inputs_a, "inputs_a")
    b = as_batch(inputs_b, "inputs_b")
    if a.shape[0] != b.shape[0]:
        raise DimensionError(
            f"calibration sides pair the same samples, got {a.shape[0]} vs {b.shape[0]} sequences"
        )
    require_finite(a, "inputs_a")
    require_finite(b, "inputs_b")
    with open(path, "wb") as f:
        f.write(_MAGIC_CALIBRATION)
        f.write(struct.pack("<IIIII", a.shape[0], a.shape[1], a.shape[2], b.shape[1], b.shape[2]))
        f.write(_f64(a))
        f.write(_f64(b))


def _calibration_header(r: _Reader):
    """The two (N, L, d) shapes a TPC1 header declares, checked by the
    writer's shape rule before any entry is read."""
    r.expect_magic(_MAGIC_CALIBRATION, "calibration file")
    n, l_a, d_a, l_b, d_b = (r.u32() for _ in range(5))
    return require_batch_shape((n, l_a, d_a), "inputs_a"), require_batch_shape((n, l_b, d_b), "inputs_b")


def calibration_shapes(path):
    """The two (N, L, d) shapes of a TPC1 file, checked as ``load_calibration``
    checks its layout (the header's shape rule, the arrays' length against
    the file's size, no trailing bytes) without reading an array."""
    with _Reader(path) as r:
        shapes = _calibration_header(r)
        for shape in shapes:
            r.skip(8 * math.prod(shape))
        r.done()
    return shapes


def load_calibration(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a TPC1 calibration pair, each side straight into its own array."""
    with _Reader(path) as r:
        a, b = (r.f64_array(shape) for shape in _calibration_header(r))
        r.done()
    require_finite(a, "inputs_a")
    require_finite(b, "inputs_b")
    return a, b

"""Token-sequence dense networks: layer specs, checkpoints, forward passes with
activation capture, task-vector arithmetic, and binary serialization.

A model is a stack of dense layers applied tokenwise to inputs of shape
(n_sequences, n_tokens, d_in). Weights are stored (d_out, d_in) so a layer
computes ``h_out = h_in @ w.T (+ bias)``; the recorded ``h_out`` is always the
pre-nonlinearity value.
"""

from __future__ import annotations

import math
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
    "apply_update",
    "init_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "save_calibration",
    "load_calibration",
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
            w = as_matrix(w, f"layer {idx} weights")
            if w.shape != (spec.d_out, spec.d_in):
                raise DimensionError(
                    f"layer {idx}: weight shape {w.shape} does not match spec "
                    f"({spec.d_out}, {spec.d_in})"
                )
            self.weights[idx] = w
            if spec.has_bias:
                if b is None:
                    raise DimensionError(f"layer {idx}: spec has a bias but none was given")
                self.biases[idx] = as_vector(b, spec.d_out, f"layer {idx} bias")
            elif b is not None:
                raise DimensionError(f"layer {idx}: spec has no bias but one was given")
        for idx in range(len(self.layer_specs) - 1):
            if self.layer_specs[idx].d_out != self.layer_specs[idx + 1].d_in:
                raise DimensionError(
                    f"layers {idx} and {idx + 1} do not chain: "
                    f"d_out {self.layer_specs[idx].d_out} vs d_in {self.layer_specs[idx + 1].d_in}"
                )

    @property
    def depth(self) -> int:
        return len(self.layer_specs)

    def copy(self) -> "Checkpoint":
        return Checkpoint(
            layer_specs=list(self.layer_specs),
            weights=[w.copy() for w in self.weights],
            biases=[None if b is None else b.copy() for b in self.biases],
            meta=dict(self.meta),
        )


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
        for idx, d in enumerate(self.deltas):
            self.deltas[idx] = as_matrix(d, f"delta {idx}")
        for idx, b in enumerate(self.bias_deltas):
            if b is None:
                continue
            b = np.asarray(b, dtype=np.float64)
            if b.ndim != 1:
                raise DimensionError(f"bias delta {idx} must be 1-D, got shape {b.shape}")
            require_finite(b, f"bias delta {idx}")
            self.bias_deltas[idx] = b

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


def forward_inputs(ckpt: Checkpoint, inputs) -> np.ndarray:
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


def forward_layer(ckpt: Checkpoint, idx: int, h: np.ndarray, out=None) -> np.ndarray:
    """Pre-activation output (N, L, d_out) of layer ``idx`` on its (N, L, d_in) input.

    The output is written into ``out``, a C-contiguous float64
    (N, L, d_out) array, when given, else into a new array, which is
    returned. ``out`` may be ``h`` itself on a square layer: there the rows
    go block by block, and numpy copies each input block before its product
    overwrites it, so one block is the only temporary. The blocks keep the
    single product's bits, which a test pins.
    """
    spec, w, b = ckpt.layer_specs[idx], ckpt.weights[idx], ckpt.biases[idx]
    n, l = h.shape[0], h.shape[1]
    if h.shape[2] != spec.d_in:
        raise DimensionError(f"layer {idx}: got {h.shape[2]} input features, expected {spec.d_in}")
    if out is None:
        out = np.empty((n, l, spec.d_out))
    elif out.shape != (n, l, spec.d_out) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise DimensionError(f"layer {idx}: out must be a C-contiguous float64 array of shape "
                             f"{(n, l, spec.d_out)}, got {out.dtype} {out.shape}")
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


def task_vector(base: Checkpoint, finetuned: Checkpoint) -> TaskVector:
    """Difference finetuned - base, layer by layer."""
    if base.layer_specs != finetuned.layer_specs:
        raise DimensionError("base and finetuned checkpoints have different layer specs")
    deltas = [wf - wb for wb, wf in zip(base.weights, finetuned.weights)]
    bias_deltas = [
        None if bb is None else bf - bb for bb, bf in zip(base.biases, finetuned.biases)
    ]
    return TaskVector(deltas=deltas, bias_deltas=bias_deltas)


def apply_update(base: Checkpoint, update: TaskVector, alpha: float) -> Checkpoint:
    """Return ``base + alpha * update``; alpha is recorded in the result's meta.

    alpha = 0 returns an exact copy of the base weights, not a sum with zero.
    A sum that overflows raises ``NonFiniteError``, like any checkpoint built
    with non-finite weights.
    """
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise DimensionError(f"alpha must be finite, got {alpha}")
    if len(update.deltas) != base.depth:
        raise DimensionError(
            f"update has {len(update.deltas)} layers, checkpoint has {base.depth}"
        )
    for idx, (spec, d, bd) in enumerate(zip(base.layer_specs, update.deltas, update.bias_deltas)):
        if d.shape != (spec.d_out, spec.d_in):
            raise DimensionError(
                f"layer {idx}: delta shape {d.shape} does not match ({spec.d_out}, {spec.d_in})"
            )
        if bd is not None and not spec.has_bias:
            raise DimensionError(f"layer {idx}: bias delta given but the layer has no bias")
        if bd is not None and bd.shape != (spec.d_out,):
            raise DimensionError(
                f"layer {idx}: bias delta shape {bd.shape} does not match ({spec.d_out},)"
            )
    if alpha == 0.0:
        out = base.copy()
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # the constructor rejects overflow
            weights = [w + alpha * d for w, d in zip(base.weights, update.deltas)]
            biases = [None if b is None else (b.copy() if bd is None else b + alpha * bd)
                      for b, bd in zip(base.biases, update.bias_deltas)]
        out = Checkpoint(list(base.layer_specs), weights, biases, dict(base.meta))
    out.meta["alpha"] = repr(alpha)
    return out


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
    def __init__(self, path):
        self.path = str(path)
        with open(path, "rb") as f:
            # A view: an array is cut from it without a copy, then copied once.
            self.buf = memoryview(f.read())
        self.pos = 0

    def view(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise FormatError(
                f"{self.path}: truncated, wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.buf)}",
                kind="truncated",
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def take(self, n: int) -> bytes:
        return bytes(self.view(n))

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64_array(self, shape) -> np.ndarray:
        # Python ints, so huge header dims cannot wrap before view() checks the length.
        count = math.prod(shape)
        return np.frombuffer(self.view(8 * count), dtype="<f8").reshape(shape).astype(np.float64)

    def expect_magic(self, magic: bytes, what: str):
        got = self.take(4)
        if got != magic:
            raise FormatError(
                f"{self.path}: bad magic {got!r}, expected {magic!r} ({what})",
                kind="bad_magic",
            )

    def done(self):
        if self.pos != len(self.buf):
            raise FormatError(
                f"{self.path}: {len(self.buf) - self.pos} trailing bytes after payload",
                kind="bad_format",
            )


def _f64(a: np.ndarray) -> np.ndarray:
    """``a`` as the little-endian f64 buffer a file takes; a copy only when
    its dtype or layout differ."""
    return np.ascontiguousarray(a, dtype="<f8")


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` as TPK1. The header and metadata are encoded before the
    file is opened; the arrays are written one at a time, none held twice."""
    head = [_MAGIC_CHECKPOINT, struct.pack("<I", ckpt.depth)]
    for spec in ckpt.layer_specs:
        head.append(
            struct.pack(
                "<IIBB", spec.d_in, spec.d_out, int(spec.has_bias), _ACTIVATION_CODE[spec.activation]
            )
        )
    items = sorted(ckpt.meta.items())
    tail = [struct.pack("<I", len(items))]
    for key, value in items:
        kb, vb = key.encode("utf-8"), str(value).encode("utf-8")
        tail.append(struct.pack("<I", len(kb)) + kb + struct.pack("<I", len(vb)) + vb)
    with open(path, "wb") as f:
        f.write(b"".join(head))
        for w, b in zip(ckpt.weights, ckpt.biases):
            f.write(_f64(w))
            if b is not None:
                f.write(_f64(b))
        f.write(b"".join(tail))


def load_checkpoint(path) -> Checkpoint:
    r = _Reader(path)
    r.expect_magic(_MAGIC_CHECKPOINT, "checkpoint")
    depth = r.u32()
    specs = []
    for _ in range(depth):
        d_in, d_out = r.u32(), r.u32()
        has_bias, act_code = struct.unpack("<BB", r.take(2))
        if act_code not in _ACTIVATION_NAME:
            raise FormatError(f"{r.path}: unknown activation code {act_code}", kind="bad_format")
        if has_bias not in (0, 1):
            raise FormatError(f"{r.path}: bad has_bias byte {has_bias}", kind="bad_format")
        specs.append(
            LayerSpec(d_in=d_in, d_out=d_out, has_bias=bool(has_bias), activation=_ACTIVATION_NAME[act_code])
        )
    weights, biases = [], []
    for spec in specs:
        weights.append(r.f64_array((spec.d_out, spec.d_in)))
        biases.append(r.f64_array((spec.d_out,)) if spec.has_bias else None)
    meta = {}
    for _ in range(r.u32()):
        try:
            key = r.take(r.u32()).decode("utf-8")
            value = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{r.path}: meta entry is not valid utf-8: {exc}", kind="bad_format")
        meta[key] = value
    r.done()
    return Checkpoint(layer_specs=specs, weights=weights, biases=biases, meta=meta)


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


def load_calibration(path) -> tuple[np.ndarray, np.ndarray]:
    r = _Reader(path)
    r.expect_magic(_MAGIC_CALIBRATION, "calibration file")
    n, l_a, d_a, l_b, d_b = (r.u32() for _ in range(5))
    # The writer's shape rule, on the header, before any entry is read.
    shapes = [require_batch_shape((n, l_a, d_a), "inputs_a"), require_batch_shape((n, l_b, d_b), "inputs_b")]
    a, b = (r.f64_array(shape) for shape in shapes)
    r.done()
    require_finite(a, "inputs_a")
    require_finite(b, "inputs_b")
    return a, b

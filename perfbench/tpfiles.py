"""Independent reader and writers for taskport's TPK1 and TPC1 files.

The benchmark writes its fixtures and reads the program's outputs with this
module, not with taskport's own loaders, so a defect in the library's I/O
cannot hide itself from the output checks, and the benchmark depends only on
the file formats, not on the library's Python API.

    TPK1 "TPK1" | u32 depth | per layer: u32 d_in, u32 d_out, u8 has_bias,
         u8 activation (0=relu, 1=identity) | per layer: f64 weights
         (d_out, d_in) row-major, then f64 bias (d_out) if present |
         u32 meta_count | per entry: u32 len, utf-8 key, u32 len, utf-8 value
    TPC1 "TPC1" | u32 N, L_a, d_a, L_b, d_b | f64 inputs_a | f64 inputs_b

Everything is little-endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

ACTIVATION_CODE = {"relu": 0, "identity": 1}
ACTIVATION_NAME = {v: k for k, v in ACTIVATION_CODE.items()}


class FormatProblem(Exception):
    """An output file that does not parse as the format it claims."""


@dataclass
class Layer:
    weight: np.ndarray          # (d_out, d_in)
    bias: np.ndarray | None     # (d_out,) or None
    activation: str

    def spec(self) -> tuple:
        d_out, d_in = self.weight.shape
        return d_in, d_out, self.bias is not None, self.activation


def _f64(a) -> bytes:
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def write_tpk1(path, layers: list[Layer]) -> None:
    parts = [b"TPK1", struct.pack("<I", len(layers))]
    for layer in layers:
        d_in, d_out, has_bias, act = layer.spec()
        parts.append(struct.pack("<IIBB", d_in, d_out, int(has_bias), ACTIVATION_CODE[act]))
    for layer in layers:
        parts.append(_f64(layer.weight))
        if layer.bias is not None:
            parts.append(_f64(layer.bias))
    parts.append(struct.pack("<I", 0))
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def write_tpc1(path, inputs_a: np.ndarray, inputs_b: np.ndarray) -> None:
    n, l_a, d_a = inputs_a.shape
    _, l_b, d_b = inputs_b.shape
    with open(path, "wb") as f:
        f.write(b"TPC1" + struct.pack("<IIIII", n, l_a, d_a, l_b, d_b))
        f.write(_f64(inputs_a))
        f.write(_f64(inputs_b))


def read_tpk1(path) -> tuple[list[Layer], dict]:
    """Parse a TPK1 file; raises FormatProblem on any structural defect."""
    with open(path, "rb") as f:
        buf = f.read()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(buf):
            raise FormatProblem(f"{path}: truncated at offset {pos}")
        out = buf[pos:pos + n]
        pos += n
        return out

    if take(4) != b"TPK1":
        raise FormatProblem(f"{path}: bad magic")
    (depth,) = struct.unpack("<I", take(4))
    specs = []
    for _ in range(depth):
        d_in, d_out, has_bias, act = struct.unpack("<IIBB", take(10))
        if has_bias not in (0, 1) or act not in ACTIVATION_NAME:
            raise FormatProblem(f"{path}: bad layer header")
        specs.append((d_in, d_out, bool(has_bias), ACTIVATION_NAME[act]))
    layers = []
    for d_in, d_out, has_bias, act in specs:
        w = np.frombuffer(take(8 * d_out * d_in), dtype="<f8").reshape(d_out, d_in)
        b = np.frombuffer(take(8 * d_out), dtype="<f8") if has_bias else None
        layers.append(Layer(weight=w, bias=b, activation=act))
    meta = {}
    (count,) = struct.unpack("<I", take(4))
    for _ in range(count):
        key = take(struct.unpack("<I", take(4))[0])
        value = take(struct.unpack("<I", take(4))[0])
        try:
            meta[key.decode("utf-8")] = value.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatProblem(f"{path}: meta entry is not utf-8") from exc
    if pos != len(buf):
        raise FormatProblem(f"{path}: {len(buf) - pos} trailing bytes")
    return layers, meta

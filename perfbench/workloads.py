"""The benchmark's workloads: how each makes its inputs, runs one op, and checks
the op's output.

An op is one call of a public entry point that survives the planned refactors:
``taskport.cli.main(["transport", ...])`` (without ``--jobs``) or
``taskport.harness.experiment.run_experiment``. Both are looked up on their
module at call time, so a traced run sees the wrapped versions.

Every workload has the same interface:

- ``setup_round(r)`` makes the input of timed op r and returns a small input
  for the round's warm-up op;
- ``op_input(i)`` is the input of timed op i, a pure function of the workload
  seed and i, made on first use;
- ``run(inp, tag)`` performs one op and returns its output;
- ``check(inp, out)`` returns a list of problems, empty when the output is right;
- ``identical(a, b)`` says whether two outputs of the same input agree;
- ``discard(*items)`` deletes the files of inputs and outputs (None is skipped).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from taskport import cli
from taskport.harness import experiment as hx

from tpfiles import FormatProblem, Layer, read_tpk1, write_tpc1, write_tpk1

class OpFailed(Exception):
    """The program reported a failure for one op."""


@dataclass(frozen=True)
class TransportSize:
    d_src: int
    d_dst: int
    depth: int          # depth - 1 ReLU layers, then an identity readout
    sequences: int
    tokens_src: int     # 17 = 4x4 grid + 1 leading token
    tokens_dst: int     # 26 = 5x5 grid + 1 leading token

    def describe(self) -> dict:
        return {
            "source_width": self.d_src, "target_width": self.d_dst, "depth": self.depth,
            "calibration_sequences": self.sequences,
            "tokens": f"{self.tokens_src}->{self.tokens_dst} interp2d",
            "aligned_rows_per_layer": self.sequences * max(self.tokens_src, self.tokens_dst),
        }


# The measured size. ROADMAP's 1024->1536 case takes about 17 s per op, too long
# for the number of runs a comparison needs; 512->768 keeps svd, the bilinear
# residual and the forward pass dominant at about 5-10 s per op on one BLAS thread.
FULL = TransportSize(d_src=512, d_dst=768, depth=4, sequences=128, tokens_src=17, tokens_dst=26)
# Warm-up size: the same code paths (more than 512 aligned rows, so the
# factorized bilinear residual) at a small fraction of the cost.
WARM = TransportSize(d_src=64, d_dst=96, depth=4, sequences=32, tokens_src=17, tokens_dst=26)

SETUP_ROUNDS = 5
# Relative tolerance of the norm-identity check on theseus outputs.
NORM_RTOL = 1e-8


@dataclass
class TransportFixture:
    source: str
    finetuned: str
    target: str
    calib: str
    delta_norms: list     # |W_finetuned - W_source|_F per layer
    target_specs: list    # (d_in, d_out, has_bias, activation) per layer

    def paths(self) -> tuple[str, ...]:
        return self.source, self.finetuned, self.target, self.calib


def _stack(rng, width: int, depth: int, bias_scale: float) -> list[Layer]:
    return [
        Layer(
            weight=rng.standard_normal((width, width)) / math.sqrt(width),
            bias=bias_scale * rng.standard_normal(width),
            activation="relu" if idx < depth - 1 else "identity",
        )
        for idx in range(depth)
    ]


def write_transport_fixture(directory: str, tag: str, size: TransportSize,
                            seed_seq) -> TransportFixture:
    """Seeded source, fine-tuned source, target and paired calibration files."""
    rng = np.random.default_rng(seed_seq)
    source = _stack(rng, size.d_src, size.depth, 0.1)
    finetuned = [
        Layer(
            weight=layer.weight + 0.1 * rng.standard_normal(layer.weight.shape) / math.sqrt(size.d_src),
            bias=layer.bias + 0.01 * rng.standard_normal(layer.bias.shape),
            activation=layer.activation,
        )
        for layer in source
    ]
    target = _stack(rng, size.d_dst, size.depth, 0.1)
    fx = TransportFixture(
        source=os.path.join(directory, f"{tag}_source.tpk"),
        finetuned=os.path.join(directory, f"{tag}_finetuned.tpk"),
        target=os.path.join(directory, f"{tag}_target.tpk"),
        calib=os.path.join(directory, f"{tag}_calib.tpc"),
        delta_norms=[float(np.linalg.norm(f.weight - s.weight)) for s, f in zip(source, finetuned)],
        target_specs=[layer.spec() for layer in target],
    )
    write_tpk1(fx.source, source)
    write_tpk1(fx.finetuned, finetuned)
    write_tpk1(fx.target, target)
    write_tpc1(
        fx.calib,
        rng.standard_normal((size.sequences, size.tokens_src, size.d_src)),
        rng.standard_normal((size.sequences, size.tokens_dst, size.d_dst)),
    )
    return fx


def _finite_nonnegative(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value >= 0


class TransportWorkload:
    """``taskport transport --method <method>``, each op on its own seeded fixture set."""

    def __init__(self, method: str, workdir: str, seed: int,
                 size: TransportSize = FULL, rounds: int = SETUP_ROUNDS):
        self.method = method
        self.name = f"transport-{method}"
        self.workdir = workdir
        self.seed = seed
        self.size = size
        self.rounds = rounds
        self.fixtures: dict[int, TransportFixture] = {}

    def describe(self) -> dict:
        return {"entry": f"taskport.cli.main transport --method {self.method}",
                **self.size.describe(), "warmup": WARM.describe()}

    def setup_round(self, r: int) -> TransportFixture:
        self.op_input(r)
        return write_transport_fixture(
            self.workdir, f"warm{r}", WARM, np.random.SeedSequence((self.seed, r, 1)))

    def op_input(self, i: int) -> TransportFixture:
        if i not in self.fixtures:
            self.fixtures[i] = write_transport_fixture(
                self.workdir, f"set{i}", self.size, np.random.SeedSequence((self.seed, i, 0)))
        return self.fixtures[i]

    def run(self, fx: TransportFixture, tag: str) -> tuple[str, str]:
        out = os.path.join(self.workdir, f"{tag}_out.tpk")
        report = os.path.join(self.workdir, f"{tag}_report.json")
        rc = cli.main([
            "transport", "--source", fx.source, "--finetuned", fx.finetuned,
            "--target", fx.target, "--calib", fx.calib, "--method", self.method,
            "--seq-align", "interp2d", "--output", out, "--report", report,
        ])
        if rc != 0:
            raise OpFailed(f"taskport transport exited with {rc}")
        return out, report

    def check(self, fx: TransportFixture, out: tuple[str, str]) -> list[str]:
        out_path, report_path = out
        try:
            layers, _ = read_tpk1(out_path)
            target, _ = read_tpk1(fx.target)
        except (OSError, FormatProblem) as exc:
            return [f"unreadable output: {exc}"]
        problems = []
        specs = [layer.spec() for layer in layers]
        if specs != fx.target_specs:
            problems.append(f"output layer specs {specs} differ from the target's {fx.target_specs}")
            return problems
        for idx, (got, base) in enumerate(zip(layers, target)):
            if not np.all(np.isfinite(got.weight)) or (
                    got.bias is not None and not np.all(np.isfinite(got.bias))):
                problems.append(f"layer {idx}: non-finite output")
                continue
            if self.method == "theseus":
                # alpha = 1 and orthonormal maps: the applied update keeps the
                # source update's Frobenius norm.
                moved = float(np.linalg.norm(got.weight - base.weight))
                want = fx.delta_norms[idx]
                if abs(moved - want) > NORM_RTOL * want:
                    problems.append(f"layer {idx}: |out - target| = {moved!r}, |delta_source| = {want!r}")
        try:
            with open(report_path) as f:
                report = json.load(f)
        except (OSError, ValueError) as exc:
            return problems + [f"unreadable report: {exc}"]
        rows = report.get("layers") if isinstance(report, dict) else None
        if not isinstance(rows, list) or len(rows) != len(specs):
            return problems + ["report does not list every layer"]
        keys = ("in_residual", "out_residual", "bilinear_residual") if self.method == "theseus" \
            else ("bilinear_residual",)
        for idx, row in enumerate(rows):
            for key in keys:
                if not _finite_nonnegative(row.get(key) if isinstance(row, dict) else None):
                    problems.append(f"layer {idx}: report {key} is not finite and non-negative")
        return problems

    def identical(self, a: tuple[str, str], b: tuple[str, str]) -> bool:
        return all(_read_bytes(x) == _read_bytes(y) for x, y in zip(a, b))

    def discard(self, *items) -> None:
        for x in items:
            for path in (x.paths() if isinstance(x, TransportFixture) else x or ()):
                if os.path.exists(path):
                    os.remove(path)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


class ExperimentWorkload:
    """``run_experiment`` on the stock config, seeds derived per op."""

    name = "experiment"
    rounds = SETUP_ROUNDS

    def __init__(self, seed: int):
        self.seed = seed

    def describe(self) -> dict:
        cfg = hx.ExperimentConfig()
        return {"entry": "taskport.harness.experiment.run_experiment(ExperimentConfig(seeds=...))",
                "config": {k: v for k, v in cfg.to_dict().items() if k != "seeds"},
                "warmup": "stock config with 20 pretrain and 20 finetune steps"}

    def _seeds(self, *stream) -> "hx.SeedConfig":
        data, init, calib = (int(s) & 0x7FFFFFFF for s in
                             np.random.SeedSequence((self.seed, *stream)).generate_state(3))
        return hx.SeedConfig(data=data, init=init, calib=calib)

    def setup_round(self, r: int) -> "hx.ExperimentConfig":
        return hx.ExperimentConfig(
            train=hx.TrainConfig(pretrain_steps=20, finetune_steps=20),
            seeds=self._seeds(r, 1),
        )

    def op_input(self, i: int) -> "hx.ExperimentConfig":
        return hx.ExperimentConfig(seeds=self._seeds(i, 0))

    def run(self, cfg, tag: str) -> dict:
        return hx.run_experiment(cfg)

    def check(self, cfg, result: dict) -> list[str]:
        methods = result.get("methods") if isinstance(result, dict) else None
        if not isinstance(methods, dict) or set(methods) != set(cfg.methods):
            return [f"result methods {sorted(methods or ())} differ from the config's {cfg.methods}"]
        problems = []
        for name, row in methods.items():
            before, after = row.get("accuracy_before"), row.get("accuracy_after")
            bad = [(key, value) for key, value in (("accuracy_before", before), ("accuracy_after", after))
                   if not (isinstance(value, float) and 0.0 <= value <= 1.0)]
            problems += [f"{name}: {key} = {value!r} is not in [0, 1]" for key, value in bad]
            if not bad and row.get("delta_acc") != after - before:
                problems.append(f"{name}: delta_acc {row.get('delta_acc')!r} != "
                                f"accuracy_after - accuracy_before = {after - before!r}")
        return problems

    def identical(self, a: dict, b: dict) -> bool:
        return _canonical(a) == _canonical(b)

    def discard(self, *items) -> None:
        pass


def _canonical(result: dict) -> str:
    return json.dumps({k: v for k, v in result.items() if k != "wall_clock_sec"}, sort_keys=True)


def make(name: str, workdir: str, seed: int):
    if name == "experiment":
        return ExperimentWorkload(seed)
    return TransportWorkload(name.removeprefix("transport-"), workdir, seed)

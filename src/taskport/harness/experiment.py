"""Seeded end-to-end runs: train a source pair, build a target, transport the
update with every requested method, and score each against the zero-shot
target. Every number a run produces is a pure function of its config."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, TaskportError
from ..linalg import DEFAULT_RCOND
from ..model import ACTIVATIONS, Checkpoint, LayerSpec, apply_update, init_checkpoint
from ..seqalign import STRATEGIES
from ..transport import METHODS, TransportConfig, transport_task_vector
from .data import SyntheticTask, input_projection, make_dataset, render_tokens
from .isometry import build_isometric_target
from .training import alpha_search, evaluate, train_classifier, warm_start_compare

__all__ = [
    "REGIMES",
    "TaskConfig",
    "ModelConfig",
    "TrainConfig",
    "SeedConfig",
    "ExperimentConfig",
    "PreparedExperiment",
    "load_config",
    "prepare_experiment",
    "evaluate_method",
    "run_experiment",
    "warm_start_experiment",
    "ablate_seqalign",
    "write_ablation_csv",
    "write_json",
]

REGIMES = ("independent", "isometric")

# Sub-stream indices under seeds.init, so every sampled object has its own
# deterministic source. The isometry builder derives (seed, interface) pairs
# itself, hence the large offset keeping its streams out of this family.
_INIT_SOURCE = 0
_INIT_TARGET = 1
_PROJ_SOURCE = 10
_PROJ_TARGET = 11
_ISOMETRY_OFFSET = 13_000_027

_ABLATION_COLUMNS = ("strategy", "accuracy_before", "accuracy_after", "best_alpha", "delta_acc")

_REQUIRED = object()

# JSON value kinds, keyed by the field annotations they check:
# (accepted Python types, description for the error message).
_KINDS = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "float | None": ((int, float, type(None)), "a number or null"),
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "list": ((list,), "a list"),
}


def _check(value, name: str, kind: str):
    types, what = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"config key '{name}' must be {what}, got {value!r}")
    return value


def _take(data: dict, key: str, prefix: str, kind: str | None, default=_REQUIRED):
    """Pop ``key``, type-checked against ``kind`` unless it is None (sections,
    and the top-level values ExperimentConfig checks itself)."""
    if key in data:
        value = data.pop(key)
        return value if kind is None else _check(value, prefix + key, kind)
    if default is _REQUIRED:
        raise ConfigError(f"missing config key '{prefix}{key}'")
    return default


def _reject_unknown(data: dict, prefix: str) -> None:
    if data:
        raise ConfigError(f"unknown config key '{prefix}{sorted(data)[0]}'")


def _section(data, prefix: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"config section '{prefix.rstrip('.')}' must be an object")
    return dict(data)


def _fields_from_dict(cls, data, prefix: str):
    """Build a flat config section, checking each value against its field's annotation."""
    data = _section(data, prefix)
    kwargs = {
        f.name: _take(data, f.name, prefix, f.type,
                      _REQUIRED if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls)
    }
    _reject_unknown(data, prefix)
    return cls(**kwargs)


@dataclass
class TaskConfig:
    """Gaussian-blob task geometry and split sizes."""

    n_classes: int = 4
    d_raw: int = 20
    tokens: int = 5
    noise_sigma: float = 0.75
    center_scale: float = 1.0
    train_per_class: int = 200
    val_per_class: int = 50
    test_per_class: int = 100
    pretrain_per_class: int = 200
    pretrain_center_shift: float = 1.0
    pretrain_noise_sigma: float | None = None

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be at least 2, got {self.n_classes}")
        if self.tokens < 1:
            raise ConfigError(f"tokens must be positive, got {self.tokens}")
        if self.d_raw < self.tokens or self.d_raw % self.tokens != 0:
            raise ConfigError(
                f"d_raw={self.d_raw} does not chunk into {self.tokens} tokens of equal width"
            )
        if not self.noise_sigma > 0:
            raise ConfigError(f"noise_sigma must be positive, got {self.noise_sigma}")
        if not self.center_scale > 0:
            raise ConfigError(f"center_scale must be positive, got {self.center_scale}")
        for name in ("train_per_class", "val_per_class", "test_per_class", "pretrain_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.pretrain_center_shift < 0:
            raise ConfigError(
                f"pretrain_center_shift must be non-negative, got {self.pretrain_center_shift}"
            )
        if self.pretrain_noise_sigma is not None and not self.pretrain_noise_sigma > 0:
            raise ConfigError(
                f"pretrain_noise_sigma must be positive, got {self.pretrain_noise_sigma}"
            )

    @property
    def d_token(self) -> int:
        return self.d_raw // self.tokens

    @classmethod
    def from_dict(cls, data, prefix: str = "task.") -> "TaskConfig":
        return _fields_from_dict(cls, data, prefix)

    def to_dict(self) -> dict:
        return {
            "n_classes": self.n_classes, "d_raw": self.d_raw, "tokens": self.tokens,
            "noise_sigma": self.noise_sigma, "center_scale": self.center_scale,
            "train_per_class": self.train_per_class, "val_per_class": self.val_per_class,
            "test_per_class": self.test_per_class, "pretrain_per_class": self.pretrain_per_class,
            "pretrain_center_shift": self.pretrain_center_shift,
            "pretrain_noise_sigma": self.pretrain_noise_sigma,
        }


@dataclass
class ModelConfig:
    """Uniform-width dense stack; the last layer is always a linear readout."""

    width: int
    depth: int = 2
    activation: str = "relu"

    def __post_init__(self):
        if self.width < 1:
            raise ConfigError(f"width must be positive, got {self.width}")
        if self.depth < 1:
            raise ConfigError(f"depth must be positive, got {self.depth}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(
                f"unknown activation {self.activation!r}, valid: {', '.join(ACTIVATIONS)}"
            )

    def layer_specs(self) -> list[LayerSpec]:
        return [
            LayerSpec(
                d_in=self.width, d_out=self.width, has_bias=True,
                activation=self.activation if idx < self.depth - 1 else "identity",
            )
            for idx in range(self.depth)
        ]

    @classmethod
    def from_dict(cls, data, prefix: str) -> "ModelConfig":
        return _fields_from_dict(cls, data, prefix)

    def to_dict(self) -> dict:
        return {"width": self.width, "depth": self.depth, "activation": self.activation}


@dataclass
class TrainConfig:
    pretrain_steps: int = 300
    finetune_steps: int = 500
    lr: float = 0.05

    def __post_init__(self):
        if self.pretrain_steps < 0 or self.finetune_steps < 0:
            raise ConfigError("training step counts must be non-negative")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")

    @classmethod
    def from_dict(cls, data, prefix: str = "train.") -> "TrainConfig":
        return _fields_from_dict(cls, data, prefix)

    def to_dict(self) -> dict:
        return {"pretrain_steps": self.pretrain_steps,
                "finetune_steps": self.finetune_steps, "lr": self.lr}


@dataclass
class SeedConfig:
    data: int = 0
    init: int = 0
    calib: int = 0

    @classmethod
    def from_dict(cls, data, prefix: str = "seeds.") -> "SeedConfig":
        return _fields_from_dict(cls, data, prefix)

    def to_dict(self) -> dict:
        return {"data": self.data, "init": self.init, "calib": self.calib}


# ExperimentConfig field names whose JSON keys differ.
_JSON_KEYS = {"batches_b": "batches_B", "lam": "lambda"}


def _default_alpha_grid() -> list[float]:
    return [i / 20 for i in range(21)]


@dataclass
class ExperimentConfig:
    task: TaskConfig = field(default_factory=TaskConfig)
    source_model: ModelConfig = field(default_factory=lambda: ModelConfig(width=16))
    target_model: ModelConfig = field(default_factory=lambda: ModelConfig(width=24))
    train: TrainConfig = field(default_factory=TrainConfig)
    seeds: SeedConfig = field(default_factory=SeedConfig)
    regime: str = "independent"
    batches_b: int = 10
    batch_size: int = 32
    methods: list = field(default_factory=lambda: ["theseus", "zero_pad", "random"])
    seq_align: str = "interp2d"
    alpha_grid: list = field(default_factory=_default_alpha_grid)
    rcond: float = DEFAULT_RCOND
    lam: float | None = None
    output_path: str | None = None

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.type in _KINDS:  # sections are checked by their own classes
                _check(getattr(self, f.name), _JSON_KEYS.get(f.name, f.name), f.type)
        self.methods = [_check(m, f"methods[{i}]", "str") for i, m in enumerate(self.methods)]
        self.alpha_grid = [
            float(_check(a, f"alpha_grid[{i}]", "float")) for i, a in enumerate(self.alpha_grid)
        ]
        self.rcond = float(self.rcond)
        if self.lam is not None:
            self.lam = float(self.lam)
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}, valid: {', '.join(REGIMES)}")
        if self.batches_b < 1:
            raise ConfigError(f"batches_B must be positive, got {self.batches_b}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if not self.methods:
            raise ConfigError("methods list is empty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}, valid: {', '.join(METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"duplicate entries in methods: {self.methods}")
        if self.seq_align not in STRATEGIES:
            raise ConfigError(
                f"unknown seq_align {self.seq_align!r}, valid: {', '.join(STRATEGIES)}"
            )
        if not self.alpha_grid:
            raise ConfigError("alpha_grid is empty")
        if any(b <= a for a, b in zip(self.alpha_grid, self.alpha_grid[1:])):
            raise ConfigError("alpha_grid must be strictly ascending")
        if not (math.isfinite(self.rcond) and self.rcond > 0):
            raise ConfigError(f"rcond must be finite and positive, got {self.rcond}")
        if self.lam is not None and not (math.isfinite(self.lam) and self.lam > 0):
            raise ConfigError(f"lambda must be finite and positive, got {self.lam}")
        for role, model in (("source_model", self.source_model), ("target_model", self.target_model)):
            if model.width < self.task.n_classes:
                raise ConfigError(
                    f"{role}.width={model.width} cannot read out {self.task.n_classes} classes"
                )
            if model.width < self.task.d_token:
                raise ConfigError(
                    f"{role}.width={model.width} is narrower than the {self.task.d_token}-wide tokens"
                )
        if self.regime == "isometric":
            if self.source_model.activation != "identity" or self.target_model.activation != "identity":
                raise ConfigError("isometric regime requires identity activations on both models")
            if self.source_model.depth != self.target_model.depth:
                raise ConfigError("isometric regime requires equal depths")
            if self.target_model.width < self.source_model.width:
                raise ConfigError("isometric regime requires target width >= source width")

    @classmethod
    def from_dict(cls, data) -> "ExperimentConfig":
        data = _section(data, "")
        task = TaskConfig.from_dict(_take(data, "task", "", None))
        source_model = ModelConfig.from_dict(_take(data, "source_model", "", None), "source_model.")
        target_model = ModelConfig.from_dict(_take(data, "target_model", "", None), "target_model.")
        regime = _take(data, "regime", "", None)
        batches_b = _take(data, "batches_B", "", None)
        batch_size = _take(data, "batch_size", "", None, cls.batch_size)
        methods = _take(data, "methods", "", None)
        seq_align = _take(data, "seq_align", "", None)
        alpha_grid = _take(data, "alpha_grid", "", None)
        seeds = SeedConfig.from_dict(_take(data, "seeds", "", None))
        train = _take(data, "train", "", None, None)
        train = TrainConfig() if train is None else TrainConfig.from_dict(train)
        rcond = _take(data, "rcond", "", None, cls.rcond)
        lam = _take(data, "lambda", "", None, None)
        output_path = _take(data, "output_path", "", None)
        _reject_unknown(data, "")
        return cls(
            task=task, source_model=source_model, target_model=target_model,
            train=train, seeds=seeds, regime=regime, batches_b=batches_b,
            batch_size=batch_size, methods=methods, seq_align=seq_align,
            alpha_grid=alpha_grid, rcond=rcond, lam=lam, output_path=output_path,
        )

    def to_dict(self) -> dict:
        return {
            "task": self.task.to_dict(),
            "source_model": self.source_model.to_dict(),
            "target_model": self.target_model.to_dict(),
            "regime": self.regime,
            "batches_B": self.batches_b,
            "batch_size": self.batch_size,
            "methods": list(self.methods),
            "seq_align": self.seq_align,
            "alpha_grid": list(self.alpha_grid),
            "seeds": self.seeds.to_dict(),
            "train": self.train.to_dict(),
            "rcond": self.rcond,
            "lambda": self.lam,
            "output_path": self.output_path,
        }


def load_config(path) -> ExperimentConfig:
    with open(path, "rb") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(data)


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except TaskportError as exc:
        raise type(exc)(f"stage {name}: {exc}", kind=exc.kind) from exc


@dataclass
class PreparedExperiment:
    """Everything a method evaluation needs, computed once per config."""

    config: ExperimentConfig
    theta_a: Checkpoint
    theta_a_ft: Checkpoint
    theta_b: Checkpoint
    proj_a: np.ndarray
    proj_b: np.ndarray
    calib_a: np.ndarray
    calib_b: np.ndarray
    train_b: np.ndarray
    train_labels: np.ndarray
    val_b: np.ndarray
    val_labels: np.ndarray
    test_b: np.ndarray
    test_labels: np.ndarray
    zero_shot: float
    source_accuracy: dict


def prepare_experiment(cfg: ExperimentConfig) -> PreparedExperiment:
    """Train the source pair, build the target, and render every split."""
    seeds = cfg.seeds
    n_classes = cfg.task.n_classes

    with _stage("data"):
        task = SyntheticTask.generate(
            n_classes=n_classes, d_raw=cfg.task.d_raw, tokens=cfg.task.tokens,
            noise_sigma=cfg.task.noise_sigma, seed=seeds.data,
            center_scale=cfg.task.center_scale,
        )
        pretrain_task = task.perturbed(
            cfg.task.pretrain_center_shift, cfg.task.pretrain_noise_sigma
        )
        pre_x, pre_y = make_dataset(pretrain_task, cfg.task.pretrain_per_class, "train")
        train_x, train_y = make_dataset(task, cfg.task.train_per_class, "train")
        val_x, val_y = make_dataset(task, cfg.task.val_per_class, "val")
        test_x, test_y = make_dataset(task, cfg.task.test_per_class, "test")
        n_calib = cfg.batches_b * cfg.batch_size
        calib_x, _ = make_dataset(task, math.ceil(n_calib / n_classes), "calib")
        calib_x = calib_x[:n_calib]

    with _stage("train_source"):
        proj_a = input_projection(
            cfg.task.d_token, cfg.source_model.width,
            np.random.SeedSequence((seeds.init, _PROJ_SOURCE)),
        )
        theta_a0 = init_checkpoint(
            cfg.source_model.layer_specs(),
            np.random.SeedSequence((seeds.init, _INIT_SOURCE)),
        )
        theta_a = train_classifier(
            theta_a0, render_tokens(pre_x, proj_a), pre_y,
            cfg.train.pretrain_steps, cfg.train.lr, n_classes=n_classes,
        )

    with _stage("finetune_source"):
        theta_a_ft = train_classifier(
            theta_a, render_tokens(train_x, proj_a), train_y,
            cfg.train.finetune_steps, cfg.train.lr, n_classes=n_classes,
        )

    with _stage("build_target"):
        if cfg.regime == "independent":
            proj_b = input_projection(
                cfg.task.d_token, cfg.target_model.width,
                np.random.SeedSequence((seeds.init, _PROJ_TARGET)),
            )
            theta_b0 = init_checkpoint(
                cfg.target_model.layer_specs(),
                np.random.SeedSequence((seeds.init, _INIT_TARGET)),
            )
            theta_b = train_classifier(
                theta_b0, render_tokens(pre_x, proj_b), pre_y,
                cfg.train.pretrain_steps, cfg.train.lr, n_classes=n_classes,
            )
        else:
            # Hidden interfaces widen to the target width; the final one keeps
            # the source width so the class readout survives the rotation.
            depth = cfg.source_model.depth
            widths = [cfg.target_model.width] * depth + [cfg.source_model.width]
            theta_b, true_maps = build_isometric_target(
                theta_a, widths=widths, seed=seeds.init + _ISOMETRY_OFFSET,
                keep_final=True,
            )
            proj_b = proj_a @ true_maps[0].in_map

    with _stage("calibration"):
        calib_a = render_tokens(calib_x, proj_a)
        calib_b = render_tokens(calib_x, proj_b)
        train_b = render_tokens(train_x, proj_b)
        val_b = render_tokens(val_x, proj_b)
        test_b = render_tokens(test_x, proj_b)
        zero_shot = evaluate(theta_b, test_b, test_y, n_classes)
        source_accuracy = {
            "pretrained": evaluate(theta_a, render_tokens(test_x, proj_a), test_y, n_classes),
            "finetuned": evaluate(theta_a_ft, render_tokens(test_x, proj_a), test_y, n_classes),
        }

    return PreparedExperiment(
        config=cfg, theta_a=theta_a, theta_a_ft=theta_a_ft, theta_b=theta_b,
        proj_a=proj_a, proj_b=proj_b, calib_a=calib_a, calib_b=calib_b,
        train_b=train_b, train_labels=train_y, val_b=val_b, val_labels=val_y,
        test_b=test_b, test_labels=test_y, zero_shot=zero_shot,
        source_accuracy=source_accuracy,
    )


def _summarize_layers(layers: list) -> dict:
    def agg(key):
        vals = [r[key] for r in layers if r[key] is not None]
        if not vals:
            return None
        return {"mean": float(np.mean(vals)), "max": float(np.max(vals))}

    return {k: agg(k) for k in ("in_residual", "out_residual", "bilinear_residual")}


def _transport(prep: PreparedExperiment, method: str, strategy: str | None = None):
    """The prepared source update, transported onto the prepared target with one method."""
    cfg = prep.config
    tcfg = TransportConfig(
        method=method, strategy=cfg.seq_align if strategy is None else strategy,
        lam=cfg.lam, rcond=cfg.rcond, seed=cfg.seeds.calib,
    )
    with _stage(f"transport:{method}"):
        return transport_task_vector(
            prep.theta_a, prep.theta_a_ft, prep.theta_b,
            prep.calib_a, prep.calib_b, tcfg,
        )


def evaluate_method(prep: PreparedExperiment, method: str, strategy: str | None = None) -> dict:
    """Transport with one method, pick alpha on val, and score on test."""
    cfg = prep.config
    update_b, report = _transport(prep, method, strategy)
    with _stage(f"evaluate:{method}"):
        n_classes = cfg.task.n_classes
        best_alpha, val_acc = alpha_search(
            prep.theta_b, update_b, prep.val_b, prep.val_labels,
            cfg.alpha_grid, n_classes=n_classes,
        )
        after = evaluate(
            apply_update(prep.theta_b, update_b, best_alpha),
            prep.test_b, prep.test_labels, n_classes,
        )
    return {
        "method": method,
        "accuracy_before": prep.zero_shot,
        "accuracy_after": after,
        "best_alpha": best_alpha,
        "delta_acc": after - prep.zero_shot,
        "val_accuracy": val_acc,
        "residual_summary": _summarize_layers(report["layers"]),
        "layers": report["layers"],
    }


def run_experiment(cfg_or_path, output_path=None) -> dict:
    """Full pipeline for one config; returns (and optionally writes) the result.

    The result is a pure function of the config except for wall_clock_sec.
    """
    if isinstance(cfg_or_path, ExperimentConfig):
        cfg = cfg_or_path
    else:
        cfg = load_config(cfg_or_path)
    start = time.perf_counter()
    prep = prepare_experiment(cfg)
    results = {m: evaluate_method(prep, m) for m in cfg.methods}
    result = {
        "config": cfg.to_dict(),
        "projection_streams": {
            "source": [cfg.seeds.init, _PROJ_SOURCE],
            "target": [cfg.seeds.init, _PROJ_TARGET] if cfg.regime == "independent"
            else ["isometry", cfg.seeds.init + _ISOMETRY_OFFSET],
        },
        "zero_shot_accuracy": prep.zero_shot,
        "source_accuracy": prep.source_accuracy,
        "methods": results,
        "wall_clock_sec": time.perf_counter() - start,
    }
    target = output_path if output_path is not None else cfg.output_path
    if target is not None and target != "-":
        write_json(result, target)
    return result


def warm_start_experiment(cfg: ExperimentConfig, steps: int = 150,
                          method: str = "theseus") -> tuple[dict, dict]:
    """Transport once, then fine-tune the target cold vs warm on the task.

    Returns (curves, info) where curves feeds write_curves and info records the
    alpha the warm start used.
    """
    prep = prepare_experiment(cfg)
    update_b, _ = _transport(prep, method)
    n_classes = cfg.task.n_classes
    best_alpha, _ = alpha_search(
        prep.theta_b, update_b, prep.val_b, prep.val_labels,
        cfg.alpha_grid, n_classes=n_classes,
    )
    with _stage("warm_start"):
        curves = warm_start_compare(
            prep.theta_b, update_b, best_alpha,
            prep.train_b, prep.train_labels, prep.val_b, prep.val_labels,
            steps, cfg.train.lr, n_classes=n_classes,
        )
    info = {"method": method, "best_alpha": best_alpha, "zero_shot": prep.zero_shot}
    return curves, info


def ablate_seqalign(cfg: ExperimentConfig, method: str = "theseus") -> list:
    """Score one transport method under each sequence-alignment strategy.

    The source/target preparation is shared, so rows differ only in alignment.
    """
    prep = prepare_experiment(cfg)
    rows = []
    for strategy in STRATEGIES:
        res = evaluate_method(prep, method, strategy=strategy)
        rows.append({"strategy": strategy, **{c: res[c] for c in _ABLATION_COLUMNS[1:]}})
    return rows


@contextlib.contextmanager
def _output(path):
    """Text stream writing to ``path``, or to stdout when path is '-'."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", newline="") as f:
        yield f


def write_json(doc: dict, path) -> None:
    """The one JSON writer: sorted keys, 2-space indent, trailing newline ('-' = stdout)."""
    with _output(path) as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def write_ablation_csv(rows: list, path) -> None:
    """The one ablation CSV writer ('-' = stdout); floats are written with repr."""
    with _output(path) as f:
        writer = csv.writer(f)
        writer.writerow(_ABLATION_COLUMNS)
        for row in rows:
            writer.writerow([
                repr(v) if isinstance(v, float) else v for v in (row[c] for c in _ABLATION_COLUMNS)
            ])

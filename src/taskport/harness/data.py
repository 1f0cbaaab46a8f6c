"""Synthetic classification tasks for desk-scale transport experiments.

Samples are Gaussian blobs around per-class centers in a raw feature space of
dimension d_raw, chunked into a length-``tokens`` sequence (d_raw must divide
evenly). Models see the raw tokens through a fixed seeded projection into
their own input width; paired calibration sets render the same raw samples
through each model's projection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigError, DimensionError
from ..linalg import as_batch, random_orthonormal_rows

__all__ = ["SPLITS", "SyntheticTask", "make_dataset", "input_projection", "render_tokens"]

SPLITS = ("train", "val", "test", "calib")

# Sub-seed stream tags; splits use their index in SPLITS.
_CENTER_STREAM = 101
_PERTURB_STREAM = 102


@dataclass(frozen=True)
class SyntheticTask:
    n_classes: int
    d_raw: int
    tokens: int
    centers: np.ndarray
    noise_sigma: float
    seed: int

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.n_classes}")
        if not self.noise_sigma > 0:
            raise ConfigError(f"noise_sigma must be positive, got {self.noise_sigma}")
        if self.tokens < 1 or self.d_raw < 1:
            raise ConfigError(f"bad dims: d_raw={self.d_raw}, tokens={self.tokens}")
        centers = np.asarray(self.centers, dtype=np.float64)
        if centers.shape != (self.n_classes, self.d_raw):
            raise DimensionError(
                f"centers shape {centers.shape} does not match ({self.n_classes}, {self.d_raw})"
            )
        object.__setattr__(self, "centers", centers)

    @classmethod
    def generate(cls, n_classes: int, d_raw: int, tokens: int, noise_sigma: float,
                 seed: int, center_scale: float = 2.0) -> "SyntheticTask":
        rng = np.random.default_rng(np.random.SeedSequence((seed, _CENTER_STREAM)))
        centers = center_scale * rng.standard_normal((n_classes, d_raw))
        return cls(n_classes=n_classes, d_raw=d_raw, tokens=tokens, centers=centers,
                   noise_sigma=noise_sigma, seed=seed)

    def perturbed(self, center_shift: float, noise_sigma: float | None = None) -> "SyntheticTask":
        """Sibling task with jittered centers: same geometry, shifted decision structure.

        Used as the pretraining distribution; its splits draw from streams
        disjoint from this task's because the seed is offset.
        """
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, _PERTURB_STREAM)))
        centers = self.centers + center_shift * rng.standard_normal(self.centers.shape)
        return replace(
            self,
            centers=centers,
            noise_sigma=self.noise_sigma if noise_sigma is None else noise_sigma,
            seed=self.seed + 1_000_003,
        )


def make_dataset(task: SyntheticTask, n_per_class: int, split: str) -> tuple[np.ndarray, np.ndarray]:
    """Draw n_per_class samples per class as (N, tokens, d_raw/tokens) sequences.

    Deterministic per (task.seed, split); different splits use disjoint
    sub-seed streams. Sample order is shuffled within the split.
    """
    if split not in SPLITS:
        raise ConfigError(f"unknown split {split!r}, valid: {', '.join(SPLITS)}")
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be positive, got {n_per_class}")
    if task.d_raw % task.tokens != 0:
        raise DimensionError(
            f"d_raw={task.d_raw} does not chunk into {task.tokens} tokens of equal width"
        )
    d_tok = task.d_raw // task.tokens
    rng = np.random.default_rng(np.random.SeedSequence((task.seed, SPLITS.index(split))))
    raw = np.concatenate(
        [c + task.noise_sigma * rng.standard_normal((n_per_class, task.d_raw))
         for c in task.centers]
    )
    labels = np.repeat(np.arange(task.n_classes), n_per_class)
    order = rng.permutation(raw.shape[0])
    inputs = raw[order].reshape(raw.shape[0], task.tokens, d_tok)
    return inputs, labels[order]


def input_projection(d_token: int, width: int, seed) -> np.ndarray:
    """Fixed public projection from raw token features into a model's input width."""
    if d_token > width:
        raise ConfigError(
            f"model input width {width} is narrower than the {d_token}-wide raw tokens"
        )
    return random_orthonormal_rows(d_token, width, seed)


def render_tokens(inputs, projection) -> np.ndarray:
    """Map raw (N, L, d_token) sequences into a model's input space."""
    x = as_batch(inputs, "inputs")
    p = np.asarray(projection, dtype=np.float64)
    if p.ndim != 2 or x.shape[2] != p.shape[0]:
        raise DimensionError(
            f"cannot render tokens of shape {x.shape} through a projection of shape {p.shape}"
        )
    n, l, d = x.shape
    return (x.reshape(n * l, d) @ p).reshape(n, l, p.shape[1])

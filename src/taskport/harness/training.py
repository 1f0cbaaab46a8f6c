"""Plain gradient-descent training with hand-derived gradients.

The classifier readout is fixed by convention: token outputs of the last layer
are mean-pooled over the sequence and the first n_classes features are the
logits. Gradients are exact (softmax cross-entropy, dense layers, ReLU masks);
a finite-difference check lives in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DimensionError, TrainingError
from ..model import Checkpoint, TaskVector, apply_update, forward_collect

__all__ = [
    "pooled_logits",
    "classification_loss",
    "loss_and_grads",
    "train_classifier",
    "evaluate",
    "alpha_search",
    "warm_start_compare",
]


def _check_labels(labels, n_samples: int, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (n_samples,):
        raise DimensionError(f"labels shape {labels.shape} does not match {n_samples} samples")
    if not np.issubdtype(labels.dtype, np.integer):
        raise DimensionError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise DimensionError(
            f"labels must lie in [0, {n_classes}), got range [{labels.min()}, {labels.max()}]"
        )
    return labels


def _resolve_n_classes(ckpt: Checkpoint, labels, n_classes: int | None) -> int:
    if n_classes is None:
        n_classes = int(np.max(labels)) + 1
    if n_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {n_classes}")
    d_last = ckpt.layer_specs[-1].d_out
    if d_last < n_classes:
        raise DimensionError(
            f"final layer width {d_last} cannot host {n_classes} logit features"
        )
    return n_classes


def pooled_logits(ckpt: Checkpoint, inputs, n_classes: int) -> np.ndarray:
    outputs, _ = forward_collect(ckpt, inputs)
    return outputs.mean(axis=1)[:, :n_classes]


def _softmax_cross_entropy(logits, labels):
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    n = logits.shape[0]
    loss = -float(np.mean(log_probs[np.arange(n), labels]))
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def classification_loss(ckpt: Checkpoint, inputs, labels, n_classes: int | None = None) -> float:
    n_classes = _resolve_n_classes(ckpt, labels, n_classes)
    logits = pooled_logits(ckpt, inputs, n_classes)
    labels = _check_labels(labels, logits.shape[0], n_classes)
    loss, _ = _softmax_cross_entropy(logits, labels)
    return loss


def loss_and_grads(ckpt: Checkpoint, inputs, labels, n_classes: int):
    """Cross-entropy loss plus exact gradients for every weight and bias."""
    outputs, records = forward_collect(ckpt, inputs)
    n, l, d_last = outputs.shape
    labels = _check_labels(labels, n, n_classes)
    logits = outputs.mean(axis=1)[:, :n_classes]
    loss, dlogits = _softmax_cross_entropy(logits, labels)

    dpooled = np.zeros((n, d_last))
    dpooled[:, :n_classes] = dlogits
    # Mean pooling spreads the pooled gradient evenly over tokens.
    dh = np.broadcast_to(dpooled[:, None, :] / l, (n, l, d_last)).copy()

    grads_w: list[np.ndarray | None] = [None] * ckpt.depth
    grads_b: list[np.ndarray | None] = [None] * ckpt.depth
    for idx in range(ckpt.depth - 1, -1, -1):
        spec = ckpt.layer_specs[idx]
        rec = records[idx]
        dz = dh * (rec.h_out > 0.0) if spec.activation == "relu" else dh
        flat_dz = dz.reshape(n * l, spec.d_out)
        flat_in = rec.h_in.reshape(n * l, spec.d_in)
        grads_w[idx] = flat_dz.T @ flat_in
        if spec.has_bias:
            grads_b[idx] = flat_dz.sum(axis=0)
        dh = (flat_dz @ ckpt.weights[idx]).reshape(n, l, spec.d_in)
    return loss, grads_w, grads_b


def _descent_step(ckpt: Checkpoint, inputs, labels, lr: float, n_classes: int) -> float:
    """One full-batch gradient step on ``ckpt`` in place; returns the loss before it."""
    loss, grads_w, grads_b = loss_and_grads(ckpt, inputs, labels, n_classes)
    for idx in range(ckpt.depth):
        ckpt.weights[idx] = ckpt.weights[idx] - lr * grads_w[idx]
        if grads_b[idx] is not None:
            ckpt.biases[idx] = ckpt.biases[idx] - lr * grads_b[idx]
    return loss


def train_classifier(ckpt: Checkpoint, inputs, labels, steps: int, lr: float,
                     n_classes: int | None = None) -> Checkpoint:
    """Full-batch gradient descent from a checkpoint; returns a new trained
    checkpoint.

    steps=0 returns a bitwise copy. The loss must end lower than it started,
    and a non-finite loss aborts with the offending step index.
    """
    if steps < 0:
        raise ConfigError(f"steps must be non-negative, got {steps}")
    if steps > 0 and not lr > 0:
        raise ConfigError(f"lr must be positive, got {lr}")
    n_classes = _resolve_n_classes(ckpt, labels, n_classes)
    out = ckpt.copy()
    if steps == 0:
        return out
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = _check_labels(labels, inputs.shape[0], n_classes)
    loss_start = classification_loss(out, inputs, labels, n_classes)
    for step in range(steps):
        if not np.isfinite(_descent_step(out, inputs, labels, lr, n_classes)):
            raise TrainingError(f"non-finite loss at step {step}")
    loss_end = classification_loss(out, inputs, labels, n_classes)
    if not loss_end < loss_start:
        raise TrainingError(
            f"loss did not decrease over {steps} steps ({loss_start:.6g} -> {loss_end:.6g})"
        )
    out.meta["train_steps"] = str(steps)
    out.meta["train_lr"] = repr(float(lr))
    return out


def evaluate(ckpt: Checkpoint, inputs, labels, n_classes: int | None = None) -> float:
    """Classification accuracy; ties in the argmax go to the lowest class index."""
    n_classes = _resolve_n_classes(ckpt, labels, n_classes)
    logits = pooled_logits(ckpt, inputs, n_classes)
    labels = _check_labels(labels, logits.shape[0], n_classes)
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def alpha_search(theta: Checkpoint, update: TaskVector, val_inputs, val_labels,
                 grid, n_classes: int | None = None) -> tuple[float, float]:
    """Pick the update strength with the best validation accuracy.

    The grid must be non-empty and strictly ascending; exact accuracy ties are
    broken toward the smallest strength.
    """
    grid = [float(a) for a in grid]
    if not grid:
        raise ConfigError("alpha grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"alpha grid must be strictly ascending, got {grid}")
    best_alpha, best_acc = grid[0], -1.0
    for alpha in grid:
        acc = evaluate(apply_update(theta, update, alpha), val_inputs, val_labels, n_classes)
        if acc > best_acc:
            best_alpha, best_acc = alpha, acc
    return best_alpha, best_acc


def warm_start_compare(theta: Checkpoint, update: TaskVector, alpha: float,
                       train_inputs, train_labels, val_inputs, val_labels,
                       steps: int, lr: float, n_classes: int | None = None) -> dict:
    """Train cold (from theta) and warm (from theta + alpha * update) side by side.

    Identical data, steps, and learning rate; full-batch, so both runs are
    deterministic. Returns steps+1 aligned validation curves, the entry at
    step t describing the weights before step t is taken.
    """
    n_classes = _resolve_n_classes(theta, train_labels, n_classes)
    train_inputs = np.asarray(train_inputs, dtype=np.float64)
    train_labels = _check_labels(train_labels, train_inputs.shape[0], n_classes)

    def run(start: Checkpoint):
        current = start.copy()
        losses, accs = [], []
        for step in range(steps + 1):
            losses.append(classification_loss(current, val_inputs, val_labels, n_classes))
            accs.append(evaluate(current, val_inputs, val_labels, n_classes))
            if step == steps:
                break
            _descent_step(current, train_inputs, train_labels, lr, n_classes)
        return losses, accs

    cold_loss, cold_acc = run(theta)
    warm_loss, warm_acc = run(apply_update(theta, update, alpha))
    return {
        "step": list(range(steps + 1)),
        "cold_loss": cold_loss,
        "warm_loss": warm_loss,
        "cold_acc": cold_acc,
        "warm_acc": warm_acc,
    }

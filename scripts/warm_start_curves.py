"""Warm-start versus cold-start finetuning curves on an isometric target.

The cold run finetunes the constructed target from scratch; the warm run first
applies the transported update at the alpha picked on validation. Curves land
in a CSV (step, cold_loss, warm_loss, cold_acc, warm_acc) for plotting.
"""

import argparse
import sys

import numpy as np

from taskport.harness.experiment import (
    ExperimentConfig, ModelConfig, SeedConfig, TaskConfig, TrainConfig,
    warm_start_experiment, write_csv,
)


def warm_start_config(seed: int) -> ExperimentConfig:
    # Long source finetuning: the warm run starts on its plateau, so the curves
    # separate cleanly instead of crossing.
    return ExperimentConfig(
        task=TaskConfig(n_classes=3, d_raw=32, tokens=4, noise_sigma=1.0,
                        center_scale=1.0, train_per_class=150, val_per_class=50,
                        test_per_class=100, pretrain_per_class=150),
        source_model=ModelConfig(width=8, depth=2, activation="identity"),
        target_model=ModelConfig(width=12, depth=2, activation="identity"),
        train=TrainConfig(pretrain_steps=150, finetune_steps=300, lr=0.05),
        seeds=SeedConfig(data=seed, init=seed, calib=seed),
        regime="isometric", batches_b=1, batch_size=12,
        methods=["theseus"],
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=150)
    parser.add_argument("--method", default="theseus")
    parser.add_argument("--output", default="warm_start_curves.csv")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    curves, info = warm_start_experiment(
        warm_start_config(args.seed), steps=args.steps, method=args.method,
    )
    write_csv([dict(zip(curves, row)) for row in zip(*curves.values())], args.output)

    cold = np.asarray(curves["cold_acc"])
    warm = np.asarray(curves["warm_acc"])
    crossings = np.nonzero(warm >= cold[-1])[0]
    print(f"method={info['method']}  alpha={info['best_alpha']}  "
          f"zero_shot={info['zero_shot']:.4f}")
    print(f"cold: {cold[0]:.4f} -> {cold[-1]:.4f}   warm: {warm[0]:.4f} -> {warm[-1]:.4f}")
    print(f"warm reaches the cold run's final accuracy at step "
          f"{int(crossings[0]) if crossings.size else 'never'}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare sequence-alignment strategies on an isometric target.

The config makes the contrast structural: the token width equals the source
width, and only a handful of calibration sequences are drawn. Mean pooling then
fits the alignment from fewer rows than the activation dimension, while the
interp strategies keep every token row and determine the maps completely.
"""

import argparse
import sys

from taskport.harness.experiment import (
    ExperimentConfig, ModelConfig, SeedConfig, TaskConfig, TrainConfig,
    ablate_seqalign, write_csv,
)


def ablation_config(seed: int, calib_sequences: int) -> ExperimentConfig:
    return ExperimentConfig(
        task=TaskConfig(n_classes=3, d_raw=32, tokens=4, noise_sigma=1.0,
                        center_scale=1.0, train_per_class=100, val_per_class=50,
                        test_per_class=100, pretrain_per_class=100),
        source_model=ModelConfig(width=8, depth=2, activation="identity"),
        target_model=ModelConfig(width=12, depth=2, activation="identity"),
        train=TrainConfig(pretrain_steps=120, finetune_steps=240, lr=0.05),
        seeds=SeedConfig(data=seed, init=seed, calib=seed),
        regime="isometric", batches_b=1, batch_size=calib_sequences,
        methods=["theseus"],
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--calib-sequences", type=int, default=6,
                        help="calibration sequences; keep below the source width "
                             "to leave the pooled fit under-determined")
    parser.add_argument("--method", default="theseus")
    parser.add_argument("--output", default=None, help="optional CSV path")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    rows = ablate_seqalign(ablation_config(args.seed, args.calib_sequences),
                           method=args.method)
    print(f"{'strategy':<10} {'before':>8} {'after':>8} {'alpha':>6} {'delta':>8}")
    for row in rows:
        print(f"{row['strategy']:<10} {row['accuracy_before']:>8.4f} "
              f"{row['accuracy_after']:>8.4f} {row['best_alpha']:>6.2f} "
              f"{row['delta_acc']:>+8.4f}")
    if args.output:
        write_csv(rows, args.output)
        print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

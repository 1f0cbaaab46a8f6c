"""Sweep the calibration budget for transport between independently trained models.

For each batch count B (B batches of ``--batch-size`` calibration sequences)
the stock experiment runs over seeds 0 to ``--seeds`` - 1, and the table
reports each method's median and range of the accuracy delta over the
zero-shot target: how each method's gain depends on the amount of
calibration. At the stock model size the orthogonal method's column is flat
(its mean delta over seeds 0-6 is 0.146, 0.147 and 0.147 at 32, 64 and 320
sequences): the stock sides have rank 4-5, so 32 sequences already span
them, and a trend in B needs wider models.
"""

import argparse
import sys
import time

import numpy as np

from taskport.harness.experiment import ExperimentConfig, SeedConfig, run_experiment, write_csv


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batches", type=int, nargs="+", default=[1, 2, 5, 10, 20],
                        help="calibration batch counts to sweep")
    parser.add_argument("--seeds", type=int, default=5, help="seeds per batch count")
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--output", default=None, help="optional CSV path")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    methods = list(ExperimentConfig().methods)
    rows = []
    for batches in args.batches:
        deltas = {m: [] for m in methods}
        start = time.perf_counter()
        for seed in range(args.seeds):
            cfg = ExperimentConfig(
                seeds=SeedConfig(data=seed, init=seed, calib=seed),
                batches_b=batches, batch_size=args.batch_size,
            )
            result = run_experiment(cfg)
            for m in methods:
                deltas[m].append(result["methods"][m]["delta_acc"])
        elapsed = time.perf_counter() - start
        for m in methods:
            vals = deltas[m]
            rows.append({
                "batches_B": batches, "method": m,
                "median_delta": float(np.median(vals)),
                "min_delta": float(np.min(vals)),
                "max_delta": float(np.max(vals)),
            })
        print(f"B={batches:<3d} ({elapsed:5.1f}s)  " + "  ".join(
            f"{m}={np.median(deltas[m]):+.4f}" for m in methods))

    print(f"\n{'batches_B':>9}  {'method':<12} {'median':>8} {'min':>8} {'max':>8}")
    for row in rows:
        print(f"{row['batches_B']:>9}  {row['method']:<12} "
              f"{row['median_delta']:>+8.4f} {row['min_delta']:>+8.4f} {row['max_delta']:>+8.4f}")

    if args.output:
        write_csv(rows, args.output)
        print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

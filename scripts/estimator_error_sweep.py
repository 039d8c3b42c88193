#!/usr/bin/env python3
"""Sweep the cardinality estimators over subset sizes and error targets,
writing a CSV trace of (trial, true_value, estimate, tuple_len, rounds)
per configuration plus a summary table to stdout.

Usage: python scripts/estimator_error_sweep.py [--trials 2000] [--out DIR]
"""

import argparse
import os

import numpy as np

from densetrack import counting


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--out", default="estimator-traces")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    print(f"{'estimator':>9} {'n':>6} {'eps':>5} {'l':>6} "
          f"{'mean rel err':>12} {'p99 rel err':>12}")
    for true_n in (10, 50, 200, 1000):
        for eps in (0.1, 0.3, 1.0):
            rng = np.random.default_rng((args.seed, true_n))
            est = counting.sample_fine_estimates(rng, true_n, eps, args.trials)
            rel = np.abs(est / true_n - 1.0)
            length = counting.fine_tuple_len(2.0 * true_n, eps)
            path = os.path.join(args.out, f"fine-n{true_n}-eps{eps}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("trial,true_value,estimate,tuple_len,rounds\n")
                fh.writelines(f"{i},{true_n},{e!r},{length},0\n"
                              for i, e in enumerate(est.tolist()))
            print(f"{'fine':>9} {true_n:>6} {eps:>5} {length:>6} "
                  f"{rel.mean():>12.4f} {np.percentile(rel, 99):>12.4f}")

    for true_n in (4, 10, 100, 1000):
        rng = np.random.default_rng((args.seed, 7, true_n))
        est = counting.sample_coarse_estimates(rng, true_n, 0.01, args.trials)
        upper_ok = float((2 * est >= true_n).mean())
        window = float(((est >= true_n / 2) & (est <= 2 * true_n)).mean())
        print(f"{'coarse':>9} {true_n:>6} {'-':>5} "
              f"{counting.coarse_tuple_len(0.01):>6} "
              f"window {window:>6.3f} upper-bound ok {upper_ok:>6.3f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Monte-Carlo sweep of the rounding pipeline.

Draws nearly equal-norm Parseval frames across a range of shapes and
nearness levels, rounds each one, and summarises how the achieved
distances compare with the certified bound 26 eps d^2.  Useful for
eyeballing how much slack the worst observed ratio leaves.  Each run
draws d in [--d-min, --d-max], n from d + 2 up to 8 blocks (up to 4d
blocks for d >= 7), one or two columns per block.

    python3 scripts/paulsen_sweep.py --runs 200 --seed 1
"""

import argparse
import json
import math
import time

import numpy as np

from frameiso import is_equal_norm_parseval, paulsen_round
from frameiso.generate import random_nearly_parseval


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--d-min", type=int, default=2)
    parser.add_argument("--d-max", type=int, default=3)
    parser.add_argument("--eps-min", type=float, default=1e-3)
    parser.add_argument("--eps-max", type=float, default=0.29)
    parser.add_argument("--out", default=None, help="write per-run records as JSON")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if not 1 <= args.d_min <= args.d_max:
        parser.error("need 1 <= --d-min <= --d-max")
    if not 0.0 < args.eps_min <= args.eps_max < 0.3:
        parser.error("need 0 < --eps-min <= --eps-max < 0.3")

    rng = np.random.default_rng(args.seed)
    records = []
    start = time.perf_counter()
    for run in range(args.runs):
        d = int(rng.integers(args.d_min, args.d_max + 1))
        n = int(rng.integers(d + 2, 9 if d <= 6 else 4 * d + 1))
        cols = [int(rng.integers(1, 3)) for _ in range(n)]
        eps = float(np.exp(rng.uniform(math.log(args.eps_min), math.log(args.eps_max))))
        frame = random_nearly_parseval(d, cols, eps, rng)
        report = paulsen_round(frame, rng_seed=run)
        records.append(
            {
                "run": run,
                "d": d,
                "cols": cols,
                "epsilon": report.epsilon_used,
                "gamma": report.gamma,
                "dist": report.dist_input_output,
                "bound": report.bound,
                "ratio": report.dist_input_output / report.bound,
                "iterations": report.solver.iterations,
                "certified": report.certified,
                "output_ok": is_equal_norm_parseval(
                    report.output, report.pipeline_tol
                ),
            }
        )
    elapsed = time.perf_counter() - start

    ratios = np.array([r["ratio"] for r in records])
    iters = np.array([r["iterations"] for r in records])
    certified = sum(r["certified"] for r in records)
    print(f"runs:            {len(records)} in {elapsed:.1f}s")
    print(f"certified:       {certified}/{len(records)}")
    scaled = max(r["dist"] / (r["epsilon"] * r["d"] ** 2) for r in records)
    print(f"dist/bound:      median {np.median(ratios):.2e}  max {ratios.max():.2e}"
          f"  (max dist/(eps d^2) {scaled:.2e})")
    print(f"solver iters:    median {int(np.median(iters))}  max {int(iters.max())}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=2)
        print(f"records written: {args.out}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compare the three gradient routes and the Hessian on random frames.

Evaluates the kernel's formula (column squares of the columns rotated
by the inverse Cholesky factor of Q(t)), the minor-expansion ratio
formula, and central finite differences at random scalings, and prints
the worst pairwise discrepancies.  It also compares the analytic Hessian
with central differences of the analytic gradient.

    python3 scripts/gradient_check.py --frames 50 --seed 2
"""

import argparse

import numpy as np

from frameiso import grad_via_minors, is_matrix_frame, log_det_potential_grad
from frameiso.generate import random_frame
from frameiso.objective import _block_pairs, _potential


def finite_difference(frame, t, step=1e-5):
    grad = np.empty(frame.n)
    for i in range(frame.n):
        up, down = t.copy(), t.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (_potential(frame, up).value - _potential(frame, down).value) / (2 * step)
    return grad


def hessian_difference(frame, t, step=1e-5):
    hess = np.empty((frame.n, frame.n))
    for j in range(frame.n):
        up, down = t.copy(), t.copy()
        up[j] += step
        down[j] -= step
        hess[:, j] = (
            log_det_potential_grad(frame, up) - log_det_potential_grad(frame, down)
        ) / (2 * step)
    return hess


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=50)
    parser.add_argument("--points", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    worst_minss = worst_fd = worst_hess = 0.0
    checked = 0
    while checked < args.frames:
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        cols = [int(rng.integers(1, 4)) for _ in range(n)]
        if sum(cols) < d:
            continue
        frame = random_frame(d, cols, rng)
        if not is_matrix_frame(frame):
            continue
        checked += 1
        for _ in range(args.points):
            t = rng.uniform(-1.5, 1.5, n)
            analytic = log_det_potential_grad(frame, t)
            scale = np.maximum(np.abs(analytic), 1e-9)
            worst_minss = max(
                worst_minss,
                float(np.max(np.abs(analytic - grad_via_minors(frame, t)) / scale)),
            )
            worst_fd = max(
                worst_fd,
                float(np.max(np.abs(analytic - finite_difference(frame, t)) / scale)),
            )
            hess = _potential(frame, t).hessian(_block_pairs(frame))
            worst_hess = max(
                worst_hess,
                float(np.max(np.abs(hess - hessian_difference(frame, t)))),
            )
    print(f"frames checked:                 {checked}")
    print(f"worst analytic-vs-minors error: {worst_minss:.3e}")
    print(f"worst analytic-vs-stencil error:{worst_fd:.3e}")
    print(f"worst Hessian-vs-stencil abs error: {worst_hess:.3e}")


if __name__ == "__main__":
    main()

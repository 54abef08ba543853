"""Seeded frame generators for the CLI, tests and experiment scripts."""

from __future__ import annotations

import math

import numpy as np

from .frames import MatrixFrame
from .quiver import nearness

# Rotation sweeps the norm balancing of random_equal_norm_parseval takes
# before it restarts from a fresh partial isometry.
_MAX_SWEEPS = 200
# Rescalings of the noise random_nearly_parseval tries to land its
# measured nearness in [epsilon / 2, 0.98 epsilon].
_NEARNESS_ROUNDS = 4
# Halvings of the noise scale when those rescalings overshoot the cap.
_BISECTION_STEPS = 60


def random_frame(d: int, block_cols, rng) -> MatrixFrame:
    """Standard Gaussian blocks of the requested shape."""
    blocks = tuple(rng.standard_normal((d, cols)) for cols in block_cols)
    return MatrixFrame(d, blocks)


def random_equal_norm_parseval(d: int, block_cols, rng) -> MatrixFrame:
    """Exact equal-norm Parseval frame of the requested block shape.

    Starts from a random partial isometry (pooled columns of an
    orthonormal-column matrix, so the frame operator is exactly the
    identity) and equalises the block Frobenius norms with plane
    rotations acting on pairs of pooled columns.  Right rotations
    preserve the frame operator, so only the norms move.
    """
    block_cols = tuple(int(c) for c in block_cols)
    n = len(block_cols)
    total = sum(block_cols)
    if total < d:
        raise ValueError(f"need at least d={d} pooled columns, got {total}")
    owners = np.repeat(np.arange(n), block_cols)
    target = d / n

    for _ in range(5):
        gauss = rng.standard_normal((total, d))
        q, _ = np.linalg.qr(gauss)
        pooled = q.T.copy()
        if _balance_block_masses(pooled, owners, n, target, d, rng):
            blocks = []
            start = 0
            for cols in block_cols:
                blocks.append(pooled[:, start : start + cols].copy())
                start += cols
            return MatrixFrame(d, tuple(blocks))
    raise RuntimeError("norm balancing did not converge")


def _balance_block_masses(pooled, owners, n, target, d, rng) -> bool:
    total_cols = pooled.shape[1]
    for _ in range(_MAX_SWEEPS):
        masses = np.array(
            [float(np.sum(pooled[:, owners == i] ** 2)) for i in range(n)]
        )
        spread = masses - target
        deviation = float(np.max(np.abs(spread)))
        if deviation < 1e-14 * d:
            return True
        hi = int(np.argmax(spread))
        lo = int(np.argmin(spread))

        # Try every column pair between the two extreme blocks and apply
        # the rotation whose orbit gets closest to the target mass.
        want_delta = target - masses[hi]
        best = None
        for col_hi in np.flatnonzero(owners == hi):
            for col_lo in np.flatnonzero(owners == lo):
                predicted = _predicted_move(pooled, col_hi, col_lo, want_delta)
                if best is None or predicted > best[0]:
                    best = (predicted, col_hi, col_lo)
        _, col_hi, col_lo = best
        moved = _rotate_to_target(pooled, col_hi, col_lo, masses[hi], target)
        if moved < 1e-3 * deviation:
            # The pair's orbit cannot shed mass in the needed direction;
            # mixing in a third column changes the reachable set.
            others = [c for c in range(total_cols) if c not in (col_hi, col_lo)]
            third = int(rng.choice(others))
            _mix_columns(pooled, col_lo, third, rng.uniform(0.3, 1.2))
    return False


def _predicted_move(pooled, col_a, col_b, want_delta) -> float:
    """How much |col_a|^2 can move toward ``want_delta`` under the pair's
    rotation orbit (a sinusoid with the given centre and amplitude)."""
    u = pooled[:, col_a]
    v = pooled[:, col_b]
    a = float(np.dot(u, u))
    b = float(np.dot(v, v))
    cross = float(np.dot(u, v))
    amplitude = math.hypot((a - b) / 2.0, cross)
    want = a + want_delta
    reachable = min(max(want, (a + b) / 2.0 - amplitude), (a + b) / 2.0 + amplitude)
    return abs(reachable - a)


def _rotate_to_target(pooled, col_a, col_b, mass_a, target) -> float:
    """Rotate columns a and b so the block owning a moves toward ``target``.

    The new squared norm of column a is a sinusoid in twice the angle;
    hit the target exactly when reachable, otherwise move to the extreme.
    Returns how much mass actually moved.
    """
    u = pooled[:, col_a].copy()
    v = pooled[:, col_b].copy()
    a = float(np.dot(u, u))
    b = float(np.dot(v, v))
    cross = float(np.dot(u, v))
    # new |u|^2 = (a + b)/2 + (a - b)/2 cos 2th + cross sin 2th
    amplitude = math.hypot((a - b) / 2.0, cross)
    want = (target - mass_a) + a  # desired new |u|^2
    offset = want - (a + b) / 2.0
    if amplitude == 0.0:
        return 0.0
    clipped = min(max(offset / amplitude, -1.0), 1.0)
    phase = math.atan2((a - b) / 2.0, cross)
    two_theta = math.asin(clipped) - phase
    _mix_columns(pooled, col_a, col_b, two_theta / 2.0)
    return abs(float(np.dot(pooled[:, col_a], pooled[:, col_a])) - a)


def _mix_columns(pooled, col_a, col_b, theta):
    u = pooled[:, col_a].copy()
    v = pooled[:, col_b].copy()
    c, s = math.cos(theta), math.sin(theta)
    pooled[:, col_a] = c * u + s * v
    pooled[:, col_b] = -s * u + c * v


def random_nearly_parseval(d: int, block_cols, epsilon: float, rng) -> MatrixFrame:
    """Perturbation of an exact equal-norm Parseval frame with measured
    nearness close to (and below) the requested epsilon."""
    if not 0.0 < epsilon < 0.3:
        raise ValueError("epsilon must lie in (0, 0.3)")
    exact = random_equal_norm_parseval(d, block_cols, rng)
    noise = [rng.standard_normal(b.shape) for b in exact.blocks]
    delta = 0.25 * epsilon / math.sqrt(d)
    def perturbed(scale):
        return MatrixFrame(
            d, tuple(b + scale * h for b, h in zip(exact.blocks, noise))
        )

    frame, used = exact, 0.0
    for _ in range(_NEARNESS_ROUNDS):
        frame, used = perturbed(delta), delta
        measured = nearness(frame).epsilon
        if 0.5 * epsilon <= measured <= 0.98 * epsilon:
            break
        if measured == 0.0:
            delta *= 4.0
        else:
            delta *= 0.9 * epsilon / measured
    if measured >= 0.3:
        # Nearness grows faster than linearly in the noise scale, so the
        # rescaling can overshoot the cap; bisect the scale between the
        # exact frame (nearness 0) and the overshooting one.
        low, high = 0.0, used
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (low + high)
            frame = perturbed(mid)
            measured = nearness(frame).epsilon
            if measured < 0.5 * epsilon:
                low = mid
            elif measured > 0.98 * epsilon:
                high = mid
            else:
                break
    if measured >= 0.3:
        raise RuntimeError("perturbation overshot the nearness cap")
    return frame


def random_degenerate_frame(d: int, n: int, rng) -> tuple:
    """Matrix frame whose uniform weights violate the orbit polytope.

    The first k = floor(n/d) + 1 blocks are collinear single columns, so
    their span is one-dimensional while their weight sum k*d/n exceeds 1.
    Remaining blocks are Gaussian, keeping the frame operator positive
    definite.  Returns (frame, violating subset).
    """
    if n <= d:
        raise ValueError(f"need n > d, got n={n}, d={d}")
    k = n // d + 1
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    blocks = [
        ((0.5 + rng.uniform()) * direction).reshape(d, 1) for _ in range(k)
    ]
    for _ in range(n - k):
        cols = int(rng.integers(1, 3))
        blocks.append(rng.standard_normal((d, cols)))
    return MatrixFrame(d, tuple(blocks)), tuple(range(k))

"""Seeded frame generators for the CLI, tests and experiment scripts.

Exact equal-norm Parseval frames come from the package's own
radial-isotropy solve, as the paper's Barthe-type theorem constructs
them: a generic frame has a radial-isotropic position at the uniform
weights d/n, and scaling each block of that position to squared norm
d/n gives a Parseval frame with equal block norms.  The solve has three
outcomes: converged (the frame), unbounded below (no equal-norm Parseval
frame of the shape exists: ValueError), or a stall, which is met either
by a direct sum along a tight block subset or by a fresh draw.  Nearly
equal-norm Parseval frames perturb an exact one to a measured nearness.
"""

from __future__ import annotations

import math

import numpy as np

from .frames import FrameDatum, MatrixFrame, WeightVector, _equal_norms, _with_columns
from .polytope import orbit_polytope_report
from .quiver import is_equal_norm_parseval, nearness
from .solver import STATUS_CONVERGED, STATUS_UNBOUNDED, SolverConfig, minimize

# Gradient tolerance of the radial-isotropy solve behind
# random_equal_norm_parseval, and the tolerance its frames are Parseval to.
_PARSEVAL_GRAD_TOL = 1e-13
# Partial isometries random_equal_norm_parseval draws before it gives up
# on solves that stall above that tolerance or outputs that miss it.
_MAX_DRAWS = 5
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

    The Barthe-type theorem as a generator.  Draw a random partial
    isometry (the transposed Q of an N x d Gaussian's QR, cut into the
    blocks), whose frame operator is the identity and whose columns are
    generic, so that for n > d the uniform weights d/n lie in the
    relative interior of its orbit polytope.  Solve for radial isotropy
    at those weights, without the membership pre-check (the solve starts
    at the norm-balanced point, so the isometry's unequal block norms
    cost no Newton steps), apply the transformer, and scale every block
    to squared norm d/n: the result is Parseval, with equal block norms,
    to the solve's tolerance.

    The solve's status decides the outcome:

    - ``converged``: the frame is returned when it passes
      ``is_equal_norm_parseval`` at 1e-13, the solve's gradient
      tolerance; a converged solve whose output misses it in the last
      bits is redrawn like a stall;
    - ``unbounded_below``: ValueError naming the violating block subsets.
      Every frame of this shape has its orbit polytope inside a generic
      one's, so no equal-norm Parseval frame of the shape exists;
    - ``max_iters`` (a stall above the tolerance): where a proper block
      subset S is tight, c(S) = r(S) = N_S, the weights lie on the
      polytope's boundary, no minimiser exists, and every equal-norm
      Parseval frame of the shape is a direct sum.  That needs n <= d,
      and the certificate names S: the frame is built as the direct sum
      of one for the blocks of S in the first N_S coordinates and one
      for the other blocks in the last d - N_S (both keep the norm d/n).
      Otherwise a fresh isometry is drawn, and after five draws
      RuntimeError is raised.
    """
    block_cols = tuple(int(c) for c in block_cols)
    n, total = len(block_cols), sum(block_cols)
    if total < d:
        raise ValueError(f"need at least d={d} pooled columns, got {total}")
    weights = WeightVector.uniform(d, n)
    config = SolverConfig(grad_tol=_PARSEVAL_GRAD_TOL, check_polytope=False)
    for _ in range(_MAX_DRAWS):
        q, _ = np.linalg.qr(rng.standard_normal((total, d)))
        blocks = np.split(q.T, np.cumsum(block_cols[:-1]), axis=1)
        isometry = MatrixFrame(d, tuple(blocks))
        datum = FrameDatum(isometry, weights)
        result = minimize(datum, config)
        if result.status == STATUS_CONVERGED:
            frame = _equal_norms(isometry, result.transformer @ isometry.pooled())
            if is_equal_norm_parseval(frame, _PARSEVAL_GRAD_TOL):
                return frame
            continue
        if result.status == STATUS_UNBOUNDED:
            raise ValueError(
                f"no equal-norm Parseval frame with block columns {list(block_cols)}"
                f" in dimension {d}: the weights d/n of block subsets"
                f" {result.polytope.violating_subsets} sum past their rank"
            )
        # For n > d every proper S has c(S) < min(d, N_S): no set is tight.
        if n <= d and (tight := orbit_polytope_report(datum).tight_subsets):
            return _direct_sum(isometry, tight[0], rng)
    raise RuntimeError(
        f"no equal-norm Parseval frame to {_PARSEVAL_GRAD_TOL:g} from the"
        f" radial-isotropy solve on {_MAX_DRAWS} draws"
    )


def _direct_sum(layout: MatrixFrame, subset: tuple, rng) -> MatrixFrame:
    """Equal-norm Parseval frame in ``layout``'s blocks: the blocks of
    ``subset``, N_S columns, span the first N_S coordinates, and the
    other blocks the last d - N_S."""
    inside = np.isin(layout._owner, subset)
    rank = int(inside.sum())
    cols = np.zeros(layout.pooled().shape)
    for rows, mask in ((slice(0, rank), inside), (slice(rank, layout.d), ~inside)):
        part = np.array(layout.block_cols)[np.unique(layout._owner[mask])]
        cols[rows, mask] = random_equal_norm_parseval(rows.stop - rows.start, part, rng).pooled()
    return _with_columns(layout, cols)


def random_nearly_parseval(d: int, block_cols, epsilon: float, rng) -> MatrixFrame:
    """Perturbation of an exact equal-norm Parseval frame with measured
    nearness close to (and below) the requested epsilon."""
    if not 0.0 < epsilon < 0.3:
        raise ValueError("epsilon must lie in (0, 0.3)")
    exact = random_equal_norm_parseval(d, block_cols, rng)
    # One draw per block, in block order, stacked into the pooled layout.
    noise = np.hstack([rng.standard_normal((d, cols)) for cols in exact.block_cols])
    delta = 0.25 * epsilon / math.sqrt(d)
    def perturbed(scale):
        return _with_columns(exact, exact.pooled() + scale * noise)

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

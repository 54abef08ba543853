"""Rounding nearly equal-norm Parseval frames to exactly equal-norm ones.

Pipeline: normalise block norms to sqrt(d/n), solve for radial isotropy
at uniform weights d/n, split the transformer by SVD, rotate into the
diagonal gauge, snap block norms to sqrt(d/n) along the diagonally
scaled directions, and rotate back.  The output is an exact equal-norm
Parseval frame (up to the solver tail) whose squared distance from the
input is certified against the bound 26 * epsilon * d^2.

The frame that is solved is the first of a short list of candidates that
rounds with a certificate.  The first candidate is the normalised input
itself; the others are seeded random perturbations of it, each drawn at
half the magnitude of the one before and kept within the budgets of the
distance argument: every block perturbation has Frobenius norm
h_i <= epsilon / (2n), the norm slack is gamma <= min(1, epsilon),
dist^2 <= epsilon d and the candidate is 4 epsilon-nearly equal-norm
Parseval.  Each candidate is solved at d/n without the membership
pre-check, and the first whose solve converges and whose rounding is
``certified`` (the distance bound and the equal-norm Parseval test of the
output) is returned.  No property of a candidate is enumerated: the
output's own certificate is the acceptance test.

The normalised input's solve converges whenever a minimiser exists at
d/n: in the relative interior of its orbit polytope, and on the boundary
where the frame is polystable, as repeated orthonormal bases are.  Where
it does not (d/n outside, or a boundary without a minimiser) a noise
draw does.  A draw puts the pooled columns in general position with
probability one, and then every proper block subset S has
r(S) >= min(d, |S|) > |S| d/n, because d/n < 1 and |S| < n.  So
c(S) < r(S) for every proper S with r(S) < d, which is theta-stability
of ``quiver.frame_to_rep(frame)`` for the induced integer weight
(``quiver.induced_sigma``): the representation is locally semi-simple,
d/n lies in the relative interior and the minimiser exists.

Every step after the solve works on the pooled d x N matrices of the
frames, never block by block: each rotation is one d x d by d x N
product, the block norms behind the snapping come from one ``reduceat``
over the block starts, the row masses of all blocks form one (d, n)
array, and the six reported distances are sums over pooled differences.
The first candidate and the rounded frame get their block norms of
sqrt(d/n) from ``frames._equal_norms``, the scaling the generators use.
Every check is array-wise too: the majorization of all blocks is one
cumsum down the rows of the row-mass arrays (``majorizes`` is the same
test on one pair of vectors), and the nearness and equal-norm tests take
their block norms from the same pooled helper.  An input whose frame
operator overflows measures inf-nearly and is refused like any input
at or past 0.3.

The distance argument runs through a majorization step: with the
singular values sorted weakly decreasing, the row masses of the helper
frame majorize those of the rotated perturbed frame, coordinates taken
in given order (no sorting).  The transport functional of two such
vectors bounds the l1 gap up to a factor of 2; the pipeline checks the
majorization and the resulting distance inequalities on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .frames import (
    FrameDatum,
    MatrixFrame,
    WeightVector,
    _block_norms_sq,
    _equal_norms,
    _with_columns,
    dist_squared,
)
from .quiver import is_equal_norm_parseval, nearness
from .solver import STATUS_CONVERGED, SolverConfig, SolveResult, minimize

# Perturbation draws tried, each at half the previous magnitude, before
# paulsen_round gives up.
_MAX_RETRIES = 60


def majorizes(v, u, tol: float = 1e-9) -> bool:
    """True when v and u have equal totals and every prefix sum of v
    dominates the one of u, coordinates taken in given order."""
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if v.shape != u.shape or v.ndim != 1:
        raise ValueError("majorization needs two equal-length vectors")
    return _majorizes_columns(v, u, tol)


def _majorizes_columns(v: np.ndarray, u: np.ndarray, tol: float) -> bool:
    """``majorizes(v[:, k], u[:, k], tol)`` for every column k at once,
    by one cumsum down the rows."""
    prefix = np.cumsum(v - u, axis=0)
    return bool(np.all(np.abs(prefix[-1]) <= tol) and np.all(prefix >= -tol))


def majorization_transport(v, u, tol: float = 1e-9) -> float:
    """Transport functional sum_l l (u_l - v_l) of a majorizing pair.

    Equals the sum of the prefix sums of v - u.  Linear in (v, u).
    Raises when v does not majorize u within ``tol``.
    """
    if not majorizes(v, u, tol):
        raise ValueError("precondition failed: v does not majorize u")
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    positions = np.arange(1, v.size + 1)
    return float(np.dot(positions, u - v))


def _candidates(frame: MatrixFrame, epsilon: float, rng_seed: int):
    """Yield (candidate, gamma): the frame with its block norms set to
    sqrt(d/n), then seeded perturbations of it within the budgets of
    ``epsilon``, which is at least the frame's nearness.

    gamma = max_i (n/d)(h_i^2 + 2 h_i) bounds the norm slack of a
    perturbation whose i-th block has Frobenius norm h_i.  A draw is
    yielded only when h_i <= epsilon / (2n), gamma <= min(1, epsilon),
    dist^2(frame, candidate) <= epsilon d and the candidate is
    4 epsilon-nearly equal-norm Parseval; the normalised frame only when
    it meets the last two.  Entries are i.i.d. uniform from one seeded
    generator, the magnitude halved on every draw, at most _MAX_RETRIES
    draws.
    """
    d, n = frame.d, frame.n
    if epsilon >= 0.3:
        raise ValueError(f"epsilon must be below 0.3, got {epsilon}")
    if n <= d:
        raise ValueError(f"need n > d, got n={n}, d={d}")

    # No block is zero: a zero block makes the frame 1-nearly, past 0.3.
    base = _equal_norms(frame, frame.pooled())

    def within_budget(candidate):
        if dist_squared(frame, candidate) > epsilon * d * (1.0 + 1e-9):
            return False
        return nearness(candidate).epsilon <= 4.0 * epsilon * (1.0 + 1e-9)

    if within_budget(base):
        yield base, 0.0

    budget = epsilon / (2.0 * n)
    delta = budget / math.sqrt(d * max(frame.block_cols))
    rng = np.random.default_rng(rng_seed)
    for _ in range(_MAX_RETRIES):
        # One draw per block, in block order, keeps the seeded stream.
        noise = np.hstack(
            [rng.uniform(-delta, delta, size=(d, c)) for c in frame.block_cols]
        )
        h_norms = np.sqrt(_block_norms_sq(frame, noise))
        gamma = float(np.max((n / d) * (h_norms * h_norms + 2.0 * h_norms)))
        if np.max(h_norms) <= budget and gamma <= min(1.0, epsilon):
            candidate = _with_columns(frame, base.pooled() + noise)
            if within_budget(candidate):
                yield candidate, gamma
        delta /= 2.0


def _signed_svd(mat: np.ndarray):
    """SVD with singular values weakly decreasing and a reproducible sign
    convention: each left singular vector's largest-magnitude entry is
    made positive (the right vector flips with it)."""
    u, s, vh = np.linalg.svd(mat)
    pivots = np.argmax(np.abs(u), axis=0)
    flip = u[pivots, np.arange(s.size)] < 0.0
    u[:, flip] = -u[:, flip]
    vh[flip, :] = -vh[flip, :]
    return u, s, vh


@dataclass(frozen=True, eq=False)
class PaulsenReport:
    """Everything a rounding run produced.

    ``certified`` requires both the distance bound
    dist^2(input, output) <= 26 * epsilon_used * d^2 and
    ``output_equal_norm_pmf``, the output passing the equal-norm Parseval
    test at the pipeline tolerance (10x the solver gradient tolerance).
    ``gamma`` is the perturbation norm slack; ``majorization_ok`` records
    the majorization step of the distance argument: the row masses of
    each ``helper`` block majorize those of the ``rotated_perturbed``
    block.
    """

    input_epsilon: float
    epsilon_used: float
    gamma: float
    perturbed: MatrixFrame
    rotated_input: MatrixFrame
    rotated_perturbed: MatrixFrame
    singular_values: np.ndarray
    helper: MatrixFrame
    rounded_rotated: MatrixFrame
    output: MatrixFrame
    majorization_ok: bool
    distances: dict
    dist_input_output: float
    bound: float
    output_equal_norm_pmf: bool
    certified: bool
    pipeline_tol: float
    solver: SolveResult


def paulsen_round(
    frame: MatrixFrame,
    config: Optional[SolverConfig] = None,
    rng_seed: int = 0,
    epsilon_floor: float = 1e-9,
) -> PaulsenReport:
    """Round a nearly equal-norm Parseval frame to an exact one.

    The nearness epsilon is measured from the input rather than trusted
    from the caller; ``epsilon_floor`` keeps the perturbation budget and
    the certificate meaningful for inputs that are already exact.
    Returns the rounding of the first candidate (``_candidates``) whose
    solve converges and whose rounding is certified; failing that, the
    first converged rounding, uncertified.  Raises ValueError on
    epsilon >= 0.3, on n <= d and on a zero block, and RuntimeError when
    no candidate's solve converges (with the last solver result in the
    message).
    """
    if config is None:
        config = SolverConfig()
    measured = nearness(frame).epsilon
    if measured >= 0.3:
        raise ValueError(f"input is {measured:.3g}-nearly; the pipeline needs < 0.3")
    eps = max(measured, epsilon_floor)

    weights = WeightVector.uniform(frame.d, frame.n)
    free = replace(config, check_polytope=False)
    uncertified = result = None
    for perturbed, gamma in _candidates(frame, eps, rng_seed):
        result = minimize(FrameDatum(perturbed, weights), free)
        if result.status != STATUS_CONVERGED:
            continue
        report = _rounding(frame, perturbed, gamma, result, measured, eps)
        if report.certified:
            return report
        if uncertified is None:
            uncertified = report
    if uncertified is not None:
        return uncertified
    last = "no candidate met the budgets" if result is None else (
        f"last status={result.status}, grad_norm={result.grad_norm:.3e}, "
        f"iters={result.iterations}"
    )
    raise RuntimeError(f"no candidate's isotropy solve converged ({last})")


def _rounding(frame, perturbed, gamma, result, measured, eps) -> PaulsenReport:
    """The rounding of ``perturbed`` from its converged solve ``result``."""
    d, n = frame.d, frame.n
    _, sigma, rot_right_t = _signed_svd(result.transformer)
    rot_right = rot_right_t.T

    owner = frame._owner
    rotated_input = _with_columns(frame, rot_right.T @ frame.pooled())
    rotated_perturbed = _with_columns(frame, rot_right.T @ perturbed.pooled())
    cols = rotated_perturbed.pooled()
    scaled = sigma[:, None] * cols
    scaled_norms = np.sqrt(_block_norms_sq(frame, scaled))[owner]
    block_norms = np.sqrt(_block_norms_sq(frame, cols))[owner]
    helper = _with_columns(frame, block_norms * scaled / scaled_norms)
    rounded = _equal_norms(frame, scaled)
    output = _with_columns(frame, rot_right @ rounded.pooled())

    # Row masses as (d, n) arrays, one column per block.
    helper_masses = np.add.reduceat(helper.pooled() ** 2, frame.block_starts, axis=1)
    perturbed_masses = np.add.reduceat(cols**2, frame.block_starts, axis=1)
    mass_tol = 1e-9 * max(1.0, d / n)
    majorization_ok = _majorizes_columns(helper_masses, perturbed_masses, mass_tol)

    distances = {
        "input_perturbed": dist_squared(frame, perturbed),
        "rotated_perturbed_helper": dist_squared(rotated_perturbed, helper),
        "helper_rounded": dist_squared(helper, rounded),
        "rotated_perturbed_rounded": dist_squared(rotated_perturbed, rounded),
        "rotated_input_rounded": dist_squared(rotated_input, rounded),
        "input_output": dist_squared(frame, output),
    }
    bound = 26.0 * eps * d * d
    pipeline_tol = 10.0 * result.grad_tol
    output_equal_norm_pmf = is_equal_norm_parseval(output, pipeline_tol)

    return PaulsenReport(
        input_epsilon=measured,
        epsilon_used=eps,
        gamma=gamma,
        perturbed=perturbed,
        rotated_input=rotated_input,
        rotated_perturbed=rotated_perturbed,
        singular_values=sigma,
        helper=helper,
        rounded_rotated=rounded,
        output=output,
        majorization_ok=majorization_ok,
        distances=distances,
        dist_input_output=distances["input_output"],
        bound=bound,
        output_equal_norm_pmf=output_equal_norm_pmf,
        certified=distances["input_output"] <= bound and output_equal_norm_pmf,
        pipeline_tol=pipeline_tol,
        solver=result,
    )

"""Rounding nearly equal-norm Parseval frames to exactly equal-norm ones.

Pipeline: normalise and perturb the input to a generic frame, solve for
radial isotropy at uniform weights d/n, split the transformer by SVD,
rotate into the diagonal gauge, snap block norms to sqrt(d/n) along the
diagonally scaled directions, and rotate back.  The output is an exact
equal-norm Parseval frame (up to the solver tail) whose squared distance
from the input is certified against the bound 26 * epsilon * d^2.

The perturbed frame is accepted only when it is generic
(``frames.is_generic``: every d pooled columns form a basis, checked for
n > d, which ``perturb_to_generic`` requires).  Genericity makes the
frame's representation stable for the uniform integer weight, hence
locally semi-simple, the hypothesis of the radial-isotropy
equivalences, and it puts the uniform weights d/n in the relative
interior of the orbit polytope: every proper block subset S has
r(S) >= min(d, |S|) > |S| d/n.  The relative interior is the stability
step: it means c(S) < r(S) for every proper S with r(S) < d, which is
theta-stability of ``quiver.frame_to_rep(frame)`` for the induced
integer weight (``quiver.induced_sigma``), so the representation is
locally semi-simple.  The solve therefore runs without the
membership pre-check.  The one exponential step left is the count of
C(N, d) minors behind genericity.  They come from one expansion over the
rows (``frames._exterior_minors``), about d multiply-adds per minor and
no determinant per column selection, and the test still refuses with
EnumerationSizeError above DEFAULT_SIZE_GUARD.

Every step after the solve works on the pooled d x N matrices of the
frames, never block by block: each rotation is one d x d by d x N
product, the block norms behind the snapping come from one ``reduceat``
over the block starts, the row masses of all blocks form one (d, n)
array, and the six reported distances are sums over pooled differences.
Every check is array-wise too: the majorization of all blocks is one
cumsum down the rows of the row-mass arrays, and the nearness and
equal-norm tests take their block norms from the same pooled helper.

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
    DEFAULT_TOL,
    FrameDatum,
    MatrixFrame,
    WeightVector,
    _block_norms_sq,
    _with_columns,
    dist_squared,
    is_generic,
)
from .quiver import is_equal_norm_parseval, nearness
from .solver import STATUS_CONVERGED, SolverConfig, SolveResult, minimize

# Perturbation draws tried, each at half the previous magnitude, before
# perturb_to_generic gives up.
_MAX_RETRIES = 60


def majorizes(v, u, tol: float = 1e-9) -> bool:
    """True when v and u have equal totals and every prefix sum of v
    dominates the one of u, coordinates taken in given order."""
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if v.shape != u.shape or v.ndim != 1:
        raise ValueError("majorization needs two equal-length vectors")
    prefix = np.cumsum(v - u)
    if abs(prefix[-1]) > tol:
        return False
    return bool(np.all(prefix >= -tol))


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


def perturb_to_generic(
    frame: MatrixFrame,
    epsilon: float,
    rng_seed: int,
    tol: float = DEFAULT_TOL,
) -> tuple:
    """Normalise block norms to sqrt(d/n) and perturb until generic.

    Returns (perturbed frame, gamma) where gamma bounds the norm slack
    the perturbation introduced: gamma = max_i (n/d)(h_i^2 + 2 h_i) with
    h_i the Frobenius norm of the i-th perturbation.  Each perturbation
    is kept below epsilon / (2n), which forces gamma <= min(1, epsilon)
    and the distance guarantee dist^2(input, output) <= epsilon * d; both
    are re-verified numerically before returning.

    The zero perturbation is used whenever the normalised frame is
    already generic.  Otherwise entries are drawn i.i.d. uniform from a
    seeded generator, with the magnitude halved on every retry.
    """
    measured = nearness(frame).epsilon
    if measured > epsilon * (1.0 + 1e-12) + 1e-15:
        raise ValueError(
            f"frame is {measured:.3g}-nearly equal-norm, beyond budget {epsilon:.3g}"
        )
    return _perturb_to_generic(frame, epsilon, rng_seed, tol, measured)


def _perturb_to_generic(frame, epsilon, rng_seed, tol, measured) -> tuple:
    """``perturb_to_generic`` for an input whose nearness ``measured`` is
    already known to be within the budget ``epsilon``."""
    d, n = frame.d, frame.n
    if epsilon >= 0.3:
        raise ValueError(f"epsilon must be below 0.3, got {epsilon}")
    if n <= d:
        raise ValueError(f"need n > d, got n={n}, d={d}")

    target = math.sqrt(d / n)
    norms = np.sqrt(_block_norms_sq(frame))
    if np.min(norms) == 0.0:
        raise ValueError("zero block cannot be normalised")
    base = _with_columns(frame, target * frame.pooled() / norms[frame._owner])

    # Zero perturbation wins whenever the normalised frame is already generic.
    if _perturbation_ok(frame, base, epsilon, tol):
        return base, 0.0

    budget = epsilon / (2.0 * n)
    max_cols = max(frame.block_cols)
    delta = budget / math.sqrt(d * max_cols)
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
            if _perturbation_ok(frame, candidate, epsilon, tol):
                return candidate, gamma
        delta /= 2.0
    raise RuntimeError(
        "could not produce a generic perturbation within the retry budget; "
        f"epsilon={epsilon:.3g}, n={n}, d={d}, nearness={measured:.3g}"
    )


def _perturbation_ok(original, candidate, epsilon, tol) -> bool:
    if not is_generic(candidate, tol):
        return False
    if dist_squared(original, candidate) > epsilon * original.d * (1.0 + 1e-9):
        return False
    return nearness(candidate).epsilon <= 4.0 * epsilon * (1.0 + 1e-9)


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
    The genericity test of the perturbation uses ``config.rank_tol``.
    Raises on measured epsilon >= 0.3, on n <= d, and on solver
    non-convergence (with the solver result in the message).
    """
    if config is None:
        config = SolverConfig()
    d, n = frame.d, frame.n
    measured = nearness(frame).epsilon
    if measured >= 0.3:
        raise ValueError(f"input is {measured:.3g}-nearly; the pipeline needs < 0.3")
    eps = max(measured, epsilon_floor)

    # eps >= measured, so the budget check of perturb_to_generic would pass.
    perturbed, gamma = _perturb_to_generic(frame, eps, rng_seed, config.rank_tol, measured)
    datum = FrameDatum(perturbed, WeightVector.uniform(d, n))
    # The perturbed frame is generic, so the uniform weights need no
    # membership pre-check: for every proper block subset S,
    # r(S) >= min(d, |S|) > |S| d/n, because d/n < 1 and |S| < n.
    # The weights therefore lie in the relative interior.
    result = minimize(datum, replace(config, check_polytope=False))
    if result.status != STATUS_CONVERGED:
        raise RuntimeError(
            f"isotropy solve failed (status={result.status}, "
            f"grad_norm={result.grad_norm:.3e}, iters={result.iterations})"
        )

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
    rounded = _with_columns(frame, math.sqrt(d / n) * scaled / scaled_norms)
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

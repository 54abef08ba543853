"""Rounding nearly equal-norm Parseval frames to exactly equal-norm ones.

Pipeline: normalise and perturb the input to a generic frame, solve for
radial isotropy at uniform weights d/n, split the transformer by SVD,
rotate into the diagonal gauge, snap block norms to sqrt(d/n) along the
diagonally scaled directions, and rotate back.  The output is an exact
equal-norm Parseval frame (up to the solver tail) whose squared distance
from the input is certified against the bound 26 * epsilon * d^2.

The perturbed frame is accepted through the genericity certificate
(``has_stability_certificate``), which already puts the uniform weights
in the relative interior of the orbit polytope; the solve therefore runs
without the 2^n subset pre-check.  The one exponential step left is the
C(N, d) minor test behind the certificate, which refuses with
EnumerationSizeError above DEFAULT_SIZE_GUARD.

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
    dist_squared,
)
from .polytope import has_stability_certificate
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
    d, n = frame.d, frame.n
    report = nearness(frame)
    if report.epsilon > epsilon * (1.0 + 1e-12) + 1e-15:
        raise ValueError(
            f"frame is {report.epsilon:.3g}-nearly equal-norm, beyond budget {epsilon:.3g}"
        )
    if epsilon >= 0.3:
        raise ValueError(f"epsilon must be below 0.3, got {epsilon}")
    if n <= d:
        raise ValueError(f"need n > d, got n={n}, d={d}")

    target = math.sqrt(d / n)
    norms = [float(np.linalg.norm(b)) for b in frame.blocks]
    if min(norms) == 0.0:
        raise ValueError("zero block cannot be normalised")
    base_blocks = tuple(target * b / s for b, s in zip(frame.blocks, norms))
    base = MatrixFrame(d, base_blocks)

    # Zero perturbation wins whenever the normalised frame is already generic.
    if _perturbation_ok(frame, base, epsilon, tol):
        return base, 0.0

    budget = epsilon / (2.0 * n)
    max_cols = max(frame.block_cols)
    delta = budget / math.sqrt(d * max_cols)
    rng = np.random.default_rng(rng_seed)
    for _ in range(_MAX_RETRIES):
        noise = [rng.uniform(-delta, delta, size=b.shape) for b in frame.blocks]
        h_norms = [float(np.linalg.norm(h)) for h in noise]
        gamma = max((n / d) * (h * h + 2.0 * h) for h in h_norms)
        if max(h_norms) <= budget and gamma <= min(1.0, epsilon):
            candidate = MatrixFrame(
                d, tuple(b + h for b, h in zip(base_blocks, noise))
            )
            if _perturbation_ok(frame, candidate, epsilon, tol):
                return candidate, gamma
        delta /= 2.0
    raise RuntimeError(
        "could not produce a generic perturbation within the retry budget; "
        f"epsilon={epsilon:.3g}, n={n}, d={d}, nearness={report.epsilon:.3g}"
    )


def _perturbation_ok(original, candidate, epsilon, tol) -> bool:
    if not has_stability_certificate(candidate, tol):
        return False
    if dist_squared(original, candidate) > epsilon * original.d * (1.0 + 1e-9):
        return False
    return nearness(candidate).epsilon <= 4.0 * epsilon * (1.0 + 1e-9)


def _signed_svd(mat: np.ndarray):
    """SVD with singular values weakly decreasing and a reproducible sign
    convention: each left singular vector's largest-magnitude entry is
    made positive (the right vector flips with it)."""
    u, s, vh = np.linalg.svd(mat)
    for k in range(s.size):
        pivot = int(np.argmax(np.abs(u[:, k])))
        if u[pivot, k] < 0.0:
            u[:, k] = -u[:, k]
            vh[k, :] = -vh[k, :]
    return u, s, vh


@dataclass(frozen=True, eq=False)
class PaulsenReport:
    """Everything a rounding run produced.

    ``certified`` requires both the distance bound
    dist^2(input, output) <= 26 * epsilon_used * d^2 and the output
    passing the equal-norm Parseval test at the pipeline tolerance
    (10x the solver gradient tolerance).  ``gamma`` is the perturbation
    norm slack; the row-mass vectors record the majorization data of the
    distance argument (helper masses majorize rotated-perturbed masses).
    """

    input_epsilon: float
    epsilon_used: float
    gamma: float
    perturbed: MatrixFrame
    rotated_input: MatrixFrame
    rotated_perturbed: MatrixFrame
    rotation_left: np.ndarray
    singular_values: np.ndarray
    rotation_right: np.ndarray
    helper: MatrixFrame
    rounded_rotated: MatrixFrame
    output: MatrixFrame
    helper_row_masses: tuple
    perturbed_row_masses: tuple
    majorization_ok: bool
    distances: dict
    dist_input_output: float
    bound: float
    certified: bool
    pipeline_tol: float
    solver: SolveResult
    rng_seed: int


def paulsen_round(
    frame: MatrixFrame,
    config: Optional[SolverConfig] = None,
    rng_seed: int = 0,
    epsilon_floor: float = 1e-9,
    tol: float = DEFAULT_TOL,
) -> PaulsenReport:
    """Round a nearly equal-norm Parseval frame to an exact one.

    The nearness epsilon is measured from the input rather than trusted
    from the caller; ``epsilon_floor`` keeps the perturbation budget and
    the certificate meaningful for inputs that are already exact.
    Raises on measured epsilon >= 0.3, on n <= d, and on solver
    non-convergence (with the solver result in the message).
    """
    if config is None:
        config = SolverConfig()
    d, n = frame.d, frame.n
    measured = nearness(frame).epsilon
    if measured >= 0.3:
        raise ValueError(f"input is {measured:.3g}-nearly; the pipeline needs < 0.3")
    if n <= d:
        raise ValueError(f"need n > d, got n={n}, d={d}")
    eps = max(measured, epsilon_floor)

    perturbed, gamma = perturb_to_generic(frame, eps, rng_seed, tol)
    datum = FrameDatum(perturbed, WeightVector.uniform(d, n))
    # The perturbed frame carries the genericity certificate, so the
    # uniform weights need no subset enumeration: for every proper block
    # subset S, r(S) >= min(d, |S|) > |S| d/n, because d/n < 1 and |S| < n.
    # The weights therefore lie in the relative interior.
    result = minimize(datum, replace(config, check_polytope=False))
    if result.status != STATUS_CONVERGED:
        raise RuntimeError(
            f"isotropy solve failed (status={result.status}, "
            f"grad_norm={result.grad_norm:.3e}, iters={result.iterations})"
        )

    rot_left, sigma, rot_right_t = _signed_svd(result.transformer)
    rot_right = rot_right_t.T

    rotated_input = MatrixFrame(d, tuple(rot_right.T @ b for b in frame.blocks))
    rotated_perturbed = MatrixFrame(
        d, tuple(rot_right.T @ b for b in perturbed.blocks)
    )

    target = math.sqrt(d / n)
    helper_blocks = []
    rounded_blocks = []
    helper_masses = []
    perturbed_masses = []
    for block in rotated_perturbed.blocks:
        scaled = sigma[:, None] * block
        scaled_norm = float(np.linalg.norm(scaled))
        block_norm = float(np.linalg.norm(block))
        helper_block = block_norm * scaled / scaled_norm
        helper_blocks.append(helper_block)
        rounded_blocks.append(target * scaled / scaled_norm)
        helper_masses.append(np.sum(helper_block**2, axis=1))
        perturbed_masses.append(np.sum(block**2, axis=1))
    helper = MatrixFrame(d, tuple(helper_blocks))
    rounded = MatrixFrame(d, tuple(rounded_blocks))
    output = MatrixFrame(d, tuple(rot_right @ b for b in rounded.blocks))

    mass_tol = 1e-9 * max(1.0, d / n)
    majorization_ok = all(
        majorizes(a, b, mass_tol)
        for a, b in zip(helper_masses, perturbed_masses)
    )

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
    certified = distances["input_output"] <= bound and is_equal_norm_parseval(
        output, pipeline_tol
    )

    return PaulsenReport(
        input_epsilon=measured,
        epsilon_used=eps,
        gamma=gamma,
        perturbed=perturbed,
        rotated_input=rotated_input,
        rotated_perturbed=rotated_perturbed,
        rotation_left=rot_left,
        singular_values=sigma,
        rotation_right=rot_right,
        helper=helper,
        rounded_rotated=rounded,
        output=output,
        helper_row_masses=tuple(helper_masses),
        perturbed_row_masses=tuple(perturbed_masses),
        majorization_ok=majorization_ok,
        distances=distances,
        dist_input_output=distances["input_output"],
        bound=bound,
        certified=certified,
        pipeline_tol=pipeline_tol,
        solver=result,
        rng_seed=rng_seed,
    )

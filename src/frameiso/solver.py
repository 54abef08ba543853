"""Minimisation of the scaling objective and extraction of the transformer.

Damped Newton with Armijo backtracking on t -> potential(t) - <t, c>.
Each iteration takes the Newton direction orthogonal to the all-ones
gauge direction (along which the Hessian is singular) from one LU solve,
and falls back to steepest descent when that system is singular or the
direction is not a clear descent direction.
Convergence is declared on the gradient (grad potential - c), which up to
scaling is exactly the radial-isotropy residual users care about.  Each
iterate is recentred so <t, c> = 0; the objective is invariant under that
gauge when the weights sum to d, and recentring keeps the iterates bounded
whenever a minimiser exists.

When the weights fail the orbit-polytope test the infimum is -inf and the
solver reports ``not_semistable`` without iterating (the polytope test is
the exact certificate; divergence detection is corroboration only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .frames import (
    DEFAULT_TOL,
    EnumerationSizeError,
    FrameDatum,
    MatrixFrame,
    apply_transform,
    is_matrix_frame,
)
from .objective import (
    NotPositiveDefiniteError,
    _potential,
    grad_via_minors,
    log_det_potential,
    scaled_frame_operator,
    sym_inverse_sqrt,
)
from .polytope import PolytopeReport, in_orbit_polytope

STATUS_CONVERGED = "converged"
STATUS_UNBOUNDED = "unbounded_below"
STATUS_MAX_ITERS = "max_iters"
STATUS_NOT_SEMISTABLE = "not_semistable"

_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_INIT_STEP = 1.0
# Iterates beyond e^{+-50} exceed what doubles can usefully represent, so
# crossing this cap (or the objective floor) is treated as divergence.
_SCALING_CAP = 50.0
_UNBOUNDED_FLOOR = -1e6
# A Newton direction whose descent slope is below this fraction of |g|^2
# is numerically tangent to the gradient's level set; use -g instead.
_DESCENT_FRACTION = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the damped-Newton loop.

    ``grad_tol`` is the gradient-norm tolerance, 1e-9 * d when left at
    None; ``max_iters`` caps the iterations; ``check_polytope`` runs the
    exact orbit-polytope certificate first and skips the loop for
    non-members (it raises EnumerationSizeError above the size guard,
    n >= 20); ``rank_tol`` is the relative tolerance of the rank and
    positive-definiteness predicates.
    """

    grad_tol: Optional[float] = None
    max_iters: int = 100_000
    check_polytope: bool = True
    rank_tol: float = DEFAULT_TOL

    def effective_grad_tol(self, d: int) -> float:
        return self.grad_tol if self.grad_tol is not None else 1e-9 * d


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of a minimisation.

    ``transformer`` is the symmetric positive definite inverse square
    root of the scaled frame operator at ``t_star``; applying it to the
    frame yields a radial isotropic frame when ``status`` is converged.
    ``extremisers`` are the positive scalars 1 / |transformer @ X_i|_F^2;
    at a true minimiser e^{t*_i} / Y_i = c_i.  ``objective_history``
    records the accepted objective values for descent diagnostics.
    ``polytope`` is the exact certificate's report from the pre-check or
    from the cross-check of an unbounded run; None when neither ran or
    the subset enumeration was over the size guard.
    """

    t_star: np.ndarray
    transformer: Optional[np.ndarray]
    objective_value: float
    grad_norm: float
    extremisers: Optional[np.ndarray]
    status: str
    iterations: int
    grad_tol: float
    objective_history: np.ndarray
    polytope: Optional[PolytopeReport]


def recenter(t: np.ndarray, weight_floats: np.ndarray, d: int) -> np.ndarray:
    """Shift t along the all-ones direction so that <t, c> = 0."""
    return t - (float(np.dot(t, weight_floats)) / d)


def minimize(datum: FrameDatum, config: Optional[SolverConfig] = None) -> SolveResult:
    """Minimise the scaling objective for the given weighted frame."""
    if config is None:
        config = SolverConfig()
    frame, weights = datum.frame, datum.weights
    d = frame.d
    if weights.total() != Fraction(d):
        raise ValueError(f"weights sum to {weights.total()}, need exactly {d}")
    if not is_matrix_frame(frame, config.rank_tol):
        raise ValueError("not a matrix frame: frame operator is not positive definite")

    grad_tol = config.effective_grad_tol(d)
    polytope_report: Optional[PolytopeReport] = None
    if config.check_polytope:
        polytope_report = in_orbit_polytope(datum, config.rank_tol)
        if not polytope_report.member:
            return SolveResult(
                t_star=np.zeros(frame.n),
                transformer=None,
                objective_value=math.nan,
                grad_norm=math.nan,
                extremisers=None,
                status=STATUS_NOT_SEMISTABLE,
                iterations=0,
                grad_tol=grad_tol,
                objective_history=np.empty(0),
                polytope=polytope_report,
            )

    c_floats = weights.as_floats()
    t = np.zeros(frame.n)
    value, state_grad, hess = _potential(frame, t, order=2)
    history = [value]
    status = STATUS_MAX_ITERS
    iterations = 0
    pd_wall_streak = 0
    # Divergence is a matter of certificate, not just of reaching the cap:
    # infeasible weights drive the iterates along the edge of the positive
    # definite cone, where the eigenvalue floor blocks every full step long
    # before |t|_inf can reach the cap.  A run of full-step floor rejections
    # with a still-large gradient is therefore treated as divergence too.
    wall_grad_floor = max(1e3 * grad_tol, 1e-6)

    for iterations in range(1, config.max_iters + 1):
        gradient = state_grad - c_floats
        grad_norm = float(np.linalg.norm(gradient))
        if grad_norm <= grad_tol:
            status = STATUS_CONVERGED
            iterations -= 1
            break

        direction = _newton_direction(hess, gradient)
        step, new_t, new_value, full_step_floored = _line_search(
            frame, t, value, gradient, direction, c_floats
        )
        if step is None:
            if full_step_floored and grad_norm > wall_grad_floor:
                status = STATUS_UNBOUNDED
                break
            # The objective can no longer resolve differences this small,
            # but the gradient still can: take the full step whenever it
            # shrinks the gradient norm, otherwise give up as stalled.
            trial = t + _INIT_STEP * direction
            try:
                _, trial_grad, trial_hess = _potential(frame, trial, order=2)
            except (NotPositiveDefiniteError, OverflowError):
                if grad_norm > wall_grad_floor:
                    status = STATUS_UNBOUNDED
                break
            if float(np.linalg.norm(trial_grad - c_floats)) >= grad_norm:
                break
            t = recenter(trial, c_floats, d)
            state_grad, hess = trial_grad, trial_hess
            history.append(value)
            continue
        pd_wall_streak = pd_wall_streak + 1 if full_step_floored else 0
        if pd_wall_streak >= 5 and grad_norm > wall_grad_floor:
            status = STATUS_UNBOUNDED
            break

        # Recentring adds a multiple of the all-ones vector, which leaves
        # the objective unchanged; reuse the line-search value.
        t = recenter(new_t, c_floats, d)
        value = new_value
        history.append(value)

        if float(np.max(np.abs(t))) > _SCALING_CAP or value < _UNBOUNDED_FLOOR:
            status = STATUS_UNBOUNDED
            break
        try:
            _, state_grad, hess = _potential(frame, t, order=2)
        except NotPositiveDefiniteError:
            # Numerically singular along the current drift: divergence.
            status = STATUS_UNBOUNDED
            break
    else:
        iterations = config.max_iters

    if status == STATUS_UNBOUNDED and polytope_report is None:
        # Cross-check divergence against the exact certificate, where the
        # subset enumeration is small enough to run.
        try:
            polytope_report = in_orbit_polytope(datum, config.rank_tol)
        except EnumerationSizeError:
            pass

    grad_norm = float(np.linalg.norm(state_grad - c_floats))
    transformer = None
    extremisers = None
    if status in (STATUS_CONVERGED, STATUS_MAX_ITERS):
        try:
            transformer = sym_inverse_sqrt(scaled_frame_operator(frame, t))
            residual_norms = np.add.reduceat(
                np.sum((transformer @ frame.pooled()) ** 2, axis=0), frame.block_starts
            )
            extremisers = 1.0 / residual_norms
            grad_norm = float(np.linalg.norm(np.exp(t) * residual_norms - c_floats))
        except NotPositiveDefiniteError:
            # Stalled at the edge of the cone; leave the transformer unset.
            transformer = None
            extremisers = None
    return SolveResult(
        t_star=t,
        transformer=transformer,
        objective_value=value,
        grad_norm=grad_norm,
        extremisers=extremisers,
        status=status,
        iterations=iterations,
        grad_tol=grad_tol,
        objective_history=np.array(history),
        polytope=polytope_report,
    )


def _newton_direction(hess: np.ndarray, gradient: np.ndarray) -> np.ndarray:
    # The Hessian is singular along the all-ones gauge direction, and the
    # gradient is orthogonal to it (both sides of the trace identity sum
    # to d).  Adding a multiple of the all-ones matrix fills that null
    # direction, so one LU solve yields the Newton direction orthogonal to
    # the gauge.  Along a drift with vanishing curvature the solve is
    # singular or its direction barely descends, which would stall the
    # line search; steepest descent is used instead.
    n = len(gradient)
    try:
        direction = -np.linalg.solve(hess + np.trace(hess) / n**2, gradient)
    except np.linalg.LinAlgError:
        return -gradient
    slope = float(np.dot(direction, gradient))
    if -slope <= _DESCENT_FRACTION * float(np.dot(gradient, gradient)):
        return -gradient
    return direction


def _line_search(frame, t, value, gradient, direction, c_floats):
    """Armijo backtracking.

    Returns (step, new_t, new_value, full_step_floored); the last flag
    records whether the initial (largest) trial was rejected by the
    positive-definiteness floor, the signature of sliding along the edge
    of the cone.  Returns (None, None, None, flag) when no step succeeds.
    """
    slope = float(np.dot(gradient, direction))
    step = _INIT_STEP
    full_step_floored = False
    first = True
    # Differences below float resolution of the objective cannot be
    # compared meaningfully; accept non-increase there so descent can
    # continue into the last digits.
    resolution = 256.0 * np.finfo(float).eps * max(1.0, abs(value))
    while step > 1e-20:
        trial = t + step * direction
        try:
            trial_value = log_det_potential(frame, trial) - float(np.dot(trial, c_floats))
        except (NotPositiveDefiniteError, OverflowError):
            if first:
                full_step_floored = True
            first = False
            step *= _BACKTRACK
            continue
        first = False
        required = value + _ARMIJO_C1 * step * slope
        if trial_value <= required:
            return step, trial, trial_value, full_step_floored
        if _ARMIJO_C1 * step * abs(slope) < resolution and trial_value <= value + resolution:
            return step, trial, trial_value, full_step_floored
        step *= _BACKTRACK
    return None, None, None, full_step_floored


def stationarity_residual(datum: FrameDatum, t, minors=None) -> np.ndarray:
    """Residual of the minimiser characterisation in the exponentiated scalings.

    Component i is the minor-sum share of block i minus c_i (the minor
    sums normalised by their total); all components vanish exactly at a
    minimiser of the scaling objective.
    """
    grad = grad_via_minors(datum.frame, t, minors)
    return grad - datum.weights.as_floats()


def to_radial_isotropic(datum: FrameDatum, result: SolveResult) -> MatrixFrame:
    """Apply the converged transformer to the frame."""
    if result.status != STATUS_CONVERGED:
        raise ValueError(f"solver did not converge (status={result.status})")
    return apply_transform(result.transformer, datum.frame)

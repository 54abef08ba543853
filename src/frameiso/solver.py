"""Minimisation of the scaling objective and extraction of the transformer.

Damped Newton with Armijo backtracking on t -> potential(t) - <t, c>.
Each iteration takes the Newton direction orthogonal to the all-ones
gauge direction (along which the Hessian is singular) from one LU solve,
and falls back to steepest descent when that system is singular or the
direction is not a clear descent direction.
Convergence is declared on the gradient (grad potential - c), which up to
scaling is exactly the radial-isotropy residual users care about.  Each
trial point of the line search is recentred so <t, c> = 0 and evaluated
once, into one ``objective._Point`` record; the accepted trial's record
is the next iterate, and the loop carries that record and its objective
value.  The Hessian is formed, by the record, only at an iterate whose
gradient is above the tolerance, for the Newton step taken from it, so
line-search trials and the final point get none; the flat block-pair
index of the column pairs, whose ``bincount`` is its block coupling, is
built once per solve.  The objective is invariant under
the gauge when the weights sum to d, and recentring keeps the iterates
bounded whenever a minimiser exists.

The matrix-frame test comes first, and it is ``frames.is_matrix_frame``
itself: its eigenvalue rule on the frame operator Q(0), which also calls
a frame operator past the float range no matrix frame.  Then the
pre-check runs, and the loop starts at the norm-balanced point
t0 = log c_i - log |X_i|_F^2, recentred, where Q(t0) is, up to a
positive factor, the operator sum_i c_i X_i X_i^T / |X_i|_F^2 of the
block-normalised frame.  Scaling X_i by s_i shifts the objective by an
exact translation of t, so this start removes the block scales before
the first step instead of having Newton steps undo them (a block of
zero norm is left unscaled).  Every
evaluated point costs one Cholesky factor of Q(t); the transformer
Q^{-1/2}(t*) and the extremisers come from the accepted point's record
after the loop, by one ``eigh`` of its Q(t).  A point whose factor could
not decide the eigenvalue floor was decided by an ``eigh`` in the
kernel, and its record keeps that eigendecomposition for the
transformer, so a solve takes one ``eigh`` per such point, and one
more unless the accepted point is one of them.

When the weights fail the orbit-polytope test the infimum is -inf and the
solver reports ``not_semistable`` without iterating; the test is the
polynomial matroid-intersection certificate of
``polytope.certify_membership``, so it runs at any n.  Without the
pre-check the loop asks the same certificate, once, at the first full
Newton step the eigenvalue floor of Q(t) rejects, the signature of t
running off along a degenerate direction: it stops as ``unbounded_below``
when the weights are not a member, and otherwise takes the backtracked
step.  So every status rests on one membership report, built at most
once per solve.  Where the certificate cannot answer, the run goes on
without it: a converged run needs none, since a minimiser shows the
weights are a member, and any other run raises the certificate's error.
The loop stops as ``max_iters`` (stalled) when no step resolves a
decrease of the objective, or when an accepted step moves t by no more
than 256 eps max(1, |t|_inf) in every component and the new gradient is
still above the tolerance.  On weights at the boundary of the
polytope, where no minimiser exists, this is how the run ends.
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
    _block_norms_sq,
    apply_transform,
    is_matrix_frame,
)
from .objective import NotPositiveDefiniteError, _block_pairs, _potential
from .polytope import CertificateError, PolytopeReport, orbit_polytope_report

STATUS_CONVERGED = "converged"
STATUS_UNBOUNDED = "unbounded_below"
STATUS_MAX_ITERS = "max_iters"
STATUS_NOT_SEMISTABLE = "not_semistable"

_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_INIT_STEP = 1.0
# A Newton direction whose descent slope is below this fraction of |g|^2
# is numerically tangent to the gradient's level set; use -g instead.
_DESCENT_FRACTION = 1e-8
# Bound on the components of the balanced start: e^700 is about 1e304.
_MAX_START = 700.0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the damped-Newton loop.

    ``grad_tol`` is the gradient-norm tolerance, 1e-9 * d when left at
    None; ``max_iters`` caps the iterations; ``check_polytope`` runs the
    exact orbit-polytope certificate first and skips the loop for
    non-members.  The certificate is polynomial, so the pre-check runs
    at any n.  Where it cannot answer, because the weights' common
    denominator times max(N, d^2) exceeds DEFAULT_SIZE_GUARD or because
    the frame's column norms differ too widely for its rank rule, the
    pre-check falls back on the subset enumeration while 2^n - 1 is
    within DEFAULT_SIZE_GUARD, and otherwise raises EnumerationSizeError
    or CertificateError (a ValueError).  A run without the pre-check
    that builds the report where it cannot answer raises the same error,
    unless the run converges, which shows the weights are a member.
    ``rank_tol`` is the relative tolerance of the rank and
    positive-definiteness predicates, the certificate included.
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
    at a true minimiser e^{t*_i} / Y_i = c_i.  ``grad_norm`` is
    |grad potential - c| at ``t_star``, from the same kernel evaluation
    as ``objective_value``.  ``status`` is
    ``unbounded_below`` only when a run without the pre-check met the
    eigenvalue floor on a full step and the certificate then found the
    weights outside the orbit polytope, and ``max_iters`` also when the
    loop stalled: no step decreased the objective, or the accepted step
    moved t by at most 256 eps max(1, |t|_inf).  ``polytope`` is the
    exact certificate's report (``polytope.orbit_polytope_report``), at
    any n, from the pre-check or, without it, from the first floored full
    step; None when neither happened, or when the certificate could not
    answer and the run converged.  Its subset lists hold the
    certificate's one violating or tight set, none for a
    relative-interior member, so an ``unbounded_below`` run lists the
    violating set that is the reason for its status.
    """

    t_star: np.ndarray
    transformer: Optional[np.ndarray]
    objective_value: float
    grad_norm: float
    extremisers: Optional[np.ndarray]
    status: str
    iterations: int
    grad_tol: float
    polytope: Optional[PolytopeReport]


def recenter(t: np.ndarray, weight_floats: np.ndarray, d: int) -> np.ndarray:
    """Shift t along the all-ones direction so that <t, c> = 0."""
    return t - (float(t @ weight_floats) / d)


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
        polytope_report = orbit_polytope_report(datum, config.rank_tol)
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
                polytope=polytope_report,
            )

    c_floats = weights.as_floats()
    pairs = _block_pairs(frame)
    point = _potential(frame, _balanced_start(frame, c_floats))
    value = point.objective(c_floats)
    status = STATUS_MAX_ITERS
    stalled = False
    refusal = None
    iterations = 0

    for iterations in range(1, config.max_iters + 1):
        gradient = point.grad - c_floats
        if math.sqrt(float(gradient @ gradient)) <= grad_tol:
            status = STATUS_CONVERGED
        if status == STATUS_CONVERGED or stalled:
            iterations -= 1
            break

        direction = _newton_direction(point.hessian(pairs), gradient)
        accepted, full_step_floored = _line_search(
            frame, point, value, gradient, direction, c_floats
        )
        # A full step rejected by the eigenvalue floor means t is sliding
        # along the edge of the positive definite cone.  It is reported as
        # divergence only when the certificate puts the weights outside
        # the polytope; otherwise the backtracked step is taken.
        if full_step_floored:
            if polytope_report is None and refusal is None:
                try:
                    polytope_report = orbit_polytope_report(datum, config.rank_tol)
                except (CertificateError, EnumerationSizeError) as exc:
                    refusal = exc  # a run that converges needs no report
            if polytope_report is not None and not polytope_report.member:
                status = STATUS_UNBOUNDED
                break
        if accepted is None:
            break  # no step resolves a decrease of the objective
        # A step below the float resolution of t cannot make progress;
        # the run ends as max_iters once the new gradient is tested.
        moved = float(abs(accepted.t - point.t).max())
        stalled = moved <= _resolution(float(abs(point.t).max()))
        point, value = accepted, accepted.objective(c_floats)
    else:
        iterations = config.max_iters
    if refusal is not None and status != STATUS_CONVERGED:
        raise refusal

    transformer = None
    extremisers = None
    if status in (STATUS_CONVERGED, STATUS_MAX_ITERS):
        transformer = point.transformer()
        extremisers = 1.0 / _block_norms_sq(frame, transformer @ frame.pooled())
    return SolveResult(
        t_star=point.t,
        transformer=transformer,
        objective_value=value,
        grad_norm=float(np.linalg.norm(point.grad - c_floats)),
        extremisers=extremisers,
        status=status,
        iterations=iterations,
        grad_tol=grad_tol,
        polytope=polytope_report,
    )


def _balanced_start(frame: MatrixFrame, c_floats: np.ndarray) -> np.ndarray:
    """t0 = log c_i - log |X_i|_F^2, recentred: Q(t0) is a positive multiple
    of sum_i c_i X_i X_i^T / |X_i|_F^2.

    A block whose squared norm is 0 (or underflows to it) keeps the
    scaling of a unit-norm block.  Where the block norms span more than
    the float range of e^t, t0 is clipped to +-700, where e^t and Q(t0)
    stay finite.
    """
    norms_sq = _block_norms_sq(frame)
    log_norms = np.log(norms_sq, out=np.zeros(frame.n), where=norms_sq > 0.0)
    t = recenter(np.log(c_floats) - log_norms, c_floats, frame.d)
    return np.clip(t, -_MAX_START, _MAX_START)


def _resolution(magnitude: float) -> float:
    """Float resolution of a quantity of the given magnitude."""
    return 256.0 * _EPS * max(1.0, magnitude)


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
        direction = -np.linalg.solve(hess + hess.trace() / n**2, gradient)
    except np.linalg.LinAlgError:
        return -gradient
    slope = float(direction @ gradient)
    if -slope <= _DESCENT_FRACTION * float(gradient @ gradient):
        return -gradient
    return direction


def _line_search(frame, point, value, gradient, direction, c_floats):
    """Armijo backtracking from ``point``, whose objective is ``value``,
    with one kernel evaluation per trial point.

    Each trial is recentred before it is evaluated.  Returns (accepted,
    full_step_floored): ``accepted`` is the kernel's ``_Point`` at the
    accepted trial, or None when no step succeeds; the flag records
    whether the initial (largest) trial was rejected by the
    positive-definiteness floor, the signature of sliding along the edge
    of the cone.
    """
    slope = float(gradient @ direction)
    step = _INIT_STEP
    full_step_floored = False
    # Differences below float resolution of the objective cannot be
    # compared meaningfully; accept non-increase there so descent can
    # continue into the last digits.
    resolution = _resolution(abs(value))
    while step > 1e-20:
        trial = recenter(point.t + step * direction, c_floats, frame.d)
        try:
            trial_point = _potential(frame, trial)
        except (NotPositiveDefiniteError, OverflowError):
            full_step_floored = full_step_floored or step == _INIT_STEP
            step *= _BACKTRACK
            continue
        trial_value = trial_point.objective(c_floats)
        required = value + _ARMIJO_C1 * step * slope
        if trial_value <= required or (
            _ARMIJO_C1 * step * abs(slope) < resolution
            and trial_value <= value + resolution
        ):
            return trial_point, full_step_floored
        step *= _BACKTRACK
    return None, full_step_floored


def to_radial_isotropic(datum: FrameDatum, result: SolveResult) -> MatrixFrame:
    """Apply the converged transformer to the frame."""
    if result.status != STATUS_CONVERGED:
        raise ValueError(f"solver did not converge (status={result.status})")
    return apply_transform(result.transformer, datum.frame)

"""The log-determinant objective, its gradients, and the minor-sum oracle.

For a frame {X_i} and per-block log scalings t, the scaled frame operator
is Q(t) = sum_i e^{t_i} X_i X_i^T and the potential is log det Q(t).
The scaling objective subtracts <t, c>; its infimum over t is finite
exactly when the weights c belong to the orbit polytope, and a minimiser
yields the radial-isotropy transformer Q^{-1/2}(t*).

Two independent evaluation routes are provided:

* the production path: one kernel builds Q(t) from the pooled d x N
  matrix and, from a single symmetric eigendecomposition, returns the
  potential, the gradient components e^{t_i} |Q^{-1/2}(t) X_i|_F^2 and,
  on request, the Hessian;
* a combinatorial oracle that expands det Q(t) over all d-column
  selections from the pooled matrix (each selection contributes the
  squared d x d determinant of the chosen columns, scaled by
  e^{sum_l m_l t_l} where m_l counts columns taken from block l), and the
  matching ratio formula for the gradient.

The oracle is exponential in d and gated by a size guard; it exists to
cross-check the production path, not to replace it.  Oracle sums are
accumulated in log space so large scalings do not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# EnumerationSizeError is re-exported for callers of enumerate_minors.
from .frames import (
    DEFAULT_SIZE_GUARD,
    EnumerationSizeError,
    FrameDatum,
    MatrixFrame,
    _column_minors,
    _weighted_operator,
)

# Eigenvalues below this fraction of the largest are treated as zero;
# the theory assumes Q(t) positive definite, we must fail loudly instead.
EIG_FLOOR = 1e-12


class NotPositiveDefiniteError(ValueError):
    """Raised when the scaled frame operator is singular within tolerance."""


def scaled_frame_operator(frame: MatrixFrame, t) -> np.ndarray:
    """Q(t) = sum_i e^{t_i} X_i X_i^T, symmetrised.

    At t = 0 this is the frame operator.  Raises OverflowError when any
    e^{t_i} is non-finite; recentre t (the objective is invariant under
    adding a multiple of the all-ones vector when the weights sum to d).
    """
    return _weighted_operator(frame, _exp_scalings(frame, t))


def _check_scalings(frame: MatrixFrame, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.shape != (frame.n,):
        raise ValueError(f"scalings must have shape ({frame.n},), got {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("scalings must be finite")
    return t


def _exp_scalings(frame: MatrixFrame, t) -> np.ndarray:
    with np.errstate(over="ignore"):
        scale = np.exp(_check_scalings(frame, t))
    if not np.all(np.isfinite(scale)):
        raise OverflowError("e^{t_i} overflowed; recentre the scalings")
    return scale


def _pd_eigh(op: np.ndarray):
    eigvals, eigvecs = np.linalg.eigh(op)
    floor = EIG_FLOOR * max(eigvals[-1], 0.0)
    if eigvals[0] <= floor or eigvals[-1] <= 0.0:
        raise NotPositiveDefiniteError(
            f"operator not positive definite (eigenvalues {eigvals[0]:.3e}"
            f" .. {eigvals[-1]:.3e}); the frame is degenerate along this direction"
        )
    return eigvals, eigvecs


def _potential(frame: MatrixFrame, t, order: int = 1) -> tuple:
    """(log det Q(t), gradient, Hessian) from one eigendecomposition of Q(t).

    Derivatives above ``order`` are returned as None.  With P the pooled
    d x N matrix, Q = U diag(lam) U^T and M = P^T Q^{-1} P, gradient
    component i is e^{t_i} times the sum over block i's columns of
    (U^T P)^2 / lam, and the Hessian is diag(g) - (e^t e^t^T) o S, where
    S_ij sums M o M over the columns of blocks i and j.  The Hessian rows
    sum to zero: the potential is linear along the all-ones direction.
    """
    scale = _exp_scalings(frame, t)
    with np.errstate(over="ignore", invalid="ignore"):
        op = _weighted_operator(frame, scale)
    if not np.all(np.isfinite(op)):
        raise OverflowError("Q(t) overflowed; recentre the scalings")
    eigvals, eigvecs = _pd_eigh(op)
    value = float(np.sum(np.log(eigvals)))
    if order < 1:
        return value, None, None
    starts = frame.block_starts
    rotated = eigvecs.T @ frame.pooled()
    col_sums = np.sum(rotated**2 / eigvals[:, None], axis=0)
    grad = scale * np.add.reduceat(col_sums, starts)
    if order < 2:
        return value, grad, None
    inner = rotated.T @ (rotated / eigvals[:, None])
    coupling = np.add.reduceat(
        np.add.reduceat(inner * inner, starts, axis=0), starts, axis=1
    )
    hess = np.diag(grad) - np.outer(scale, scale) * coupling
    return value, grad, (hess + hess.T) / 2.0


def sym_inverse_sqrt(op: np.ndarray) -> np.ndarray:
    """Inverse square root of a symmetric positive definite matrix."""
    eigvals, eigvecs = _pd_eigh(np.asarray(op, dtype=float))
    return (eigvecs * (eigvals**-0.5)) @ eigvecs.T


def log_det_potential(frame: MatrixFrame, t) -> float:
    """log det Q(t), computed from the eigenvalues of the symmetrised Q."""
    return _potential(frame, t, order=0)[0]


def log_det_potential_grad(frame: MatrixFrame, t) -> np.ndarray:
    """Gradient of the potential: component i is e^{t_i} |Q^{-1/2}(t) X_i|_F^2.

    The components always sum to d (trace identity).
    """
    return _potential(frame, t)[1]


@dataclass(frozen=True)
class MinorTerm:
    """One column selection of total size d with its squared determinant.

    ``support`` lists the blocks that contribute at least one column;
    ``column_sets`` gives, per support block, the within-block column
    indices.  ``value`` is the squared determinant of the selected d x d
    column matrix, hence nonnegative.  Terms at or below the enumeration
    tolerance are flagged ``negligible`` but never dropped.
    """

    support: tuple
    column_sets: tuple
    value: float
    negligible: bool

    def multiplicity(self, block: int) -> int:
        """Number of columns taken from ``block``."""
        try:
            return len(self.column_sets[self.support.index(block)])
        except ValueError:
            return 0


def enumerate_minors(
    frame: MatrixFrame,
    tol: float = 0.0,
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> tuple:
    """All d-column selections of the pooled matrix with their squared minors.

    Selections are returned in lexicographic order of the pooled column
    indices.  Raises EnumerationSizeError when C(N, d) exceeds the guard.
    """
    subsets, dets = _column_minors(frame.pooled(), size_guard)
    owners = frame.column_owners()

    terms = []
    for subset, det in zip(subsets, dets):
        per_block: dict = {}
        for col in subset:
            block, within = owners[col]
            per_block.setdefault(block, []).append(within)
        support = tuple(sorted(per_block))
        column_sets = tuple(tuple(per_block[b]) for b in support)
        value = float(det) ** 2
        terms.append(
            MinorTerm(
                support=support,
                column_sets=column_sets,
                value=value,
                negligible=value <= tol,
            )
        )
    return tuple(terms)


def _minor_arrays(frame: MatrixFrame, minors=None):
    """Multiplicity matrix (terms x n) and log values of the minor terms."""
    if minors is None:
        minors = enumerate_minors(frame)
    mult = np.zeros((len(minors), frame.n))
    log_values = np.full(len(minors), -np.inf)
    for row, term in enumerate(minors):
        for block, cols in zip(term.support, term.column_sets):
            mult[row, block] = len(cols)
        if term.value > 0.0:
            log_values[row] = math.log(term.value)
    return mult, log_values


def _logsumexp(exponents: np.ndarray, weights=None) -> float:
    """log sum_k w_k e^{a_k} for nonnegative weights, -inf when empty/zero."""
    finite = np.isfinite(exponents)
    if weights is not None:
        finite &= weights > 0.0
    if not np.any(finite):
        return -math.inf
    top = float(np.max(exponents[finite]))
    scaled = np.exp(exponents[finite] - top)
    if weights is not None:
        scaled = scaled * weights[finite]
    return top + math.log(float(np.sum(scaled)))


def det_via_minors(frame: MatrixFrame, t, minors=None) -> float:
    """det Q(t) as the minor sum; independent oracle for the direct value."""
    t = _check_scalings(frame, t)
    mult, log_values = _minor_arrays(frame, minors)
    log_det = _logsumexp(mult @ t + log_values)
    return 0.0 if log_det == -math.inf else math.exp(log_det)


def grad_via_minors(frame: MatrixFrame, t, minors=None) -> np.ndarray:
    """Gradient of the potential from the minor-sum ratio formula.

    Component i is the multiplicity-weighted share of block i in the
    minor sum.  Evaluated with log-sum-exp so large scalings survive.
    """
    t = _check_scalings(frame, t)
    mult, log_values = _minor_arrays(frame, minors)
    exponents = mult @ t + log_values
    log_den = _logsumexp(exponents)
    if log_den == -math.inf:
        raise NotPositiveDefiniteError("all minors vanish; not a matrix frame")
    grad = np.empty(frame.n)
    for i in range(frame.n):
        log_num = _logsumexp(exponents, mult[:, i])
        grad[i] = 0.0 if log_num == -math.inf else math.exp(log_num - log_den)
    return grad


def scaling_objective(datum: FrameDatum, t) -> float:
    """Potential minus <t, c>; the function the isotropy solver minimises.

    Invariant under t -> t + s*1 whenever the weights sum to d.
    """
    value = log_det_potential(datum.frame, t)
    return value - float(np.dot(np.asarray(t, dtype=float), datum.weights.as_floats()))


def log_capacity(datum: FrameDatum, f_value: float) -> float:
    """Log capacity from the objective infimum: f + sum_i c_i log c_i.

    A -inf infimum (weights outside the polytope) propagates to -inf,
    the zero-capacity convention.
    """
    if f_value == -math.inf:
        return -math.inf
    entropy = sum(float(c) * math.log(float(c)) for c in datum.weights.weights)
    return float(f_value) + entropy

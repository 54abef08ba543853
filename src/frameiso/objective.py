"""The log-determinant objective, its gradients, and the minor-sum oracle.

For a frame {X_i} and per-block log scalings t, the scaled frame operator
is Q(t) = sum_i e^{t_i} X_i X_i^T and the potential is log det Q(t).
The scaling objective subtracts <t, c>; its infimum over t is finite
exactly when the weights c belong to the orbit polytope, and a minimiser
yields the radial-isotropy transformer Q^{-1/2}(t*).

Two independent evaluation routes are provided:

* the production path: with S = P e^{t/2} the pooled d x N matrix P,
  block i's columns scaled by e^{t_i/2}, Q(t) = S S^T comes from the
  package's one builder of frame operators (``frames._operator``), so it
  is exactly symmetric.  ``scaled_frame_operator`` returns it, and
  refuses an e^{t_i} or a Q(t) past the float range with OverflowError.
  One kernel forms S once and reuses it: it builds Q(t) from S, takes
  one symmetric eigendecomposition Q = U diag(lam) U^T, rotates S into
  R = diag(lam)^{-1/2} U^T S, and reads the gradient components
  e^{t_i} |Q^{-1/2}(t) X_i|_F^2 off the column squares of R.  It
  returns the potential, the gradient, R and the eigendecomposition
  itself, so a caller forms Q^{-1/2}(t) at that point without a second
  ``eigh``.  The Hessian is formed from R only where a caller needs it:
  its block coupling is one indicator product E^T (G o G) E over the
  N x N Gram matrix G = R^T R, E the N x n 0/1 matrix of column owners,
  which a solve builds once;
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
    EnumerationSizeError,
    FrameDatum,
    MatrixFrame,
    _column_minors,
    _operator,
    _scaled_columns,
)

# e^t is finite exactly up to the log of the largest float.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

# Eigenvalues below this fraction of the largest are treated as zero;
# the theory assumes Q(t) positive definite, we must fail loudly instead.
EIG_FLOOR = 1e-12


class NotPositiveDefiniteError(ValueError):
    """Raised when the scaled frame operator is singular within tolerance."""


def scaled_frame_operator(frame: MatrixFrame, t) -> np.ndarray:
    """Q(t) = sum_i e^{t_i} X_i X_i^T, exactly symmetric.

    At t = 0 this is the frame operator.  Raises OverflowError when any
    e^{t_i} or any entry of Q(t) is non-finite; recentre t (the objective
    is invariant under adding a multiple of the all-ones vector when the
    weights sum to d).
    """
    return _columns_and_operator(frame, t)[1]


def _columns_and_operator(frame: MatrixFrame, t) -> tuple:
    """(S, Q(t)) with S = P e^{t/2} the pooled columns, block i's scaled by
    e^{t_i/2}, and Q(t) = S S^T from the frames builder.

    Checks the scalings, and raises OverflowError when some e^{t_i}
    leaves the float range (read off max t, without forming e^t) or
    when Q(t) does.
    """
    t = _check_scalings(frame, t)
    if np.max(t) > _LOG_FLOAT_MAX:
        raise OverflowError("e^{t_i} overflowed; recentre the scalings")
    cols = _scaled_columns(frame, np.exp(0.5 * t))
    try:
        return cols, _operator(cols)
    except OverflowError:
        raise OverflowError("Q(t) overflowed; recentre the scalings") from None


def _check_scalings(frame: MatrixFrame, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.shape != (frame.n,):
        raise ValueError(f"scalings must have shape ({frame.n},), got {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("scalings must be finite")
    return t


def _check_floor(eigvals: np.ndarray) -> None:
    floor = EIG_FLOOR * max(eigvals[-1], 0.0)
    if eigvals[0] <= floor or eigvals[-1] <= 0.0:
        raise NotPositiveDefiniteError(
            f"operator not positive definite (eigenvalues {eigvals[0]:.3e}"
            f" .. {eigvals[-1]:.3e}); the frame is degenerate along this direction"
        )


def _potential(frame: MatrixFrame, t) -> tuple:
    """(log det Q(t), gradient, rotated columns, (eigvals, eigvecs)) from
    one eigendecomposition of Q(t).

    The eigendecomposition passes the eigenvalue floor first and is
    returned as the last entry, so the caller can form Q^{-1/2}(t) from
    it.  The scaled columns S = P e^{t/2} are formed once and serve
    three times: Q(t) = S S^T, the rotated columns R = diag(lam)^{-1/2}
    U^T S for Q = U diag(lam) U^T, and through R the gradient, whose
    component i sums the column squares of R over block i's columns.
    Scaling by e^{t/2} keeps every entry of R bounded when some e^{t_i}
    is huge, where the product e^{t_i} e^{t_j} would overflow.
    ``_hessian`` forms the Hessian at the same point from the gradient
    and R.
    """
    cols, op = _columns_and_operator(frame, t)
    eigvals, eigvecs = eig = np.linalg.eigh(op)
    _check_floor(eigvals)
    value = float(np.sum(np.log(eigvals)))
    rotated = (eigvecs.T @ cols) / np.sqrt(eigvals)[:, None]
    grad = np.add.reduceat(np.einsum("ij,ij->j", rotated, rotated), frame.block_starts)
    return value, grad, rotated, eig


def _owner_indicator(frame: MatrixFrame) -> np.ndarray:
    """The N x n 0/1 matrix E whose column i marks block i's columns."""
    owners = np.zeros((frame.total_cols, frame.n))
    owners[np.arange(frame.total_cols), frame._owner] = 1.0
    return owners


def _hessian(owners: np.ndarray, grad: np.ndarray, rotated: np.ndarray) -> np.ndarray:
    """Hessian of the potential from ``_potential``'s gradient and rotated
    columns R at one point: diag(g) - E^T (G o G) E, with G = R^T R and
    E = ``owners`` the frame's ``_owner_indicator``, so one indicator
    product sums G o G over the columns of every pair of blocks.  Its
    rows sum to zero: the potential is linear along the all-ones
    direction.  The product is not symmetrised; the LU solve it feeds
    does not need symmetry.
    """
    inner = rotated.T @ rotated
    inner *= inner
    hess = -(owners.T @ inner @ owners)
    hess.flat[:: len(grad) + 1] += grad
    return hess


def _inverse_sqrt(eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """U diag(lam)^{-1/2} U^T from a symmetric eigendecomposition."""
    return (eigvecs * (eigvals**-0.5)) @ eigvecs.T


def log_det_potential(frame: MatrixFrame, t) -> float:
    """log det Q(t), computed from the eigenvalues of Q(t)."""
    return _potential(frame, t)[0]


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


def enumerate_minors(frame: MatrixFrame, tol: float = 0.0) -> tuple:
    """All d-column selections of the pooled matrix with their squared minors.

    Selections are returned in lexicographic order of the pooled column
    indices.  Raises EnumerationSizeError when C(N, d) exceeds
    DEFAULT_SIZE_GUARD, before anything is allocated.
    """
    owners = frame._owner.tolist()
    starts = frame.block_starts.tolist()

    terms = []
    for selections, dets in _column_minors(frame.pooled()):
        for subset, det in zip(selections.tolist(), dets.tolist()):
            per_block: dict = {}
            for col in subset:
                block = owners[col]
                per_block.setdefault(block, []).append(col - starts[block])
            support = tuple(sorted(per_block))
            column_sets = tuple(tuple(per_block[b]) for b in support)
            value = det**2
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
    """Owner blocks (terms x d) of each term's columns, and the log squared minors.

    Without ``minors`` the arrays are filled chunk by chunk from the
    column minors, so no per-selection object is built; given
    ``MinorTerm``s, they are converted.
    """
    if minors is None:
        chunks = [
            (frame._owner[selections], dets**2)
            for selections, dets in _column_minors(frame.pooled())
        ]
        owners = np.concatenate([owner for owner, _ in chunks])
        values = np.concatenate([value for _, value in chunks])
    else:
        rows = [
            [block for block, cols in zip(term.support, term.column_sets) for _ in cols]
            for term in minors
        ]
        owners = np.array(rows, dtype=np.intp).reshape(len(minors), frame.d)
        values = np.array([term.value for term in minors], dtype=float)
    with np.errstate(divide="ignore"):
        return owners, np.log(values)


def _logsumexp(exponents: np.ndarray) -> float:
    """log sum_k e^{a_k}, -inf when empty or all terms are zero."""
    finite = exponents[np.isfinite(exponents)]
    if not finite.size:
        return -math.inf
    top = float(np.max(finite))
    return top + math.log(float(np.sum(np.exp(finite - top))))


def det_via_minors(frame: MatrixFrame, t, minors=None) -> float:
    """det Q(t) as the minor sum; independent oracle for the direct value."""
    t = _check_scalings(frame, t)
    owners, log_values = _minor_arrays(frame, minors)
    log_det = _logsumexp(t[owners].sum(axis=1) + log_values)
    return 0.0 if log_det == -math.inf else math.exp(log_det)


def grad_via_minors(frame: MatrixFrame, t, minors=None) -> np.ndarray:
    """Gradient of the potential from the minor-sum ratio formula.

    Component i is the multiplicity-weighted share of block i in the
    minor sum.  Evaluated with log-sum-exp so large scalings survive.
    """
    t = _check_scalings(frame, t)
    owners, log_values = _minor_arrays(frame, minors)
    exponents = t[owners].sum(axis=1) + log_values
    log_den = _logsumexp(exponents)
    if log_den == -math.inf:
        raise NotPositiveDefiniteError("all minors vanish; not a matrix frame")
    # Each term's share counts once for every column it takes from a block.
    shares = np.exp(exponents - log_den)
    return np.bincount(
        owners.ravel(), weights=np.repeat(shares, frame.d), minlength=frame.n
    )


def log_capacity(datum: FrameDatum, f_value: float) -> float:
    """Log capacity from the objective infimum: f + sum_i c_i log c_i.

    A -inf infimum (weights outside the polytope) propagates to -inf,
    the zero-capacity convention.
    """
    if f_value == -math.inf:
        return -math.inf
    entropy = sum(float(c) * math.log(float(c)) for c in datum.weights.weights)
    return float(f_value) + entropy

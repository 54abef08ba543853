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
  is exactly symmetric; an e^{t_i} or a Q(t) past the float range is
  refused with OverflowError.  One kernel forms S once and reuses it:
  it builds Q(t) from S, factors Q = L L^T by Cholesky, rotates S into
  R = L^{-1} S, takes log det Q(t) = 2 sum_k log L_kk and reads the
  gradient components e^{t_i} |Q^{-1/2}(t) X_i|_F^2 off the column
  squares of R.  The factor decides the eigenvalue floor only where
  tr(Q) |L^{-1}|_F^2, a bound on lambda_max / lambda_min, clears it by a
  factor of two; elsewhere, and where ``cholesky`` fails, one symmetric
  eigendecomposition Q = U diag(lam) U^T decides the point and gives
  R = diag(lam)^{-1/2} U^T S.  Both rotations give the same
  R^T R = S^T Q^{-1} S.  Either route returns one record, ``_Point``,
  which keeps Q(t) and, where that route took one, its
  eigendecomposition, so the transformer Q^{-1/2}(t) of a solve's
  accepted point costs one ``eigh`` at most.  The record forms the
  Hessian from R only where a caller asks for it: its block coupling
  sums G o G, G = R^T R the N x N Gram matrix, over the columns of every
  pair of blocks with one ``bincount`` on the flat index
  owner(a) n + owner(b) of each column pair, which a solve builds once,
  so the coupling costs O(N^2);
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


def _columns_and_operator(frame: MatrixFrame, t) -> tuple:
    """(S, Q(t)) with S = P e^{t/2} the pooled columns, block i's scaled by
    e^{t_i/2}, and Q(t) = S S^T from the frames builder.

    Checks the scalings, and raises OverflowError when some e^{t_i}
    leaves the float range (read off max t, without forming e^t) or
    when Q(t) does.
    """
    t = _check_scalings(frame, t)
    if t.max() > _LOG_FLOAT_MAX:
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
    if not np.isfinite(t).all():
        raise ValueError("scalings must be finite")
    return t


def _check_floor(eigvals: np.ndarray) -> None:
    floor = EIG_FLOOR * max(eigvals[-1], 0.0)
    if eigvals[0] <= floor or eigvals[-1] <= 0.0:
        raise NotPositiveDefiniteError(
            f"operator not positive definite (eigenvalues {eigvals[0]:.3e}"
            f" .. {eigvals[-1]:.3e}); the frame is degenerate along this direction"
        )


@dataclass(frozen=True, slots=True)
class _Point:
    """The kernel's evaluation at one point t.

    ``value`` is log det Q(t) and ``grad`` its gradient; ``rotated`` holds
    the rotated columns R, with R^T R = S^T Q^{-1} S on either route;
    ``operator`` is Q(t); ``eig`` is its eigendecomposition
    (eigvals, eigvecs) where the eigen route decided the point, and None
    where the Cholesky factor did.
    """

    t: np.ndarray
    value: float
    grad: np.ndarray
    rotated: np.ndarray
    operator: np.ndarray
    eig: tuple | None

    def hessian(self, pairs: np.ndarray) -> np.ndarray:
        """Hessian of the potential at this point: diag(g) minus the block
        sums of G o G, with G = R^T R.  ``pairs`` is the frame's
        ``_block_pairs``, so one ``bincount`` sums G o G over the columns
        of every pair of blocks in O(N^2).  Its rows sum to zero: the
        potential is linear along the all-ones direction.  The sum is not
        symmetrised; the LU solve it feeds does not need symmetry.
        """
        n = len(self.grad)
        inner = self.rotated.T @ self.rotated
        inner *= inner
        hess = -np.bincount(pairs, weights=inner.ravel(), minlength=n * n).reshape(n, n)
        hess.flat[:: n + 1] += self.grad
        return hess

    def transformer(self) -> np.ndarray:
        """Q^{-1/2}(t), from ``eig`` where the point has it and otherwise
        from one ``eigh`` of Q(t); the kernel accepted the point, so Q(t)
        passed the floor."""
        eig = np.linalg.eigh(self.operator) if self.eig is None else self.eig
        return _inverse_sqrt(*eig)

    def objective(self, c_floats: np.ndarray) -> float:
        """The scaling objective log det Q(t) - <t, c> at this point."""
        return self.value - float(self.t @ c_floats)


def _potential(frame: MatrixFrame, t) -> _Point:
    """The ``_Point`` at t, from one Cholesky factor Q(t) = L L^T.

    The scaled columns S = P e^{t/2} are formed once and serve three
    times: Q(t) = S S^T, the rotated columns R = L^{-1} S, and through R
    the gradient, whose component i sums the column squares of R over
    block i's columns.  Scaling by e^{t/2} keeps every entry of R
    bounded when some e^{t_i} is huge, where the product e^{t_i} e^{t_j}
    would overflow.

    The point passes the eigenvalue floor on the factor alone when
    2 EIG_FLOOR tr(Q) |L^{-1}|_F^2 <= 1: since lambda_max <= tr(Q) and
    1 / lambda_min <= tr(Q^{-1}) = |L^{-1}|_F^2, lambda_min / lambda_max
    is then at least twice the floor, a margin rounding cannot cross.
    Otherwise, or where ``cholesky`` fails, ``_eigen_potential`` decides
    the point by ``_check_floor`` and raises NotPositiveDefiniteError
    below it.
    """
    t = np.asarray(t, dtype=float)
    cols, op = _columns_and_operator(frame, t)
    try:
        factor = np.linalg.cholesky(op)
        inv_factor = np.linalg.inv(factor)
    except np.linalg.LinAlgError:
        return _eigen_potential(frame, t, cols, op)
    # Python floats and vdot overflow to inf without a numpy warning, and
    # the comparison sends a NaN bound to the eigen route too.
    bound = sum(op.diagonal().tolist()) * float(np.vdot(inv_factor, inv_factor))
    if not 2.0 * EIG_FLOOR * bound <= 1.0:
        return _eigen_potential(frame, t, cols, op)
    value = 2.0 * float(np.log(factor.diagonal()).sum())
    rotated = inv_factor @ cols
    return _Point(t, value, _block_squares(frame, rotated), rotated, op, None)


def _eigen_potential(frame: MatrixFrame, t: np.ndarray, cols: np.ndarray, op: np.ndarray) -> _Point:
    """``_potential`` at a point its factor cannot decide, from one
    eigendecomposition Q(t) = U diag(lam) U^T, which passes the
    eigenvalue floor first: R = diag(lam)^{-1/2} U^T S, and the record
    keeps (lam, U) as ``eig``."""
    eigvals, eigvecs = eig = np.linalg.eigh(op)
    _check_floor(eigvals)
    value = float(np.log(eigvals).sum())
    rotated = (eigvecs.T @ cols) / np.sqrt(eigvals)[:, None]
    return _Point(t, value, _block_squares(frame, rotated), rotated, op, eig)


def _block_squares(frame: MatrixFrame, rotated: np.ndarray) -> np.ndarray:
    """The column squares of R summed over each block's columns."""
    return np.add.reduceat(np.einsum("ij,ij->j", rotated, rotated), frame.block_starts)


def _block_pairs(frame: MatrixFrame) -> np.ndarray:
    """The flat block-pair index owner(a) n + owner(b) of every column pair
    (a, b), in the row-major order of the N x N Gram matrix."""
    owner = frame._owner
    return (owner[:, None] * frame.n + owner).ravel()


def _inverse_sqrt(eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """U diag(lam)^{-1/2} U^T from a symmetric eigendecomposition."""
    return (eigvecs * (eigvals**-0.5)) @ eigvecs.T


def log_det_potential_grad(frame: MatrixFrame, t) -> np.ndarray:
    """Gradient of the potential: component i is e^{t_i} |Q^{-1/2}(t) X_i|_F^2.

    The components always sum to d (trace identity).
    """
    return _potential(frame, t).grad


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


def _minor_arrays(frame: MatrixFrame):
    """Owner blocks (terms x d) of each term's columns, and the log squared minors.

    The arrays are filled chunk by chunk from the column minors, so no
    per-selection object is built.
    """
    chunks = [
        (frame._owner[selections], dets**2)
        for selections, dets in _column_minors(frame.pooled())
    ]
    owners = np.concatenate([owner for owner, _ in chunks])
    values = np.concatenate([value for _, value in chunks])
    with np.errstate(divide="ignore"):
        return owners, np.log(values)


def _logsumexp(exponents: np.ndarray) -> float:
    """log sum_k e^{a_k}, -inf when empty or all terms are zero."""
    finite = exponents[np.isfinite(exponents)]
    if not finite.size:
        return -math.inf
    top = float(np.max(finite))
    return top + math.log(float(np.sum(np.exp(finite - top))))


def det_via_minors(frame: MatrixFrame, t) -> float:
    """det Q(t) as the minor sum; independent oracle for the direct value."""
    t = _check_scalings(frame, t)
    owners, log_values = _minor_arrays(frame)
    log_det = _logsumexp(t[owners].sum(axis=1) + log_values)
    return 0.0 if log_det == -math.inf else math.exp(log_det)


def grad_via_minors(frame: MatrixFrame, t) -> np.ndarray:
    """Gradient of the potential from the minor-sum ratio formula.

    Component i is the multiplicity-weighted share of block i in the
    minor sum.  Evaluated with log-sum-exp so large scalings survive.
    """
    t = _check_scalings(frame, t)
    owners, log_values = _minor_arrays(frame)
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

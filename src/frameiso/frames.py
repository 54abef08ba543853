"""Core types and arithmetic for weighted matrix frames.

A matrix frame is an ordered collection of real matrices sharing a row
dimension d; its frame operator is the sum of the blockwise outer
products.  This module holds the frame and weight containers plus the
elementary operations everything else builds on: transforms, squared
distances, and column-span ranks of block subsets.

Every weighted operator sum_i w_i X_i X_i^T in the package comes from
one builder, ``_operator``, as S S^T over the scaled pooled columns
S = P sqrt(w): the frame operator, the weighted Parseval and
radial-isotropy residuals, the certificate's floor and the objective's
Q(t).  The product of a matrix with its own transpose comes out exactly
symmetric, so no caller symmetrises it, and an operator past the float
range raises OverflowError instead of warning and returning inf.

The package's one C(N, d) minor enumeration, ``_column_minors``, lives
here too.  It is exponential in d and refuses inputs past a size guard;
only the minor-sum oracle in ``objective`` reads it, and no solver,
rounding or ``check`` path does.

All operations are pure functions of immutable values.  A frame holds
one read-only pooled matrix, copied on construction and made afresh by
each transform, and its blocks are views on access, so frames behave
like values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

import numpy as np

# Relative tolerance used by the rank / positive-definiteness predicates.
# Every predicate also takes an explicit ``tol`` so tests can tighten it.
DEFAULT_TOL = 1e-9

# Most objects (column selections, block subsets) an exact enumeration may
# visit before it refuses with EnumerationSizeError.
DEFAULT_SIZE_GUARD = 1_000_000


class EnumerationSizeError(RuntimeError):
    """Raised when an exact enumeration would exceed the size guard."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class MatrixFrame:
    """Ordered blocks X_1..X_n, each of shape d x d_i with finite real entries.

    The blocks are copied once, into a read-only pooled d x N matrix,
    which with the block layout is all a frame holds: ``block_cols`` has
    the column counts (d_1, ..., d_n), ``block_starts`` the offset of
    each block's first pooled column and ``_owner`` each pooled column's
    block.  ``blocks`` gives views of the pooled matrix on access.
    Construction checks every block's shape and then makes one
    finiteness pass over the pooled matrix.  Frames are immutable:
    setting or deleting an attribute raises FrozenInstanceError.
    """

    __slots__ = ("d", "block_cols", "block_starts", "_owner", "_pooled")

    def __init__(self, d: int, blocks):
        if not isinstance(d, int) or d < 1:
            raise ValueError("d must be a positive integer")
        arrays = []
        for i, mat in enumerate(blocks):
            arr = np.asarray(mat, dtype=float)
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1)
            if arr.ndim != 2:
                raise ValueError(f"block {i}: expected a matrix, got ndim={arr.ndim}")
            if arr.shape[0] != d:
                raise ValueError(f"block {i}: has {arr.shape[0]} rows, frame needs {d}")
            if arr.shape[1] < 1:
                raise ValueError(f"block {i}: needs at least one column")
            arrays.append(arr)
        if not arrays:
            raise ValueError("a frame needs at least one block")
        cols = tuple(a.shape[1] for a in arrays)
        starts = _freeze(np.cumsum((0,) + cols[:-1]))
        owner = _freeze(np.repeat(np.arange(len(cols)), cols))
        self._adopt(d, np.hstack(arrays), cols, starts, owner)

    def _adopt(self, d, pooled, cols, starts, owner):
        """Freeze ``pooled`` and keep it as the frame's d x N columns, laid
        out in blocks by ``cols``, ``starts`` and the column ``owner``
        indices.

        The frame's one finiteness check; it names the first block that
        holds a non-finite entry.
        """
        finite = np.isfinite(pooled).all(axis=0)
        if not finite.all():
            raise ValueError(f"block {owner[np.argmin(finite)]}: non-finite entries")
        _freeze(pooled)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "block_cols", cols)
        object.__setattr__(self, "_pooled", pooled)
        object.__setattr__(self, "_owner", owner)
        object.__setattr__(self, "block_starts", starts)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return MatrixFrame, (self.d, self.blocks)

    @property
    def blocks(self) -> tuple:
        """The blocks as read-only views of the pooled matrix, in a new
        tuple on each access."""
        pooled = self._pooled
        return tuple(
            pooled[:, s : s + c] for s, c in zip(self.block_starts.tolist(), self.block_cols)
        )

    @property
    def n(self) -> int:
        return len(self.block_cols)

    @property
    def total_cols(self) -> int:
        """N = d_1 + ... + d_n."""
        return self._pooled.shape[1]

    def pooled(self) -> np.ndarray:
        """All columns side by side as a read-only d x N matrix, in block order."""
        return self._pooled

    def __eq__(self, other):
        if not isinstance(other, MatrixFrame):
            return NotImplemented
        return (
            self.d == other.d
            and self.block_cols == other.block_cols
            and np.array_equal(self._pooled, other._pooled)
        )

    __hash__ = None

    def __repr__(self):
        return f"MatrixFrame(d={self.d}, block_cols={self.block_cols})"


def _as_weight(value, index: int) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            f"weight {index}: floats are inexact, pass a Fraction, int or 'p/q' string"
        )
    frac = value if type(value) is Fraction else Fraction(value)
    if frac <= 0:
        raise ValueError(f"weight {index}: must be positive, got {frac}")
    return frac


@dataclass(frozen=True)
class WeightVector:
    """Positive rational weights c_1..c_n held exactly as Fractions.

    The common denominator omega, the integer numerators omega c_i and a
    read-only float copy of the weights are derived once, on
    construction; equality and hashing read ``weights`` only.
    """

    weights: tuple

    def __post_init__(self):
        ws = tuple(_as_weight(w, i) for i, w in enumerate(self.weights))
        if not ws:
            raise ValueError("need at least one weight")
        object.__setattr__(self, "weights", ws)
        omega = math.lcm(*(w.denominator for w in ws))
        self._derive(
            omega,
            tuple(w.numerator * (omega // w.denominator) for w in ws),
            np.array([float(w) for w in ws]),
        )

    @classmethod
    def uniform(cls, d: int, n: int) -> "WeightVector":
        """The weight vector (d/n, ..., d/n): one weight, checked and
        converted once."""
        if n < 1:
            raise ValueError("need at least one weight")
        weight = _as_weight(Fraction(d, n), 0)
        vec = object.__new__(cls)
        object.__setattr__(vec, "weights", (weight,) * n)
        vec._derive(weight.denominator, (weight.numerator,) * n, np.full(n, float(weight)))
        return vec

    def _derive(self, omega: int, scaled: tuple, floats: np.ndarray) -> None:
        object.__setattr__(self, "_omega", omega)
        object.__setattr__(self, "_scaled", scaled)
        object.__setattr__(self, "_floats", _freeze(floats))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def omega(self) -> int:
        """Least common denominator of the weights (in lowest terms)."""
        return self._omega

    def scaled(self) -> tuple:
        """(omega, (omega c_i)): the weights as Python ints over their common
        denominator omega, so weight sums compare exactly with integers."""
        return self._omega, self._scaled

    def total(self) -> Fraction:
        """The exact sum, as integer numerators over the common denominator."""
        return Fraction(sum(self._scaled), self._omega)

    def as_floats(self) -> np.ndarray:
        """The weights as a read-only float array."""
        return self._floats


@dataclass(frozen=True, eq=False)
class FrameDatum:
    """A frame paired with a matching weight vector."""

    frame: MatrixFrame
    weights: WeightVector

    def __post_init__(self):
        if self.frame.n != self.weights.n:
            raise ValueError(
                f"frame has {self.frame.n} blocks but {self.weights.n} weights"
            )


def _scaled_columns(frame: MatrixFrame, per_block: np.ndarray) -> np.ndarray:
    """The pooled columns with every column of block i multiplied by per_block[i]."""
    return frame.pooled() * per_block[frame._owner]


def _operator(cols: np.ndarray) -> np.ndarray:
    """S S^T for a d x N matrix S of scaled pooled columns.

    The package's one builder of frame operators: with S the pooled
    columns, block i's scaled by sqrt(w_i), S S^T = sum_i w_i X_i X_i^T.
    numpy takes the product of a contiguous matrix with its own transpose
    as a symmetric rank-k update and mirrors one triangle onto the other,
    so the result is exactly symmetric and needs no symmetrising pass.
    Raises OverflowError, with no numpy warning, when an entry leaves the
    float range.
    """
    cols = np.ascontiguousarray(cols)
    with np.errstate(over="ignore", invalid="ignore"):
        op = cols @ cols.T
    if not np.isfinite(op).all():
        raise OverflowError("frame operator overflowed the float range")
    return op


def frame_operator(frame: MatrixFrame) -> np.ndarray:
    """Sum of X_i X_i^T over all blocks; exactly symmetric, positive semidefinite.

    Raises OverflowError when an entry leaves the float range.
    """
    return _operator(frame.pooled())


def is_matrix_frame(frame: MatrixFrame, tol: float = DEFAULT_TOL) -> bool:
    """True when the frame operator is positive definite.

    The smallest eigenvalue must exceed ``tol`` times the largest
    eigenvalue (floored at 1 so that tiny frames are not passed by
    scale alone).  A frame operator that overflows the float range is
    no matrix frame.
    """
    try:
        op = frame_operator(frame)
    except OverflowError:
        return False
    eigvals = np.linalg.eigvalsh(op)
    return bool(eigvals[0] > tol * max(eigvals[-1], 1.0))


def _with_columns(frame: MatrixFrame, cols: np.ndarray) -> MatrixFrame:
    """The frame with ``frame``'s block layout over the d x N matrix ``cols``.

    ``cols`` must be a fresh array: it is frozen and kept, not copied.
    The layout is ``frame``'s, already checked, so only the finiteness
    check of the constructor runs.
    """
    cols = np.asarray(cols, dtype=float)
    if cols.shape != frame.pooled().shape:
        raise ValueError(f"columns of shape {cols.shape} for a {frame!r}")
    new = object.__new__(MatrixFrame)
    new._adopt(frame.d, cols, frame.block_cols, frame.block_starts, frame._owner)
    return new


def _block_norms_sq(frame: MatrixFrame, cols=None) -> np.ndarray:
    """Squared Frobenius norm of each block, as an (n,) array.

    ``cols`` is a d x N matrix in ``frame``'s block layout, by default the
    frame's own pooled columns; its column sums of squares are added up
    block by block in one ``reduceat``.  A norm past the float range is
    inf, with no numpy warning.
    """
    cols = frame.pooled() if cols is None else cols
    with np.errstate(over="ignore"):
        return np.add.reduceat(np.sum(cols * cols, axis=0), frame.block_starts)


def _equal_norms(layout: MatrixFrame, cols: np.ndarray) -> MatrixFrame:
    """``cols`` in ``layout``'s blocks, each block scaled to squared norm d/n."""
    norms = np.sqrt(_block_norms_sq(layout, cols))
    return _with_columns(layout, math.sqrt(layout.d / layout.n) * cols / norms[layout._owner])


def apply_transform(transform, frame: MatrixFrame) -> MatrixFrame:
    """The frame {A X_1, ..., A X_n}; block shapes are unchanged."""
    a = np.asarray(transform, dtype=float)
    if a.shape != (frame.d, frame.d):
        raise ValueError(f"transform shape {a.shape} does not match d={frame.d}")
    if not np.all(np.isfinite(a)):
        raise ValueError("transform has non-finite entries")
    return _with_columns(frame, a @ frame.pooled())


def dist_squared(frame_a: MatrixFrame, frame_b: MatrixFrame) -> float:
    """Sum of squared Frobenius norms of blockwise differences.

    Taken as one sum over the difference of the pooled matrices.
    """
    if frame_a.d != frame_b.d or frame_a.block_cols != frame_b.block_cols:
        raise ValueError(
            "shape mismatch: "
            f"d={frame_a.d} cols={frame_a.block_cols} vs "
            f"d={frame_b.d} cols={frame_b.block_cols}"
        )
    diff = frame_a.pooled() - frame_b.pooled()
    return float(np.sum(diff * diff))


# Column selections whose determinants one batched call takes; bounds the
# gathered (chunk, d, d) stack whatever C(N, d) is.
_MINOR_CHUNK = 4096


def _guard_minor_count(d: int, n_cols: int):
    """Refuse a d x N matrix's C(N, d) minors: ValueError when N < d,
    EnumerationSizeError when C(N, d) exceeds DEFAULT_SIZE_GUARD."""
    if n_cols < d:
        raise ValueError(f"undersized frame: N={n_cols} < d={d}")
    count = math.comb(n_cols, d)
    if count > DEFAULT_SIZE_GUARD:
        raise EnumerationSizeError(
            f"C({n_cols},{d}) = {count} exceeds the size guard {DEFAULT_SIZE_GUARD}"
        )


def _column_minors(mat: np.ndarray):
    """Yield (selections, determinants) of the d-column selections of a d x N matrix.

    The C(N, d) selections come in lexicographic order, in chunks of at
    most _MINOR_CHUNK: ``selections`` is a (chunk, d) index array and
    ``determinants`` the matching minors, taken in one batched LU call on
    the gathered stack.  This is the package's one minor enumeration, the
    oracle behind ``objective.enumerate_minors`` and the minor sums.
    Raises ValueError when N < d and EnumerationSizeError when C(N, d)
    exceeds DEFAULT_SIZE_GUARD, before anything is allocated.
    """
    d, n_cols = mat.shape
    _guard_minor_count(d, n_cols)
    combos = itertools.combinations(range(n_cols), d)
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(combos, _MINOR_CHUNK))
        selections = np.fromiter(flat, dtype=np.intp).reshape(-1, d)
        if not len(selections):
            return
        # mat[:, selections] is (d, chunk, d); entry [:, k, :] is selection k.
        yield selections, np.linalg.det(np.moveaxis(mat[:, selections], 1, 0))


def _numerical_rank(svals: np.ndarray, tol: float) -> np.ndarray:
    """Numerical rank from singular values sorted in decreasing order.

    Counts the values above ``tol`` times the largest, and is 0 when the
    largest is 0.  Works along the last axis, so a (..., k) stack of
    singular values gives a (...) array of ranks.
    """
    top = svals[..., :1]
    ranks = np.sum(svals > tol * top, axis=-1)
    return np.where(top[..., 0] == 0.0, 0, ranks)


def column_span_dim(frame: MatrixFrame, subset, tol: float = DEFAULT_TOL) -> int:
    """Dimension of the span of the columns of the blocks indexed by ``subset``.

    Numerical rank: singular values above ``tol`` times the largest, and
    0 when the largest is 0.  The empty subset spans the zero space.
    """
    indices = sorted(set(subset))
    if not indices:
        return 0
    if indices[0] < 0 or indices[-1] >= frame.n:
        raise ValueError(f"subset {indices} out of range for n={frame.n}")
    chosen = np.zeros(frame.n, dtype=bool)
    chosen[indices] = True
    mat = frame.pooled()[:, chosen[frame._owner]]
    return int(_numerical_rank(np.linalg.svd(mat, compute_uv=False), tol))

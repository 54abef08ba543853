"""Core types and arithmetic for weighted matrix frames.

A matrix frame is an ordered collection of real matrices sharing a row
dimension d; its frame operator is the sum of the blockwise outer
products.  This module holds the frame and weight containers plus the
elementary operations everything else builds on: transforms, squared
distances, genericity of the pooled columns, and column-span ranks of
block subsets.

All operations are pure functions of immutable values.  Blocks are
copied on construction and on transform, so frames behave like values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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


def _as_block(mat, d: int, index: int) -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"block {index}: expected a matrix, got ndim={arr.ndim}")
    if arr.shape[0] != d:
        raise ValueError(f"block {index}: has {arr.shape[0]} rows, frame needs {d}")
    if arr.shape[1] < 1:
        raise ValueError(f"block {index}: needs at least one column")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"block {index}: non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class MatrixFrame:
    """Ordered blocks X_1..X_n, each of shape d x d_i with finite real entries.

    The blocks are copied once, into a read-only pooled d x N matrix, and
    are kept as views of it; ``block_starts`` holds the offset of each
    block's first pooled column.
    """

    d: int
    blocks: tuple

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError("d must be a positive integer")
        blocks = tuple(_as_block(b, self.d, i) for i, b in enumerate(self.blocks))
        if not blocks:
            raise ValueError("a frame needs at least one block")
        cols = [b.shape[1] for b in blocks]
        pooled = _freeze(np.hstack(blocks))
        starts = _freeze(np.cumsum([0] + cols[:-1]))
        views = tuple(pooled[:, s : s + c] for s, c in zip(starts, cols))
        object.__setattr__(self, "blocks", views)
        object.__setattr__(self, "_pooled", pooled)
        object.__setattr__(self, "_owner", _freeze(np.repeat(np.arange(len(cols)), cols)))
        object.__setattr__(self, "block_starts", starts)

    @property
    def n(self) -> int:
        return len(self.blocks)

    @property
    def block_cols(self) -> tuple:
        """Column counts (d_1, ..., d_n)."""
        return tuple(b.shape[1] for b in self.blocks)

    @property
    def total_cols(self) -> int:
        """N = d_1 + ... + d_n."""
        return sum(self.block_cols)

    def pooled(self) -> np.ndarray:
        """All columns side by side as a read-only d x N matrix, in block order."""
        return self._pooled

    def column_owners(self) -> tuple:
        """For each pooled column, the pair (block index, column within block)."""
        return tuple(
            (i, k) for i, cols in enumerate(self.block_cols) for k in range(cols)
        )

    def __eq__(self, other):
        if not isinstance(other, MatrixFrame):
            return NotImplemented
        return (
            self.d == other.d
            and self.block_cols == other.block_cols
            and all(np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks))
        )

    __hash__ = None

    def __repr__(self):
        return f"MatrixFrame(d={self.d}, block_cols={self.block_cols})"


def _as_weight(value, index: int) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            f"weight {index}: floats are inexact, pass a Fraction, int or 'p/q' string"
        )
    frac = Fraction(value)
    if frac <= 0:
        raise ValueError(f"weight {index}: must be positive, got {frac}")
    return frac


@dataclass(frozen=True)
class WeightVector:
    """Positive rational weights c_1..c_n held exactly as Fractions."""

    weights: tuple

    def __post_init__(self):
        ws = tuple(_as_weight(w, i) for i, w in enumerate(self.weights))
        if not ws:
            raise ValueError("need at least one weight")
        object.__setattr__(self, "weights", ws)

    @classmethod
    def uniform(cls, d: int, n: int) -> "WeightVector":
        """The weight vector (d/n, ..., d/n)."""
        return cls(tuple(Fraction(d, n) for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def omega(self) -> int:
        """Least common denominator of the weights (in lowest terms)."""
        return math.lcm(*(w.denominator for w in self.weights))

    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def as_floats(self) -> np.ndarray:
        return np.array([float(w) for w in self.weights])


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


def _weighted_operator(frame: MatrixFrame, per_block: np.ndarray) -> np.ndarray:
    """sum_i w_i X_i X_i^T in one product over the pooled columns, symmetrised."""
    pooled = frame.pooled()
    op = (pooled * per_block[frame._owner]) @ pooled.T
    return (op + op.T) / 2.0


def frame_operator(frame: MatrixFrame) -> np.ndarray:
    """Sum of X_i X_i^T over all blocks; symmetric positive semidefinite."""
    return _weighted_operator(frame, np.ones(frame.n))


def is_matrix_frame(frame: MatrixFrame, tol: float = DEFAULT_TOL) -> bool:
    """True when the frame operator is positive definite.

    The smallest eigenvalue must exceed ``tol`` times the largest
    eigenvalue (floored at 1 so that tiny frames are not passed by
    scale alone).
    """
    eigvals = np.linalg.eigvalsh(frame_operator(frame))
    return bool(eigvals[0] > tol * max(eigvals[-1], 1.0))


def apply_transform(transform, frame: MatrixFrame) -> MatrixFrame:
    """The frame {A X_1, ..., A X_n}; block shapes are unchanged."""
    a = np.asarray(transform, dtype=float)
    if a.shape != (frame.d, frame.d):
        raise ValueError(f"transform shape {a.shape} does not match d={frame.d}")
    if not np.all(np.isfinite(a)):
        raise ValueError("transform has non-finite entries")
    return MatrixFrame(frame.d, tuple(a @ b for b in frame.blocks))


def dist_squared(frame_a: MatrixFrame, frame_b: MatrixFrame) -> float:
    """Sum of squared Frobenius norms of blockwise differences."""
    if frame_a.d != frame_b.d or frame_a.block_cols != frame_b.block_cols:
        raise ValueError(
            "shape mismatch: "
            f"d={frame_a.d} cols={frame_a.block_cols} vs "
            f"d={frame_b.d} cols={frame_b.block_cols}"
        )
    return float(
        sum(np.sum((a - b) ** 2) for a, b in zip(frame_a.blocks, frame_b.blocks))
    )


def _column_minors(mat: np.ndarray, size_guard: int = DEFAULT_SIZE_GUARD) -> tuple:
    """(selections, determinants) of all d-column selections of a d x N matrix.

    Selections are index tuples in lexicographic order.  Raises ValueError
    when N < d and EnumerationSizeError when C(N, d) exceeds the guard,
    before anything is allocated.
    """
    d, n_cols = mat.shape
    if n_cols < d:
        raise ValueError(f"undersized frame: N={n_cols} < d={d}")
    count = math.comb(n_cols, d)
    if count > size_guard:
        raise EnumerationSizeError(
            f"C({n_cols},{d}) = {count} exceeds the size guard {size_guard}"
        )
    subsets = list(itertools.combinations(range(n_cols), d))
    return subsets, np.linalg.det(np.stack([mat[:, s] for s in subsets]))


def is_generic(frame: MatrixFrame, tol: float = DEFAULT_TOL) -> bool:
    """True when every d of the N pooled columns form a basis.

    Checks |det| > tol for all C(N, d) column subsets of the pooled
    matrix after rescaling it by its largest absolute entry, so the test
    is scale-aware.  Exact enumeration: exponential in d, refused with
    EnumerationSizeError when C(N, d) exceeds DEFAULT_SIZE_GUARD.
    """
    pooled = frame.pooled()
    scale = np.max(np.abs(pooled))
    _, dets = _column_minors(pooled / scale if scale > 0.0 else pooled)
    return bool(np.all(np.abs(dets) > tol))


def column_span_dim(frame: MatrixFrame, subset, tol: float = DEFAULT_TOL) -> int:
    """Dimension of the span of the columns of the blocks indexed by ``subset``.

    Numerical rank: singular values above ``tol`` times the largest.
    The empty subset spans the zero space.
    """
    indices = sorted(set(subset))
    if not indices:
        return 0
    if indices[0] < 0 or indices[-1] >= frame.n:
        raise ValueError(f"subset {indices} out of range for n={frame.n}")
    mat = np.hstack([frame.blocks[i] for i in indices])
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals[0] == 0.0:
        return 0
    return int(np.sum(svals > tol * svals[0]))

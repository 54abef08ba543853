"""Orbit-polytope membership and stability certificates for frame data.

The orbit polytope of a frame consists of the nonnegative weight vectors
summing to d whose subset sums are bounded by the corresponding
column-span dimensions.  Membership of a positive rational weight vector
is equivalent to semi-stability of the frame's quiver representation,
and membership in the relative interior characterises transformability
into a radial isotropic frame (for locally semi-simple representations).

Both verdicts come from one pass over all 2^n - 1 nonempty block
subsets, which ranks each subset once.  Subsets are bitmasks, taken in
chunks of 2^_CHUNK_BITS; inside a chunk, the subsets with the same pooled
column count m are gathered as one (group, d, m) stack and ranked by one
batched SVD, so the per-subset work runs in LAPACK rather than in the
interpreter and every temporary is bounded by the chunk.  The weights
are scaled by their common denominator to Python ints, whose subset sums
are compared exactly with the scaled ranks; only the span ranks carry a
numeric tolerance.  The pass is exponential in n and refuses with
EnumerationSizeError when 2^n - 1 exceeds DEFAULT_SIZE_GUARD (n >= 20).

For n > d a generic frame needs no pass at all: the genericity
certificate already puts the uniform weights in the relative interior
(see ``has_stability_certificate``).

A non-member can also be caught without the pass: ``divergence_witness``
ranks only the n - 1 proper upper level sets of a scaling vector t, and
along a divergent solver run one of them violates the subset bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import (
    DEFAULT_SIZE_GUARD,
    DEFAULT_TOL,
    EnumerationSizeError,
    FrameDatum,
    MatrixFrame,
    _numerical_rank,
    column_span_dim,
    is_generic,
)

# Subsets per chunk of the pass: 2^_CHUNK_BITS masks, so every temporary
# is bounded by 2^_CHUNK_BITS x N whatever n is.
_CHUNK_BITS = 9


@dataclass(frozen=True)
class PolytopeReport:
    """Outcome of the membership test.

    ``tight_subsets`` lists the proper nonempty subsets whose weight sum
    equals the span bound; the full set [n] is excluded because its
    constraint is forced tight by the sum condition.  ``violating_subsets``
    lists every subset (including [n]) whose weight sum exceeds the bound.
    Subsets are 0-based index tuples in lexicographic order.
    ``relative_interior`` holds when the weights are a member and no
    tight subset has span rank below d.
    """

    member: bool
    sum_check: bool
    tight_subsets: tuple
    violating_subsets: tuple
    relative_interior: bool


def _subset_sums(values) -> np.ndarray:
    """All 2^k subset sums of ``values`` as an object array indexed by bitmask.

    Entry ``mask`` sums ``values[i]`` over the bits i of ``mask``; Python
    int values give exact Python int sums.
    """
    sums = np.zeros(1, dtype=object)
    for value in values:
        # The masks with this bit set are the masks below it plus value.
        sums = np.concatenate((sums, sums + value))
    return sums


def _subset_ranks(frame: MatrixFrame, masks: np.ndarray, tol: float) -> np.ndarray:
    """Column-span rank of each nonempty block subset in ``masks``.

    Subsets with the same pooled column count m are gathered from the
    pooled matrix as one (group, d, m) stack and ranked by one batched SVD.
    """
    pooled = frame.pooled()
    # Byte-sized bits keep the (chunk, N) membership table small; the size
    # guard keeps every mask below 2^20, so four bytes hold it.
    raw = masks.astype("<u4").view(np.uint8).reshape(len(masks), 4)
    bits = np.unpackbits(raw, axis=1, count=frame.n, bitorder="little")
    chosen = bits[:, frame._owner]
    widths = chosen.sum(axis=1, dtype=np.intp)
    ranks = np.empty(len(masks), dtype=np.intp)
    for m in np.flatnonzero(np.bincount(widths)):
        rows = np.flatnonzero(widths == m)
        columns = np.nonzero(chosen[rows])[1].reshape(len(rows), m)
        # pooled[:, columns] is (d, group, m); [:, k, :] holds subset k's columns.
        stack = np.moveaxis(pooled[:, columns], 1, 0)
        ranks[rows] = _numerical_rank(np.linalg.svd(stack, compute_uv=False), tol)
    return ranks


def _scaled_weights(weights) -> tuple:
    """(omega, [omega c_i]): the weights as Python ints over their common denominator.

    c(S) <= r(S) is then the exact integer test omega c(S) <= omega r(S).
    """
    omega = weights.omega
    return omega, [w.numerator * (omega // w.denominator) for w in weights.weights]


def _subset(mask: int, n: int) -> tuple:
    return tuple(i for i in range(n) if mask >> i & 1)


def in_orbit_polytope(datum: FrameDatum, tol: float = DEFAULT_TOL) -> PolytopeReport:
    """Exact membership test of the weights in the frame's orbit polytope.

    Raises EnumerationSizeError when the 2^n - 1 block subsets exceed
    DEFAULT_SIZE_GUARD.
    """
    frame, weights = datum.frame, datum.weights
    n, d = frame.n, frame.d
    count = 2**n - 1
    if count > DEFAULT_SIZE_GUARD:
        raise EnumerationSizeError(
            f"2^{n} - 1 = {count} block subsets exceed the size guard"
            f" {DEFAULT_SIZE_GUARD}"
        )
    omega, scaled = _scaled_weights(weights)
    # Bit i of a mask selects block i.  A chunk fixes the bits from
    # low_bits up and runs through all the bits below.
    low_bits = min(n, _CHUNK_BITS)
    low_sums = _subset_sums(scaled[:low_bits])
    high_sums = _subset_sums(scaled[low_bits:])
    bounds = np.array([rank * omega for rank in range(d + 1)], dtype=object)
    lows = np.arange(2**low_bits)

    tight = []
    violating = []
    tight_below_d = False
    for high, high_sum in enumerate(high_sums):
        masks = (high << low_bits) + lows
        sums = low_sums + high_sum
        if high == 0:
            masks, sums = masks[1:], sums[1:]  # the empty subset
        ranks = _subset_ranks(frame, masks, tol)
        excess = sums - bounds[ranks]
        violating.extend(masks[excess > 0].tolist())
        at_bound = (excess == 0) & (masks != count)  # [n] is never listed
        tight.extend(masks[at_bound].tolist())
        # A tight constraint of rank d cannot cut the affine slice further
        # than the sum condition already does; one of rank below d puts
        # the weights on a proper face.
        tight_below_d = tight_below_d or bool(np.any(ranks[at_bound] < d))

    sum_check = high_sums[-1] + low_sums[-1] == d * omega
    member = sum_check and not violating
    return PolytopeReport(
        member=member,
        sum_check=sum_check,
        tight_subsets=tuple(sorted(_subset(m, n) for m in tight)),
        violating_subsets=tuple(sorted(_subset(m, n) for m in violating)),
        relative_interior=member and not tight_below_d,
    )


def divergence_witness(datum: FrameDatum, t, tol: float = DEFAULT_TOL):
    """A proper upper level set S of the scalings t with c(S) > r(S), or None.

    The blocks are sorted by decreasing t (stably) and the proper prefixes
    are ranked in turn by ``column_span_dim``, with the rank rule and the
    exact scaled-integer weight comparison of ``in_orbit_polytope``.  A
    prefix of rank d ends the walk: with weights summing to d every
    proper prefix weighs less than d, so no longer one can violate.  At
    most n - 1 small SVDs, hence no size guard.  A returned subset
    (sorted block indices) certifies that the weights lie outside the
    orbit polytope, so the scaling objective is unbounded below.
    """
    omega, scaled = _scaled_weights(datum.weights)
    order = np.argsort(-np.asarray(t, dtype=float), kind="stable").tolist()
    weight = 0
    for size in range(1, datum.frame.n):
        weight += scaled[order[size - 1]]
        rank = column_span_dim(datum.frame, order[:size], tol)
        if weight > rank * omega:
            return tuple(sorted(order[:size]))
        if rank == datum.frame.d:
            return None
    return None


def in_relative_interior(datum: FrameDatum, tol: float = DEFAULT_TOL) -> bool:
    """True when the weights lie in the relative interior of the polytope.

    Same pass, and same size guard, as ``in_orbit_polytope``; callers
    that already hold its report read ``relative_interior`` instead.
    """
    return in_orbit_polytope(datum, tol).relative_interior


def has_stability_certificate(frame: MatrixFrame, tol: float = DEFAULT_TOL) -> bool:
    """Genericity certificate for stability of the frame's representation.

    A generic frame (every d pooled columns form a basis) is stable for
    the uniform integer weight, hence locally semi-simple, which is the
    hypothesis needed for the radial-isotropy equivalences.  It also puts
    the uniform weights d/n in the relative interior of the orbit
    polytope: every proper block subset S has r(S) >= min(d, |S|) >
    |S| d/n.  Requires more blocks than rows; the minor enumeration
    refuses with EnumerationSizeError when C(N, d) exceeds
    DEFAULT_SIZE_GUARD.
    """
    if frame.n <= frame.d:
        raise ValueError(f"certificate needs n > d, got n={frame.n}, d={frame.d}")
    return is_generic(frame, tol)

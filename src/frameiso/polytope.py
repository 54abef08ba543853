"""Orbit-polytope membership and stability certificates for frame data.

The orbit polytope of a frame consists of the nonnegative weight vectors
summing to d whose subset sums are bounded by the corresponding
column-span dimensions.  Membership of a positive rational weight vector
is equivalent to semi-stability of the frame's quiver representation,
and membership in the relative interior characterises transformability
into a radial isotropic frame (for locally semi-simple representations).

Both verdicts come from one pass over all 2^n - 1 nonempty block
subsets, which ranks each subset once.  The pass is exponential in n and
refuses with EnumerationSizeError when 2^n - 1 exceeds DEFAULT_SIZE_GUARD
(n >= 20).  The comparisons themselves are exact rational-vs-integer;
only the span ranks carry a numeric tolerance.

For n > d a generic frame needs no pass at all: the genericity
certificate already puts the uniform weights in the relative interior
(see ``has_stability_certificate``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .frames import (
    DEFAULT_SIZE_GUARD,
    DEFAULT_TOL,
    EnumerationSizeError,
    FrameDatum,
    MatrixFrame,
    column_span_dim,
    is_generic,
)


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


def in_orbit_polytope(datum: FrameDatum, tol: float = DEFAULT_TOL) -> PolytopeReport:
    """Exact membership test of the weights in the frame's orbit polytope.

    Raises EnumerationSizeError when the 2^n - 1 block subsets exceed
    DEFAULT_SIZE_GUARD.
    """
    frame, weights = datum.frame, datum.weights
    n = frame.n
    count = 2**n - 1
    if count > DEFAULT_SIZE_GUARD:
        raise EnumerationSizeError(
            f"2^{n} - 1 = {count} block subsets exceed the size guard"
            f" {DEFAULT_SIZE_GUARD}"
        )
    sum_check = weights.total() == Fraction(frame.d)

    tight = []
    violating = []
    tight_below_d = False
    full = tuple(range(n))
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            weight_sum = sum((weights.weights[i] for i in subset), Fraction(0))
            rank = column_span_dim(frame, subset, tol)
            if weight_sum > rank:
                violating.append(subset)
            elif weight_sum == rank and subset != full:
                tight.append(subset)
                # A tight constraint of rank d cannot cut the affine slice
                # further than the sum condition already does; one of rank
                # below d puts the weights on a proper face.
                tight_below_d = tight_below_d or rank < frame.d

    member = sum_check and not violating
    return PolytopeReport(
        member=member,
        sum_check=sum_check,
        tight_subsets=tuple(sorted(tight)),
        violating_subsets=tuple(sorted(violating)),
        relative_interior=member and not tight_below_d,
    )


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

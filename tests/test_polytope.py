import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frameiso import (
    EnumerationSizeError,
    FrameDatum,
    MatrixFrame,
    WeightVector,
    column_span_dim,
    has_stability_certificate,
    in_orbit_polytope,
    in_relative_interior,
)
from frameiso.generate import random_frame


def test_membership_generic(mixed_frame, thirds):
    report = in_orbit_polytope(FrameDatum(mixed_frame, thirds))
    assert report.member
    assert report.sum_check
    assert report.tight_subsets == ()
    assert report.violating_subsets == ()


def test_membership_collinear(collinear_frame, thirds):
    report = in_orbit_polytope(FrameDatum(collinear_frame, thirds))
    assert not report.member
    assert report.sum_check
    assert (0, 1) in report.violating_subsets  # 4/3 > rank 1


def test_membership_orthonormal(orthonormal_frame):
    datum = FrameDatum(orthonormal_frame, WeightVector((1, 1)))
    report = in_orbit_polytope(datum)
    assert report.member
    assert report.tight_subsets == ((0,), (1,))


def test_sum_check_reported_not_raised(mixed_frame):
    datum = FrameDatum(mixed_frame, WeightVector((1, 1, 1)))
    report = in_orbit_polytope(datum)
    assert not report.sum_check
    assert not report.member


def test_relative_interior(mixed_frame, collinear_frame, orthonormal_frame, thirds):
    assert in_relative_interior(FrameDatum(mixed_frame, thirds))
    assert not in_relative_interior(
        FrameDatum(orthonormal_frame, WeightVector((1, 1)))
    )
    assert not in_relative_interior(FrameDatum(collinear_frame, thirds))
    # c_1 = 1 = dim span(e1): a member on a proper face of the polytope.
    boundary = FrameDatum(
        MatrixFrame(2, ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])),
        WeightVector((1, "1/2", "1/2")),
    )
    assert in_orbit_polytope(boundary).member
    assert not in_relative_interior(boundary)


def test_relint_implies_member(mixed_frame, thirds):
    datum = FrameDatum(mixed_frame, thirds)
    if in_relative_interior(datum):
        assert in_orbit_polytope(datum).member


def test_block_scaling_invariance(mixed_frame, thirds):
    # only column spans enter the constraints
    base = in_orbit_polytope(FrameDatum(mixed_frame, thirds))
    scaled = MatrixFrame(
        2, tuple(s * b for s, b in zip((3.0, -0.25, 7.0), mixed_frame.blocks))
    )
    report = in_orbit_polytope(FrameDatum(scaled, thirds))
    assert report.member == base.member
    assert report.tight_subsets == base.tight_subsets
    assert report.violating_subsets == base.violating_subsets


def test_generic_uniform_weights_in_relint():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(d + 1, 8))
        frame = random_frame(d, [1] * n, rng)
        datum = FrameDatum(frame, WeightVector.uniform(d, n))
        assert in_relative_interior(datum)


def test_stability_certificate(mixed_frame, collinear_frame):
    assert has_stability_certificate(mixed_frame)
    assert not has_stability_certificate(collinear_frame)
    with pytest.raises(ValueError):
        has_stability_certificate(MatrixFrame(2, ([[1, 0], [0, 1]], [1, 1])))


def test_stability_certificate_random():
    rng = np.random.default_rng(11)
    frame = random_frame(3, [2, 2, 2, 2, 2], rng)
    assert has_stability_certificate(frame)


def test_subset_enumeration_guard():
    # 2^20 - 1 subsets exceed the guard; refused before any rank is taken.
    frame = MatrixFrame(2, tuple([1.0, float(k)] for k in range(20)))
    with pytest.raises(EnumerationSizeError):
        in_orbit_polytope(FrameDatum(frame, WeightVector.uniform(2, 20)))


def _two_pass_relative_interior(datum):
    """Membership pass, then a second pass re-ranking each tight subset."""
    frame, weights = datum.frame, datum.weights.weights
    if sum(weights) != frame.d:
        return False
    tight = []
    for size in range(1, frame.n + 1):
        for subset in itertools.combinations(range(frame.n), size):
            weight_sum = sum(weights[i] for i in subset)
            rank = column_span_dim(frame, subset)
            if weight_sum > rank:
                return False
            if weight_sum == rank and size < frame.n:
                tight.append(subset)
    return all(column_span_dim(frame, s) >= frame.d for s in tight)


@st.composite
def _small_integer_data(draw):
    # Entries in {-1, 0, 1} make rank drops, and so tight and violating
    # subsets, common; weights are positive rationals summing to d.
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    blocks = []
    for _ in range(n):
        cols = draw(st.integers(1, 2))
        entries = draw(st.lists(st.integers(-1, 1), min_size=d * cols, max_size=d * cols))
        blocks.append(np.array(entries, dtype=float).reshape(d, cols))
    shares = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    weights = WeightVector(tuple(Fraction(d * a, sum(shares)) for a in shares))
    return FrameDatum(MatrixFrame(d, tuple(blocks)), weights)


@settings(max_examples=80, deadline=None)
@given(_small_integer_data())
def test_one_pass_relative_interior_matches_two_pass(datum):
    report = in_orbit_polytope(datum)
    assert report.relative_interior == _two_pass_relative_interior(datum)
    assert in_relative_interior(datum) == report.relative_interior
    assert report.member or not report.relative_interior


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_generic_frame_puts_uniform_weights_in_relint(d, data):
    n = data.draw(st.integers(d + 1, 8))
    cols = data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    frame = random_frame(d, cols, np.random.default_rng(seed))
    assume(has_stability_certificate(frame))
    report = in_orbit_polytope(FrameDatum(frame, WeightVector.uniform(d, n)))
    # r(S) >= min(d, |S|) > |S| d/n for every proper subset S: nothing is tight.
    assert report.tight_subsets == ()
    assert report.relative_interior

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameiso import (
    EnumerationSizeError,
    MatrixFrame,
    WeightVector,
    apply_transform,
    column_span_dim,
    dist_squared,
    frame_operator,
    induced_sigma,
    is_generic,
    is_matrix_frame,
)

from conftest import assert_close


def test_frame_validation():
    with pytest.raises(ValueError):
        MatrixFrame(2, ())
    with pytest.raises(ValueError):
        MatrixFrame(2, ([[1.0], [2.0], [3.0]],))  # wrong row count
    with pytest.raises(ValueError):
        MatrixFrame(2, ([np.nan, 1.0],))
    frame = MatrixFrame(2, ([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]))
    assert frame.n == 2
    assert frame.block_cols == (1, 2)
    assert frame.total_cols == 3


def test_blocks_are_copies():
    source = np.eye(2)
    frame = MatrixFrame(2, (source,))
    source[0, 0] = 99.0
    assert frame.blocks[0][0, 0] == 1.0
    with pytest.raises(ValueError):
        frame.blocks[0][0, 0] = 5.0  # read-only


def test_frame_operator_examples(mixed_frame, orthonormal_frame):
    assert_close(frame_operator(mixed_frame), [[3.0, 0.0], [0.0, 6.0]])
    assert_close(frame_operator(orthonormal_frame), np.eye(2))
    zero = MatrixFrame(3, (np.zeros((3, 1)),))
    assert_close(frame_operator(zero), np.zeros((3, 3)))


def test_is_matrix_frame(mixed_frame, orthonormal_frame):
    assert is_matrix_frame(mixed_frame, 1e-9)
    assert is_matrix_frame(orthonormal_frame, 1e-9)
    flat = MatrixFrame(2, ([1.0, 0.0], [2.0, 0.0]))
    assert not is_matrix_frame(flat, 1e-9)


def test_apply_transform(mixed_frame):
    same = apply_transform(np.eye(2), mixed_frame)
    assert same == mixed_frame
    scaled = apply_transform(np.diag([2.0, 1.0]), MatrixFrame(2, ([1, 0], [0, 1])))
    assert_close(scaled.blocks[0], [[2.0], [0.0]])
    assert_close(scaled.blocks[1], [[0.0], [1.0]])
    with pytest.raises(ValueError):
        apply_transform(np.eye(3), mixed_frame)


def test_transform_inverse_round_trip(mixed_frame):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2)) + 3 * np.eye(2)
    back = apply_transform(a, apply_transform(np.linalg.inv(a), mixed_frame))
    assert dist_squared(back, mixed_frame) < 1e-24


def test_operator_conjugation(mixed_frame):
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        lhs = frame_operator(apply_transform(a, mixed_frame))
        rhs = a @ frame_operator(mixed_frame) @ a.T
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_dist_squared(mixed_frame):
    assert dist_squared(mixed_frame, mixed_frame) == 0.0
    a = MatrixFrame(2, ([1.0, 0.0],))
    b = MatrixFrame(2, ([0.0, 1.0],))
    assert dist_squared(a, b) == 2.0
    tweaked = MatrixFrame(2, (mixed_frame.blocks[0], [1.0, 0.0], mixed_frame.blocks[2]))
    assert dist_squared(mixed_frame, tweaked) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        dist_squared(a, MatrixFrame(2, ([[1.0, 0.0], [0.0, 1.0]],)))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4),
       st.lists(st.floats(-10, 10), min_size=4, max_size=4),
       st.lists(st.floats(-10, 10), min_size=4, max_size=4))
def test_dist_triangle_like(xs, ys, zs):
    fa = MatrixFrame(2, (xs[:2], xs[2:]))
    fb = MatrixFrame(2, (ys[:2], ys[2:]))
    fc = MatrixFrame(2, (zs[:2], zs[2:]))
    lhs = dist_squared(fa, fc)
    rhs = 2.0 * (dist_squared(fa, fb) + dist_squared(fb, fc))
    assert lhs <= rhs + 1e-9 * (1.0 + rhs)


def test_dist_orthogonal_invariance(mixed_frame):
    rng = np.random.default_rng(2)
    other = MatrixFrame(2, tuple(b + 0.3 for b in mixed_frame.blocks))
    base = dist_squared(mixed_frame, other)
    for _ in range(10):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        rotated = dist_squared(
            apply_transform(q, mixed_frame), apply_transform(q, other)
        )
        assert rotated == pytest.approx(base, rel=1e-10)


def test_is_generic(mixed_frame, collinear_frame, orthonormal_frame):
    assert is_generic(mixed_frame, 1e-9)
    assert not is_generic(collinear_frame, 1e-9)
    assert is_generic(orthonormal_frame, 1e-9)
    with pytest.raises(ValueError):
        is_generic(MatrixFrame(3, ([1.0, 0.0, 0.0],)), 1e-9)
    # C(40, 8) = 7.7e7 selections (about 39 GB stacked) exceed the guard.
    wide = MatrixFrame(8, (np.random.default_rng(0).standard_normal((8, 40)),))
    with pytest.raises(EnumerationSizeError):
        is_generic(wide)


def test_column_span_dim(mixed_frame, collinear_frame):
    assert column_span_dim(mixed_frame, {1, 2}) == 2
    assert column_span_dim(mixed_frame, set()) == 0
    assert column_span_dim(collinear_frame, {0, 1}) == 1
    assert column_span_dim(collinear_frame, {0, 1, 2}) == 2
    with pytest.raises(ValueError):
        column_span_dim(mixed_frame, {3})


def test_generic_implies_full_subset_ranks(mixed_frame):
    # every subset of a generic frame spans min(d, total columns)
    import itertools

    for size in range(1, mixed_frame.n + 1):
        for subset in itertools.combinations(range(mixed_frame.n), size):
            expected = min(
                mixed_frame.d, sum(mixed_frame.block_cols[i] for i in subset)
            )
            assert column_span_dim(mixed_frame, subset) == expected


def test_weight_vector_rationals():
    w = WeightVector(("2/3", "2/3", "2/3"))
    assert w.omega == 3
    assert induced_sigma(w) == ((3,), (-2, -2, -2))
    assert float(w.total()) == 2.0
    with pytest.raises(TypeError):
        WeightVector((0.5, 0.5))
    with pytest.raises(ValueError):
        WeightVector(("0/1",))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(min_value="1/100", max_value=10), min_size=1, max_size=6))
def test_weight_sigma_is_integral(fracs):
    w = WeightVector(tuple(fracs))
    om = w.omega
    for c, s in zip(w.weights, induced_sigma(w)[1]):
        assert om * c == -s
        assert isinstance(s, int)


def test_uniform_weights():
    w = WeightVector.uniform(2, 4)
    assert all(str(c) == "1/2" for c in w.weights)
    assert float(w.total()) == 2.0

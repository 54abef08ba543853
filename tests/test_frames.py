import copy
import itertools
import math
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    is_matrix_frame,
)
from frameiso import frames
from frameiso.frames import _column_minors

from conftest import assert_close, is_generic, traced_peak


def test_frame_validation():
    with pytest.raises(ValueError, match="a frame needs at least one block"):
        MatrixFrame(2, ())
    with pytest.raises(ValueError, match="block 1: expected a matrix, got ndim=3"):
        MatrixFrame(2, ([1.0, 0.0], np.ones((2, 1, 1))))
    with pytest.raises(ValueError, match="block 0: has 3 rows, frame needs 2"):
        MatrixFrame(2, ([[1.0], [2.0], [3.0]],))  # wrong row count
    with pytest.raises(ValueError, match="block 1: needs at least one column"):
        MatrixFrame(2, ([1.0, 0.0], np.zeros((2, 0))))
    with pytest.raises(ValueError, match="block 0: non-finite entries"):
        MatrixFrame(2, ([np.nan, 1.0],))
    # the message names the first block holding a non-finite entry
    with pytest.raises(ValueError, match="block 2: non-finite entries"):
        MatrixFrame(2, ([1.0, 0.0], np.eye(2), [[1.0, np.nan], [0.0, np.inf]]))
    with pytest.raises(ValueError, match="block 1: non-finite entries"):
        MatrixFrame(2, ([1.0, 0.0], [[0.0, 1.0], [-np.inf, 0.0]], [np.nan, 1.0]))
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


def _built_and_derived():
    """(frame, its blocks as given) for a constructed frame and for one
    that ``_with_columns`` derives from it."""
    rng = np.random.default_rng(3)
    given_blocks = tuple(rng.standard_normal((3, cols)) for cols in (1, 2, 4))
    given_blocks[1][0, 0] = -0.0
    built = MatrixFrame(3, given_blocks)
    cols = rng.standard_normal((3, 7))
    derived = frames._with_columns(built, cols.copy())
    return [(built, given_blocks), (derived, tuple(np.split(cols, [1, 3], axis=1)))]


@pytest.mark.parametrize("case", [0, 1], ids=["constructor", "with_columns"])
def test_blocks_are_read_only_views_on_access(case):
    frame, given_blocks = _built_and_derived()[case]
    blocks = frame.blocks
    assert type(blocks) is tuple and len(blocks) == frame.n == len(given_blocks)
    for view, block in zip(blocks, given_blocks):
        assert view.dtype == np.float64 and view.shape == block.shape
        assert view.tobytes() == block.tobytes()  # bit for bit, -0.0 included
        assert not view.flags.writeable
        assert np.shares_memory(view, frame.pooled())
        with pytest.raises(ValueError):
            view[0, 0] = 5.0
    assert frame.blocks is not blocks  # a new tuple on each access


@pytest.mark.parametrize("case", [0, 1], ids=["constructor", "with_columns"])
def test_frames_are_immutable(case):
    frame, _ = _built_and_derived()[case]
    for name in ("d", "blocks", "n", "block_cols", "block_starts", "_owner", "_pooled", "extra"):
        with pytest.raises(FrozenInstanceError):
            setattr(frame, name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(frame, name)
    for clone in (copy.deepcopy(frame), pickle.loads(pickle.dumps(frame))):
        assert clone == frame and clone.block_starts.tolist() == [0, 1, 3]


def test_derived_frames_hold_only_their_pooled_data():
    # Ten frames at d = 8 with 4,096 single columns; per-block views
    # would take about twice the pooled data again.
    pooled = np.random.default_rng(5).standard_normal((8, 4096))
    base = MatrixFrame(8, tuple(np.split(pooled, 4096, axis=1)))
    tracemalloc.start()
    try:
        held = [frames._with_columns(base, (k + 1.0) * base.pooled()) for k in range(10)]
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    data = sum(frame.pooled().nbytes for frame in held)
    assert data == 10 * 8 * 4096 * 8
    assert current <= 1.05 * data


def test_frame_operator_examples(mixed_frame, orthonormal_frame):
    assert_close(frame_operator(mixed_frame), [[3.0, 0.0], [0.0, 6.0]])
    assert_close(frame_operator(orthonormal_frame), np.eye(2))
    zero = MatrixFrame(3, (np.zeros((3, 1)),))
    assert_close(frame_operator(zero), np.zeros((3, 3)))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12),
    st.lists(
        st.tuples(
            st.integers(1, 3),
            st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
            st.sampled_from((-100, 0, 100)),
        ),
        min_size=1,
        max_size=8,
    ),
    st.integers(0, 2**32 - 1),
)
@example(2, [(1, 1.0, 100), (2, 0.0, 0), (3, 2.5, -100)], 0)
def test_operator_is_symmetric_weighted_block_sum(d, blocks, seed):
    # S S^T over S = P sqrt(w) is bitwise symmetric and within a bound
    # fixed from the dtype of sum_i w_i X_i X_i^T, summed here block by
    # block and column by column.
    rng = np.random.default_rng(seed)
    frame = MatrixFrame(
        d, tuple(10.0**power * rng.standard_normal((d, cols)) for cols, _, power in blocks)
    )
    weights = np.array([w for _, w, _ in blocks])
    op = frames._operator(frames._scaled_columns(frame, np.sqrt(weights)))
    assert np.array_equal(op, op.T)
    reference = np.zeros((d, d))
    scale = 0.0
    for w, block in zip(weights, frame.blocks):
        for col in block.T:
            reference += w * np.outer(col, col)
            scale += w * float(col @ col)
    tol = 8 * frame.total_cols * np.finfo(float).eps * scale
    assert float(np.max(np.abs(op - reference))) <= tol


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
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match="block 0: non-finite entries"
    ):
        apply_transform(np.diag([1.0, 1e308]), mixed_frame)  # 2e308 overflows


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
    # The tests' genericity oracle, and the guards of the enumeration under it.
    assert is_generic(mixed_frame, 1e-9)
    assert not is_generic(collinear_frame, 1e-9)
    assert is_generic(orthonormal_frame, 1e-9)
    with pytest.raises(ValueError, match=r"undersized frame: N=1 < d=3"):
        next(_column_minors(np.ones((3, 1))))
    # C(40, 8) = 7.7e7 selections (about 39 GB stacked) exceed the guard.
    wide = np.random.default_rng(0).standard_normal((8, 40))
    with pytest.raises(EnumerationSizeError):
        next(_column_minors(wide))


def test_column_minors_chunks_match_single_determinants():
    # C(16, 5) = 4368 selections cross a chunk boundary.
    mat = np.random.default_rng(4).standard_normal((5, 16))
    selections, dets = zip(*_column_minors(mat))
    assert len(selections) > 1
    expected = list(itertools.combinations(range(16), 5))
    assert [tuple(s) for s in np.concatenate(selections).tolist()] == expected
    singles = [np.linalg.det(mat[:, list(s)]) for s in expected]
    assert np.array_equal(np.concatenate(dets), singles)


def _smallest_minor(mat):
    """The smallest |minor| of ``mat``, read chunk by chunk."""
    return min(float(np.min(np.abs(dets))) for _, dets in _column_minors(mat))


def test_column_minors_memory_is_bounded():
    # C(24, 6) = 134,596 minors are taken chunk by chunk.
    mat = np.random.default_rng(6).standard_normal((6, 24))
    smallest, peak = traced_peak(_smallest_minor, mat)
    assert smallest > 1e-9
    assert peak < 4 * 2**20


def test_column_minors_vector_frame_one_column_past_d():
    # C(25, 24) = 25 minors in one chunk: the gathered stack of 25 24 x 24
    # selections is 25 * 24**2 * 8 B = 115 KB, and it bounds the peak.
    mat = np.random.default_rng(9).standard_normal((25, 24)).T
    smallest, peak = traced_peak(_smallest_minor, mat)
    assert smallest > 1e-9
    assert peak < 2 * 25 * 24**2 * 8


def _degenerate_matrix(d, n_cols, kind, seed):
    mat = np.random.default_rng(seed).standard_normal((d, n_cols))
    if kind == "repeated" and n_cols > 1:
        mat[:, -1] = mat[:, 0]
    elif kind == "zero":
        mat[:, n_cols // 2] = 0.0
    elif kind == "rank_deficient" and d > 1:
        # A block of d columns spanning only d - 1 dimensions.
        mat[:, :d] = mat[:, :d - 1] @ np.random.default_rng(seed + 1).standard_normal((d - 1, d))
    return mat


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.integers(d, min(2 * d + 3, 16)),
            st.sampled_from(("generic", "repeated", "zero", "rank_deficient")),
            st.integers(0, 2**32 - 1),
        )
    )
)
@example((3, 7, "generic", 0))
@example((5, 7, "repeated", 1))
@example((4, 4, "generic", 2))  # N = d: one minor
@example((4, 4, "rank_deficient", 3))
def test_is_generic_matches_single_determinants(case):
    d, n_cols, kind, seed = case
    mat = _degenerate_matrix(d, n_cols, kind, seed)
    scale = np.max(np.abs(mat))
    # Scaled as is_generic scales it, so both sides see the same minors.
    mat = mat / scale if scale > 0.0 else mat
    dets = [np.linalg.det(mat[:, list(s)]) for s in itertools.combinations(range(n_cols), d)]
    # The batched enumeration gives every selection's determinant, bit for bit.
    assert np.array_equal(np.concatenate([m for _, m in _column_minors(mat)]), dets)
    assert is_generic(MatrixFrame(d, (mat,))) == all(abs(det) > 1e-9 for det in dets)


def test_column_span_dim(mixed_frame, collinear_frame):
    assert column_span_dim(mixed_frame, {1, 2}) == 2
    assert column_span_dim(mixed_frame, set()) == 0
    assert column_span_dim(collinear_frame, {0, 1}) == 1
    assert column_span_dim(collinear_frame, {0, 1, 2}) == 2
    with pytest.raises(ValueError):
        column_span_dim(mixed_frame, {3})


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(st.integers(1, 3), min_size=1, max_size=8),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_column_span_dim_matches_stacked_blocks(d, cols, rank, seed, data):
    # Pooled columns of rank at most ``rank``, so subsets span less than
    # min(d, N_S) too; the mask gathers the same matrix as stacking the
    # chosen blocks.
    rng = np.random.default_rng(seed)
    pooled = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, sum(cols)))
    frame = MatrixFrame(d, tuple(np.split(pooled, np.cumsum(cols[:-1]), axis=1)))
    subset = data.draw(st.sets(st.integers(0, len(cols) - 1), min_size=1))
    stacked = np.hstack([frame.blocks[i] for i in sorted(subset)])
    expected = frames._numerical_rank(np.linalg.svd(stacked, compute_uv=False), 1e-9)
    with mock.patch.object(frames.np.linalg, "svd", wraps=np.linalg.svd) as svd:
        assert column_span_dim(frame, subset) == int(expected)
    (gathered,), _ = svd.call_args
    assert np.array_equal(gathered, stacked)


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
    assert om == math.lcm(*(Fraction(c).denominator for c in fracs))
    for c, s in zip(w.weights, induced_sigma(w)[1]):
        assert om * c == -s
        assert isinstance(s, int)
    omega, scaled = w.scaled()
    assert omega == om and len(scaled) == w.n
    for c, a in zip(w.weights, scaled):
        assert type(a) is int
        assert Fraction(a, omega) == c
    assert Fraction(sum(scaled), omega) == w.total()


def test_weight_vector_keeps_given_fractions():
    fracs = (Fraction(1, 3), Fraction(5, 7), Fraction(2))
    w = WeightVector(fracs)
    assert all(w.weights[i] is fracs[i] for i in range(len(fracs)))
    # Anything else is converted.
    assert all(type(c) is Fraction for c in WeightVector(("1/3", 2)).weights)


def test_uniform_weights():
    w = WeightVector.uniform(2, 4)
    assert all(str(c) == "1/2" for c in w.weights)
    assert float(w.total()) == 2.0


def test_uniform_weights_validated_once():
    w = WeightVector.uniform(3, 7)
    assert w == WeightVector((Fraction(3, 7),) * 7)
    assert all(type(c) is Fraction for c in w.weights)
    for d, n in ((0, 3), (-2, 3), (2, 0), (2, -1)):
        with pytest.raises(ValueError):
            WeightVector.uniform(d, n)
    # Every other caller still has each weight checked.
    with pytest.raises(TypeError):
        WeightVector((Fraction(1, 2), 1.5))
    with pytest.raises(ValueError):
        WeightVector((Fraction(1, 2), Fraction(-1, 2)))


def test_weight_floats_read_only():
    for w in (WeightVector(("1/2", 3, Fraction(2, 7))), WeightVector.uniform(3, 7)):
        floats = w.as_floats()
        assert not floats.flags.writeable
        assert floats.tolist() == [float(c) for c in w.weights]
        with pytest.raises(ValueError):
            floats[0] = 1.0
    # Hashing reads the weights only.
    assert hash(WeightVector.uniform(3, 7)) == hash(WeightVector(("3/7",) * 7))


_PRIMES_NEAR_1E6 = (999_983, 999_979, 999_961, 999_959, 999_953)


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.builds(Fraction, st.integers(1, 2**80), st.integers(1, 2 * 10**6)),
    min_size=1, max_size=8,
))
@example([Fraction(2**63 + k, p) for k, p in enumerate(_PRIMES_NEAR_1E6)])
@example([Fraction(2**64 - 1, 999_983), Fraction(3, 999_979 * 999_961)])
def test_weight_total_is_exact_sum(fracs):
    total = WeightVector(tuple(fracs)).total()
    assert type(total) is Fraction
    assert total == sum(fracs, Fraction(0))

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameiso import (
    EnumerationSizeError,
    FrameDatum,
    MatrixFrame,
    NotPositiveDefiniteError,
    WeightVector,
    apply_transform,
    det_via_minors,
    enumerate_minors,
    grad_via_minors,
    log_capacity,
    log_det_potential_grad,
)
from frameiso.generate import random_frame
from frameiso.objective import (
    EIG_FLOOR,
    _block_pairs,
    _check_floor,
    _columns_and_operator,
    _potential,
)

from conftest import assert_close, random_shape, scaled_operator, sym_inverse_sqrt


def log_det(frame, t):
    """log det Q(t) from the kernel."""
    return _potential(frame, t).value


def kernel_operator(frame, t):
    """Q(t) as the kernel builds it, from the scaled pooled columns."""
    return _columns_and_operator(frame, t)[1]


def central_difference_grad(frame, t, step=1e-5):
    t = np.asarray(t, dtype=float)
    grad = np.empty(frame.n)
    for i in range(frame.n):
        up = t.copy()
        up[i] += step
        down = t.copy()
        down[i] -= step
        grad[i] = (log_det(frame, up) - log_det(frame, down)) / (2 * step)
    return grad


def test_scaled_operator(mixed_frame, orthonormal_frame):
    assert_close(kernel_operator(mixed_frame, [0, 0, 0]), [[3, 0], [0, 6]])
    assert_close(kernel_operator(mixed_frame, [math.log(2), 0, 0]), [[4, 0], [0, 10]])
    t = [0.3, -1.2]
    assert_close(kernel_operator(orthonormal_frame, t), np.diag(np.exp(t)))
    # e^{1e4} is past the float range: refused before Q(t) is formed.
    with pytest.raises(OverflowError, match=r"e\^\{t_i\} overflowed"):
        log_det_potential_grad(orthonormal_frame, [1e4, 0.0])


def test_scaled_operator_refuses_overflowing_q():
    # e^t is finite at t = 0, but a 1e200 entry squares past the float
    # range: Q(t) overflows, and the builder raises instead of returning inf.
    frame = MatrixFrame(2, ([1e200, 0.0], [0.0, 1.0], [1.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"Q\(t\) overflowed"):
            _potential(frame, np.zeros(3))


def test_potential_values(mixed_frame):
    assert log_det(mixed_frame, [0, 0, 0]) == pytest.approx(
        math.log(18), abs=1e-12
    )
    basis = MatrixFrame(3, ([1, 0, 0], [0, 1, 0], [0, 0, 1]))
    assert log_det(basis, [0, 0, 0]) == pytest.approx(0.0, abs=1e-14)


def test_potential_translation(mixed_frame):
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = rng.uniform(-1, 1, 3)
        s = rng.uniform(-5, 5)
        shifted = log_det(mixed_frame, t + s)
        assert shifted == pytest.approx(
            log_det(mixed_frame, t) + 2 * s, abs=1e-9
        )


def test_potential_rejects_degenerate(collinear_frame):
    # drive the lone spanning block to zero weight
    with pytest.raises(NotPositiveDefiniteError):
        log_det(collinear_frame, [0.0, 0.0, -80.0])


@st.composite
def _shrunk_frames(draw):
    """A Gaussian frame with one direction shrunk, and scalings in [-1, 1].

    The squared shrink factor runs over 1e-15 .. 1e-9, so that
    lambda_min / lambda_max of Q(t) falls on both sides of the floor.
    """
    d = draw(st.integers(2, 5))
    cols = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = random_frame(d, cols, rng)
    axis = rng.standard_normal(d)
    axis /= np.linalg.norm(axis)
    shrink = 10.0 ** (draw(st.floats(-15.0, -9.0)) / 2.0)
    squeeze = np.eye(d) - (1.0 - shrink) * np.outer(axis, axis)
    return apply_transform(squeeze, frame), rng.uniform(-1.0, 1.0, len(cols))


@settings(max_examples=100, deadline=None)
@given(_shrunk_frames())
def test_potential_floor_matches_eigenvalues(frame_and_t):
    # The kernel refuses a point exactly when the floor refuses the
    # eigenvalues of its Q(t), whichever route decided it.  The reference
    # is eigh's, the decomposition the kernel's eigen route reads.
    frame, t = frame_and_t
    try:
        _check_floor(np.linalg.eigh(kernel_operator(frame, t))[0])
    except NotPositiveDefiniteError:
        with pytest.raises(NotPositiveDefiniteError):
            _potential(frame, t)
    else:
        _potential(frame, t)


def _assert_eigen_route(frame, t, tol=1e-12):
    """The kernel's value, gradient and R^T R against one eigendecomposition
    of its Q(t), relative to the largest entry of each."""
    cols, op = _columns_and_operator(frame, t)
    eigvals, eigvecs = np.linalg.eigh(op)
    reference = (eigvecs.T @ cols) / np.sqrt(eigvals)[:, None]
    grad = [float(np.sum(reference[:, frame._owner == i] ** 2)) for i in range(frame.n)]
    point = _potential(frame, t)
    assert point.value == pytest.approx(float(np.sum(np.log(eigvals))), rel=tol)
    assert_close(point.grad, grad, tol=tol * max(grad))
    gram = reference.T @ reference
    assert_close(point.rotated.T @ point.rotated, gram, tol=tol * float(np.max(np.abs(gram))))


def test_potential_floor_named_cases(collinear_frame, mixed_frame):
    # e^{-400} squared underflows: Q(t) = diag(2, 0), where cholesky fails
    # and the eigen route refuses the point.
    t = np.array([0.0, 0.0, -800.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(kernel_operator(collinear_frame, t))
    with pytest.raises(NotPositiveDefiniteError):
        _potential(collinear_frame, t)
    # Q(0) = diag(3, 6) squeezed to eigenvalues 3 and 6 a^2: the ratio
    # 2 a^2 = 1.28e-12 passes the floor, but 2 EIG_FLOOR tr(Q) tr(Q^{-1})
    # is about 1.6, so the factor cannot decide and the eigen route does.
    squeezed = _squeezed(mixed_frame)
    t = np.zeros(3)
    op = kernel_operator(squeezed, t)
    _check_floor(np.linalg.eigh(op)[0])
    factor_inverse = np.linalg.inv(np.linalg.cholesky(op))
    assert 2.0 * EIG_FLOOR * np.trace(op) * np.sum(factor_inverse**2) > 1.0
    assert _potential(squeezed, t).eig is not None
    _assert_eigen_route(squeezed, t)
    # Where the factor decides, it keeps no eigendecomposition and agrees
    # with the eigen route.
    t = np.array([0.4, -0.3, -0.1])
    assert _potential(mixed_frame, t).eig is None
    _assert_eigen_route(mixed_frame, t)


def _squeezed(mixed_frame):
    """``mixed_frame`` rotated and squeezed so that Q(0) has eigenvalues 3
    and 6 (8e-7)^2, a point only the kernel's eigen route decides."""
    angle = 0.3
    rotation = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    return apply_transform(rotation @ np.diag([1.0, 8e-7]), mixed_frame)


def test_transformer_reuses_eigen_route(mixed_frame, monkeypatch):
    # A point the eigen route decided keeps its eigendecomposition, and its
    # transformer is built from it with no second eigh, bit for bit what a
    # fresh eigh of Q(t) gives; a point the factor decided takes one eigh.
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a)
        return eigh(a)

    eigen_point = _potential(_squeezed(mixed_frame), np.zeros(3))
    factor_point = _potential(mixed_frame, np.array([0.4, -0.3, -0.1]))
    assert eigen_point.eig is not None and factor_point.eig is None
    monkeypatch.setattr(np.linalg, "eigh", counted)
    transformer = eigen_point.transformer()
    assert len(calls) == 0
    factor_transformer = factor_point.transformer()
    assert len(calls) == 1
    monkeypatch.undo()
    assert np.array_equal(transformer, sym_inverse_sqrt(eigen_point.operator))
    assert np.array_equal(factor_transformer, sym_inverse_sqrt(factor_point.operator))


def test_gradient_example(mixed_frame):
    assert_close(log_det_potential_grad(mixed_frame, [0, 0, 0]), [1.0, 0.5, 0.5])
    basis = MatrixFrame(2, ([1, 0], [0, 1]))
    assert_close(log_det_potential_grad(basis, [0, 0]), [1.0, 1.0])


def test_gradient_trace_identity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d, cols = random_shape(rng)
        frame = random_frame(d, cols, rng)
        t = rng.uniform(-2, 2, frame.n)
        grad = log_det_potential_grad(frame, t)
        assert float(np.sum(grad)) == pytest.approx(d, abs=1e-8)


def test_minor_enumeration(mixed_frame):
    terms = enumerate_minors(mixed_frame)
    assert len(terms) == 6
    assert sorted(t.value for t in terms) == pytest.approx([1, 1, 4, 4, 4, 4])
    assert sum(t.value for t in terms) == pytest.approx(18.0)
    for term in terms:
        assert sum(len(cols) for cols in term.column_sets) == mixed_frame.d
        assert term.value >= 0.0


def test_minor_enumeration_flags_zero_terms():
    frame = MatrixFrame(2, ([[1.0, 0.0], [0.0, 0.0]], [0.0, 1.0]))
    terms = enumerate_minors(frame)
    zero_terms = [t for t in terms if t.negligible]
    assert zero_terms  # the zero column shows up flagged, not dropped
    assert len(terms) == 3


def test_minor_enumeration_single_basis():
    basis = MatrixFrame(2, ([1, 0], [0, 1]))
    terms = enumerate_minors(basis)
    assert len(terms) == 1
    assert terms[0].value == pytest.approx(1.0)
    assert terms[0].support == (0, 1)


def test_minor_size_guard():
    # d = 8 and 40 single columns: C(40, 8) = 76,904,685 terms, refused
    # by DEFAULT_SIZE_GUARD before the first chunk is gathered.
    rng = np.random.default_rng(0)
    frame = MatrixFrame(8, tuple(rng.standard_normal((8, 1)) for _ in range(40)))
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationSizeError, match=r"C\(40,8\) = 76904685"):
            enumerate_minors(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_det_via_minors(mixed_frame, orthonormal_frame):
    assert det_via_minors(mixed_frame, [0, 0, 0]) == pytest.approx(18.0)
    assert det_via_minors(mixed_frame, [math.log(2), 0, 0]) == pytest.approx(40.0)
    t = [0.7, -0.2]
    assert det_via_minors(orthonormal_frame, t) == pytest.approx(math.exp(0.5))


def test_det_minors_matches_direct():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d, cols = random_shape(rng)
        frame = random_frame(d, cols, rng)
        t = rng.uniform(-2, 2, frame.n)
        direct = float(np.linalg.det(scaled_operator(frame, t)))
        assert det_via_minors(frame, t) == pytest.approx(direct, rel=1e-9)


def test_det_minors_exact_rational(mixed_frame):
    # cross-check the expansion in exact arithmetic: the pooled columns
    # have integer entries, so each squared minor is an exact integer
    from itertools import combinations

    pooled = [[Fraction(1), Fraction(0), Fraction(1), Fraction(1)],
              [Fraction(0), Fraction(2), Fraction(-1), Fraction(1)]]
    values = []
    for i, j in combinations(range(4), 2):
        det = pooled[0][i] * pooled[1][j] - pooled[0][j] * pooled[1][i]
        values.append(det * det)
    assert sorted(values) == [1, 1, 4, 4, 4, 4]
    assert sum(values) == 18
    terms = enumerate_minors(mixed_frame)
    assert sorted(Fraction(t.value) for t in terms) == sorted(values)


def test_grad_via_minors(mixed_frame):
    assert_close(grad_via_minors(mixed_frame, [0, 0, 0]), [1.0, 0.5, 0.5])
    basis = MatrixFrame(2, ([1, 0], [0, 1]))
    assert_close(grad_via_minors(basis, [0.4, -0.1]), [1.0, 1.0])


def test_three_way_gradient_agreement():
    rng = np.random.default_rng(6)
    for _ in range(20):
        d, cols = random_shape(rng, d_max=3, n_max=6, cols_max=3)
        frame = random_frame(d, cols, rng)
        for _ in range(3):
            t = rng.uniform(-1.5, 1.5, frame.n)
            analytic = log_det_potential_grad(frame, t)
            combinatorial = grad_via_minors(frame, t)
            numeric = central_difference_grad(frame, t)
            # the two closed forms agree far more tightly than the stencil
            assert np.allclose(analytic, combinatorial, rtol=1e-8, atol=1e-12)
            assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


def test_grad_minors_survives_large_scalings(orthonormal_frame):
    # log-space accumulation keeps the ratio finite where naive sums overflow
    grad = grad_via_minors(orthonormal_frame, [600.0, -600.0])
    assert_close(grad, [1.0, 1.0])


def scaling_objective(datum, t):
    """Potential minus <t, c>: the function the isotropy solver minimises."""
    t = np.asarray(t, dtype=float)
    return log_det(datum.frame, t) - float(np.dot(t, datum.weights.as_floats()))


def test_objective_values(mixed_frame, thirds, orthonormal_frame):
    datum = FrameDatum(mixed_frame, thirds)
    assert scaling_objective(datum, [0, 0, 0]) == pytest.approx(math.log(18))
    pair = FrameDatum(orthonormal_frame, WeightVector((1, 1)))
    for t in ([0.0, 0.0], [2.0, -1.0], [-3.5, 0.25]):
        assert scaling_objective(pair, t) == pytest.approx(0.0, abs=1e-12)


def test_objective_translation_invariance(mixed_frame, thirds):
    datum = FrameDatum(mixed_frame, thirds)
    rng = np.random.default_rng(7)
    t = rng.uniform(-1, 1, 3)
    base = scaling_objective(datum, t)
    for s in (-2.0, 0.5, 4.0):
        assert scaling_objective(datum, t + s) == pytest.approx(base, abs=1e-9)


def test_objective_convexity_probe():
    rng = np.random.default_rng(8)
    frame = random_frame(2, [1, 1, 2], rng)
    datum = FrameDatum(frame, WeightVector.uniform(2, 3))
    for _ in range(40):
        a = rng.uniform(-2, 2, 3)
        b = rng.uniform(-2, 2, 3)
        mid = scaling_objective(datum, (a + b) / 2)
        chord = 0.5 * (scaling_objective(datum, a) + scaling_objective(datum, b))
        assert mid <= chord + 1e-9


def test_log_capacity(mixed_frame, thirds, orthonormal_frame):
    pair = FrameDatum(orthonormal_frame, WeightVector((1, 1)))
    assert log_capacity(pair, 0.0) == 0.0
    assert log_capacity(pair, -math.inf) == -math.inf
    datum = FrameDatum(mixed_frame, thirds)
    f_value = 1.234
    expected = f_value + 2.0 * math.log(2.0 / 3.0)
    assert log_capacity(datum, f_value) == pytest.approx(expected, abs=1e-12)


def test_objective_state(mixed_frame):
    operator = kernel_operator(mixed_frame, np.zeros(3))
    assert np.max(np.abs(operator - operator.T)) <= 1e-12
    grad = log_det_potential_grad(mixed_frame, np.zeros(3))
    assert float(np.sum(grad)) == pytest.approx(2.0, abs=1e-8)
    assert log_det(mixed_frame, np.zeros(3)) == pytest.approx(math.log(18))


def test_hessian_matches_gradient_differences():
    rng = np.random.default_rng(10)
    step = 1e-5
    for _ in range(20):
        d, cols = random_shape(rng, d_max=3, n_max=6, cols_max=3)
        frame = random_frame(d, cols, rng)
        for _ in range(3):
            t = rng.uniform(-1.5, 1.5, frame.n)
            hess = _potential(frame, t).hessian(_block_pairs(frame))
            numeric = np.empty((frame.n, frame.n))
            for j in range(frame.n):
                up, down = t.copy(), t.copy()
                up[j] += step
                down[j] -= step
                numeric[:, j] = (
                    log_det_potential_grad(frame, up) - log_det_potential_grad(frame, down)
                ) / (2 * step)
            assert np.allclose(hess, numeric, rtol=0.0, atol=1e-7)
            # the potential is linear along the all-ones direction
            assert float(np.max(np.abs(hess.sum(axis=1)))) <= 1e-10


def test_sym_inverse_sqrt():
    rng = np.random.default_rng(9)
    mat = rng.standard_normal((3, 3))
    spd = mat @ mat.T + 3 * np.eye(3)
    root = sym_inverse_sqrt(spd)
    assert_close(root @ spd @ root, np.eye(3), tol=1e-10)
    with pytest.raises(NotPositiveDefiniteError):
        sym_inverse_sqrt(np.diag([1.0, 0.0]))


def _blockwise_hessian(frame, t):
    """diag(g) - [sum over a in block i, b in block j of (r_a . r_b)^2], by loops.

    r_a is column a scaled by e^{t_i/2} and rotated by diag(lam)^{-1/2} U^T
    from an eigendecomposition of the kernel's Q(t), independent of the
    factor the kernel rotates by.  Each lam_k is taken as |S^T u_k|^2 =
    u_k^T Q u_k, not as eigh's eigenvalue, whose relative error is about
    eps kappa(Q): every row of the reference R is then a unit vector to
    rounding, so R R^T = I up to off-diagonal terms that move the Hessian
    only to second order.  At n = 1, where the Hessian is rounding noise
    around 0, that keeps the reference's noise below the tolerance.
    """
    eigvecs = np.linalg.eigh(kernel_operator(frame, t))[1]
    scaled = [math.exp(t[i] / 2.0) * block for i, block in enumerate(frame.blocks)]
    rotated = eigvecs.T @ np.hstack(scaled)
    rotated /= np.linalg.norm(rotated, axis=1)[:, None]
    cols = list(rotated.T)
    owner = [i for i, c in enumerate(frame.block_cols) for _ in range(c)]
    grad = np.zeros(frame.n)
    coupling = np.zeros((frame.n, frame.n))
    for a, r_a in enumerate(cols):
        grad[owner[a]] += float(r_a @ r_a)
        for b, r_b in enumerate(cols):
            coupling[owner[a], owner[b]] += float(r_a @ r_b) ** 2
    return np.diag(grad) - coupling


@st.composite
def _frames_and_scalings(draw):
    """Blocks of 1 to 4 columns, n from 1, and scalings up to +-400.

    A common offset carries t out to +-400 and a spread of e^{+-2} per
    block keeps Q(t) well conditioned.
    """
    cols = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    d = draw(st.integers(1, min(4, sum(cols))))
    frame = random_frame(d, cols, np.random.default_rng(draw(st.integers(0, 2**32))))
    offset = draw(st.floats(-398.0, 398.0))
    spread = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(cols), max_size=len(cols)))
    return frame, offset + np.array(spread)


@settings(max_examples=80, deadline=None)
@given(_frames_and_scalings())
def test_hessian_matches_blockwise_definition(frame_and_t):
    frame, t = frame_and_t
    _assert_blockwise_hessian(frame, t)


def test_hessian_blockwise_named_cases(mixed_frame):
    # n = 1, and scalings whose products e^{t_i} e^{t_j} overflow.
    single = MatrixFrame(3, (np.arange(12.0).reshape(3, 4) ** 1.5,))
    _assert_blockwise_hessian(single, np.array([-400.0]))
    _assert_blockwise_hessian(mixed_frame, np.array([400.0, 400.0, -800.0]))
    # A large-solve shape: d = 16 and 48 blocks of 1 to 3 columns.
    rng = np.random.default_rng(16)
    wide = random_frame(16, rng.integers(1, 4, 48).tolist(), rng)
    _assert_blockwise_hessian(wide, rng.uniform(-1.0, 1.0, 48))


def _assert_blockwise_hessian(frame, t):
    # Relative to the largest term of the difference diag(g) - coupling:
    # at n = 1 the two cancel and the Hessian is rounding noise around 0.
    point = _potential(frame, t)
    hess = point.hessian(_block_pairs(frame))
    expected = _blockwise_hessian(frame, t)
    assert np.allclose(hess, expected, rtol=0.0, atol=1e-12 * float(np.max(point.grad)))


def test_hessian_survives_huge_scalings(mixed_frame):
    # e^{400} e^{400} overflows; the kernel scales the columns by e^{t/2}
    # before rotating, so the Hessian stays finite.
    t = np.array([400.0, 400.0, -800.0])
    point = _potential(mixed_frame, t)
    hess = point.hessian(_block_pairs(mixed_frame))
    assert math.isfinite(point.value) and np.all(np.isfinite(point.grad))
    assert np.all(np.isfinite(hess))
    assert np.array_equal(hess, hess.T)
    row_sums = np.abs(hess.sum(axis=1))
    assert float(np.max(row_sums)) <= 1e-12 * float(np.max(np.abs(hess)))

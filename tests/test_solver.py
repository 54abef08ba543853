import time

import numpy as np
import pytest

from frameiso import (
    FrameDatum,
    MatrixFrame,
    SolverConfig,
    WeightVector,
    in_relative_interior,
    is_radial_isotropic,
    minimize,
    radial_isotropy_residual,
    stationarity_residual,
    to_radial_isotropic,
)
from frameiso.generate import random_degenerate_frame, random_frame
from frameiso.objective import _potential
from frameiso.solver import _newton_direction

from conftest import assert_close


def test_orthonormal_already_isotropic(orthonormal_frame):
    datum = FrameDatum(orthonormal_frame, WeightVector((1, 1)))
    result = minimize(datum)
    assert result.status == "converged"
    assert result.iterations == 0
    assert_close(result.t_star, [0.0, 0.0])
    assert result.objective_value == pytest.approx(0.0, abs=1e-12)
    assert_close(result.transformer, np.eye(2))
    assert to_radial_isotropic(datum, result) == orthonormal_frame


def test_example_frame_converges(mixed_frame, thirds):
    datum = FrameDatum(mixed_frame, thirds)
    result = minimize(datum)
    assert result.status == "converged"
    assert result.grad_norm <= 1e-8
    # the gradient at the origin is (1, .5, .5) != c, so t* must move
    assert float(np.max(np.abs(result.t_star))) > 1e-3
    assert np.allclose(result.transformer, result.transformer.T, atol=1e-14)
    assert np.all(np.linalg.eigvalsh(result.transformer) > 0)
    transformed = to_radial_isotropic(datum, result)
    residual = radial_isotropy_residual(FrameDatum(transformed, thirds))
    assert residual <= 1e-7
    assert is_radial_isotropic(FrameDatum(transformed, thirds), 10 * result.grad_tol)


def test_collinear_not_semistable(collinear_frame, thirds):
    result = minimize(FrameDatum(collinear_frame, thirds))
    assert result.status == "not_semistable"
    assert result.polytope is not None
    assert (0, 1) in result.polytope.violating_subsets
    with pytest.raises(ValueError):
        to_radial_isotropic(FrameDatum(collinear_frame, thirds), result)


def test_collinear_diverges_without_guard(collinear_frame, thirds):
    config = SolverConfig(check_polytope=False)
    result = minimize(FrameDatum(collinear_frame, thirds), config)
    assert result.status == "unbounded_below"
    assert result.polytope is not None and not result.polytope.member


def test_weight_sum_precondition(mixed_frame):
    with pytest.raises(ValueError):
        minimize(FrameDatum(mixed_frame, WeightVector((1, 1, 1))))


def test_non_frame_precondition(thirds):
    flat = MatrixFrame(2, ([1.0, 0.0], [2.0, 0.0], [3.0, 0.0]))
    with pytest.raises(ValueError):
        minimize(FrameDatum(flat, thirds))


def test_monotone_descent(mixed_frame, thirds):
    result = minimize(FrameDatum(mixed_frame, thirds))
    drops = np.diff(result.objective_history)
    # non-increasing up to the float resolution of the objective
    assert float(np.max(drops, initial=0.0)) <= 1e-12


def test_gauge_recentred(mixed_frame, thirds):
    result = minimize(FrameDatum(mixed_frame, thirds))
    c = thirds.as_floats()
    assert abs(float(np.dot(result.t_star, c))) <= 1e-9


def test_extremiser_consistency(mixed_frame, thirds):
    result = minimize(FrameDatum(mixed_frame, thirds))
    lhs = np.exp(result.t_star) / result.extremisers
    assert np.allclose(lhs, thirds.as_floats(), rtol=1e-7)


def test_stationarity_residual_at_origin(mixed_frame, thirds, orthonormal_frame):
    datum = FrameDatum(mixed_frame, thirds)
    residual = stationarity_residual(datum, np.zeros(3))
    assert_close(residual, [1.0 / 3.0, -1.0 / 6.0, -1.0 / 6.0], tol=1e-12)
    pair = FrameDatum(orthonormal_frame, WeightVector((1, 1)))
    assert_close(stationarity_residual(pair, np.zeros(2)), [0.0, 0.0], tol=1e-15)


def test_stationarity_residual_at_solution(mixed_frame, thirds):
    datum = FrameDatum(mixed_frame, thirds)
    result = minimize(datum)
    residual = stationarity_residual(datum, result.t_star)
    assert float(np.max(np.abs(residual))) <= 1e-7


def test_block_scaling_absorbed(mixed_frame, thirds):
    datum = FrameDatum(mixed_frame, thirds)
    base = minimize(datum)
    scaled = MatrixFrame(
        2, tuple(s * b for s, b in zip((4.0, 0.5, 2.0), mixed_frame.blocks))
    )
    scaled_datum = FrameDatum(scaled, thirds)
    result = minimize(scaled_datum)
    assert result.status == "converged"
    r1 = radial_isotropy_residual(
        FrameDatum(to_radial_isotropic(datum, base), thirds)
    )
    r2 = radial_isotropy_residual(
        FrameDatum(to_radial_isotropic(scaled_datum, result), thirds)
    )
    assert r1 <= 1e-7 and r2 <= 1e-7


def test_degenerate_random_frames_diverge():
    rng = np.random.default_rng(12)
    for _ in range(5):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(d + 1, 8))
        frame, subset = random_degenerate_frame(d, n, rng)
        datum = FrameDatum(frame, WeightVector.uniform(d, n))
        guarded = minimize(datum)
        assert guarded.status == "not_semistable"
        assert subset in guarded.polytope.violating_subsets
        free = minimize(datum, SolverConfig(check_polytope=False))
        assert free.status == "unbounded_below"


def test_cross_check_over_size_guard_is_skipped():
    # 2^40 subsets: the divergence cross-check must refuse, not enumerate.
    rng = np.random.default_rng(15)
    frame, _ = random_degenerate_frame(16, 40, rng)
    datum = FrameDatum(frame, WeightVector.uniform(16, 40))
    start = time.perf_counter()
    result = minimize(datum, SolverConfig(check_polytope=False))
    assert time.perf_counter() - start < 5.0
    assert result.status == "unbounded_below"
    assert result.polytope is None


def _generic_random_data():
    rng = np.random.default_rng(13)
    for _ in range(5):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(d + 1, 8))
        cols = [int(rng.integers(1, 3)) for _ in range(n)]
        frame = random_frame(d, cols, rng)
        yield FrameDatum(frame, WeightVector.uniform(d, n))


def test_generic_random_frames_converge():
    for datum in _generic_random_data():
        result = minimize(datum)
        assert result.status == "converged"
        transformed = to_radial_isotropic(datum, result)
        assert is_radial_isotropic(FrameDatum(transformed, datum.weights), 1e-6)


def test_newton_iteration_count(mixed_frame, thirds):
    # Newton needs 3 to 6 iterations here; steepest descent needed 21 to 137.
    for datum in [FrameDatum(mixed_frame, thirds), *_generic_random_data()]:
        result = minimize(datum)
        assert result.status == "converged"
        assert result.iterations <= 10


def test_newton_direction_is_minimum_norm_solution():
    # The gauge-filled solve must give the least-squares Newton direction:
    # H d = -g with d orthogonal to the all-ones null direction of H.
    rng = np.random.default_rng(14)
    for datum in _generic_random_data():
        frame, c = datum.frame, datum.weights.as_floats()
        t = rng.uniform(-1.0, 1.0, frame.n)
        _, grad, hess = _potential(frame, t, order=2)
        gradient = grad - c
        direction = _newton_direction(hess, gradient)
        reference = -np.linalg.lstsq(hess, gradient, rcond=1e-12)[0]
        assert_close(direction, reference, tol=1e-9)
        assert abs(float(np.sum(direction))) <= 1e-10


def test_boundary_weights_terminate():
    # c_1 = 1 = dim span(e1): a member of the orbit polytope on its boundary,
    # where the infimum is approached only as t runs off to infinity.
    frame = MatrixFrame(2, ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]))
    datum = FrameDatum(frame, WeightVector((1, "1/2", "1/2")))
    result = minimize(datum)
    assert result.iterations <= 50
    assert result.polytope.member
    assert not in_relative_interior(datum)

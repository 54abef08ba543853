import math

import numpy as np
import pytest

from frameiso import (
    BipartiteQuiverRep,
    FrameDatum,
    MatrixFrame,
    WeightVector,
    frame_to_rep,
    in_orbit_polytope,
    induced_sigma,
    is_equal_norm_parseval,
    is_geometric_bl_datum,
    is_matrix_frame,
    is_parseval,
    is_radial_isotropic,
    is_sigma_critical,
    minimize,
    nearness,
    radial_isotropy_residual,
    scale_to_critical,
)
from frameiso.generate import random_equal_norm_parseval, random_frame

from conftest import assert_close


def scaled_parseval(frame):
    """Blow an equal-norm Parseval frame up to a unit-norm weighted one."""
    factor = math.sqrt(frame.n / frame.d)
    return MatrixFrame(frame.d, tuple(factor * b for b in frame.blocks))


def test_is_parseval(orthonormal_frame, mixed_frame, thirds, tight_four_frame):
    assert is_parseval(FrameDatum(orthonormal_frame, WeightVector((1, 1))), 1e-12)
    assert not is_parseval(FrameDatum(mixed_frame, thirds), 1e-9)
    blown = scaled_parseval(tight_four_frame)
    datum = FrameDatum(blown, WeightVector.uniform(2, 4))
    assert is_parseval(datum, 1e-12)


def test_is_equal_norm_parseval(tight_four_frame, orthonormal_frame, mixed_frame):
    assert is_equal_norm_parseval(tight_four_frame, 1e-12)
    assert is_equal_norm_parseval(orthonormal_frame, 1e-12)  # d/n = 1 here
    assert not is_equal_norm_parseval(mixed_frame, 1e-9)


def test_nearness(tight_four_frame, mixed_frame):
    report = nearness(tight_four_frame)
    assert report.epsilon <= 1e-15
    scaled = MatrixFrame(
        2, (math.sqrt(1.1) * tight_four_frame.blocks[0],) + tight_four_frame.blocks[1:]
    )
    report = nearness(scaled)
    assert report.epsilon_norms == pytest.approx(0.1, abs=1e-12)
    assert report.epsilon_operator == pytest.approx(0.05, abs=1e-12)
    assert report.epsilon == pytest.approx(0.1, abs=1e-12)
    assert nearness(mixed_frame).epsilon_operator == pytest.approx(5.0, abs=1e-12)


def test_nearness_zero_iff_equal_norm(tight_four_frame):
    assert nearness(tight_four_frame).epsilon <= 1e-15
    assert is_equal_norm_parseval(tight_four_frame, 1e-14)
    bad = MatrixFrame(2, tuple(1.01 * b for b in tight_four_frame.blocks))
    assert nearness(bad).epsilon > 1e-3
    assert not is_equal_norm_parseval(bad, 1e-3)


def test_radial_isotropy(mixed_frame, thirds, orthonormal_frame):
    # the column split of the mixed frame is isotropic at the identity
    split = MatrixFrame(2, ([1, 0], [0, 2], [1, -1], [1, 1]))
    split_weights = WeightVector(("1/3", "1/3", "2/3", "2/3"))
    assert radial_isotropy_residual(FrameDatum(split, split_weights)) <= 1e-12
    # but the same columns grouped into blocks are not
    datum = FrameDatum(mixed_frame, thirds)
    assert not is_radial_isotropic(datum, 1e-6)
    weighted_sum = sum(
        float(c) * b @ b.T / float(np.sum(b**2))
        for c, b in zip(thirds.as_floats(), mixed_frame.blocks)
    )
    assert_close(weighted_sum, [[0.8, 0.0], [0.0, 1.2]], tol=1e-12)
    assert is_radial_isotropic(
        FrameDatum(orthonormal_frame, WeightVector((1, 1))), 1e-12
    )


def test_radial_isotropy_zero_block():
    frame = MatrixFrame(2, ([1.0, 0.0], [0.0, 0.0]))
    with pytest.raises(ValueError):
        radial_isotropy_residual(FrameDatum(frame, WeightVector((1, 1))))


def test_frame_embedding_shapes(mixed_frame):
    rep = frame_to_rep(mixed_frame)
    assert rep.source_dims == (2,)
    assert rep.sink_dims == (1, 1, 1)
    assert len(rep.arrow_maps[(0, 0)]) == 2
    assert rep.arrow_maps[(0, 0)][1].shape == (1, 2)
    assert_close(rep.arrow_maps[(0, 1)][0], [[1.0, -1.0]])


def test_rep_shape_validation():
    with pytest.raises(ValueError):
        BipartiteQuiverRep((2,), (1,), {(0, 0): (np.eye(2),)})


def test_bl_datum_orthonormal(orthonormal_frame):
    rep = frame_to_rep(orthonormal_frame)
    assert is_geometric_bl_datum(rep, WeightVector((1, 1)), 1e-12)


def test_bl_datum_matches_parseval(tight_four_frame, mixed_frame, thirds):
    blown = scaled_parseval(tight_four_frame)
    weights = WeightVector.uniform(2, 4)
    assert is_parseval(FrameDatum(blown, weights), 1e-9)
    assert is_geometric_bl_datum(frame_to_rep(blown), weights, 1e-9)
    assert not is_geometric_bl_datum(frame_to_rep(mixed_frame), thirds, 1e-9)


def test_sigma_critical_zero_rep():
    rep = BipartiteQuiverRep((2,), (1, 1), {(0, 0): (np.zeros((1, 2)),),
                                            (0, 1): (np.zeros((1, 2)),)})
    assert is_sigma_critical(rep, ((0,), (0, 0)), 1e-12)


def test_sigma_critical_orthonormal(orthonormal_frame):
    weights = WeightVector((1, 1))
    rep = frame_to_rep(orthonormal_frame)
    scaled = scale_to_critical(rep, weights)
    sigma = induced_sigma(weights)
    assert sigma == ((1,), (-1, -1))
    assert is_sigma_critical(scaled, sigma, 1e-12)
    # omega * c_i = 1 here, so the scaling leaves the arrows unchanged
    for key, mats in rep.arrow_maps.items():
        for original, rescaled in zip(mats, scaled.arrow_maps[key]):
            assert np.array_equal(original, rescaled)


def test_sigma_critical_rejects_float_sigma(orthonormal_frame):
    rep = frame_to_rep(orthonormal_frame)
    with pytest.raises(TypeError):
        is_sigma_critical(rep, ((1.0,), (-1, -1)), 1e-9)


def test_unscaled_non_parseval_rep_fails(mixed_frame, thirds):
    rep = frame_to_rep(mixed_frame)
    sigma = induced_sigma(thirds)
    assert not is_sigma_critical(rep, sigma, 1e-9)


def test_bl_critical_equivalence_corpus():
    rng = np.random.default_rng(21)
    for trial in range(30):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(d + 1, 8))
        cols = [int(rng.integers(1, 3)) for _ in range(n)]
        if trial % 2 == 0:
            frame = scaled_parseval(random_equal_norm_parseval(d, cols, rng))
        else:
            frame = random_frame(d, cols, rng)
        weights = WeightVector.uniform(d, n)
        rep = frame_to_rep(frame)
        bl = is_geometric_bl_datum(rep, weights, 1e-9)
        critical = is_sigma_critical(
            scale_to_critical(rep, weights), induced_sigma(weights), 1e-9
        )
        assert bl == critical
        assert bl == (trial % 2 == 0)


def test_bl_critical_equivalence_two_sources():
    # Each column x_i = (u_i, w_i) of a frame in R^3 is split between a
    # 1-dimensional source and a 2-dimensional one: sink i receives u_i^T
    # and w_i^T.  Its sink sum is |x_i|^2 and the source sums are the
    # diagonal blocks of sum_i c_i x_i x_i^T, so the unit columns of a
    # radially isotropic frame give a Brascamp-Lieb datum and a Gaussian
    # frame does not.
    rng = np.random.default_rng(23)
    weights = WeightVector(("1/2", "1/2", "2/3", "2/3", "2/3"))
    omega, scaled = weights.scaled()
    sigma = ((omega, omega), tuple(-a for a in scaled))
    for trial in range(10):
        frame = random_frame(3, [1] * 5, rng)
        cols = frame.pooled()
        if trial % 2 == 0:
            cols = minimize(FrameDatum(frame, weights)).transformer @ cols
            cols = cols / np.linalg.norm(cols, axis=0)
        # Source 1's arrow groups come first: the order of the map is not
        # the order of the vertices.
        maps = {(1, i): (cols[1:, i].reshape(1, 2),) for i in range(5)}
        maps.update({(0, i): (cols[:1, i].reshape(1, 1),) for i in range(5)})
        rep = BipartiteQuiverRep((1, 2), (1,) * 5, maps)
        bl = is_geometric_bl_datum(rep, weights, 1e-6)
        assert bl == (trial % 2 == 0)
        assert is_sigma_critical(scale_to_critical(rep, weights), sigma, 1e-6) == bl


def test_parseval_implies_semistable_and_frame():
    rng = np.random.default_rng(22)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(d + 1, 8))
        cols = [int(rng.integers(1, 3)) for _ in range(n)]
        frame = scaled_parseval(random_equal_norm_parseval(d, cols, rng))
        datum = FrameDatum(frame, WeightVector.uniform(d, n))
        assert is_parseval(datum, 1e-9)
        assert in_orbit_polytope(datum).member
        assert is_matrix_frame(frame)

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frameiso import (
    MatrixFrame,
    SolverConfig,
    dist_squared,
    is_equal_norm_parseval,
    is_generic,
    majorization_transport,
    majorizes,
    nearness,
    paulsen_round,
    perturb_to_generic,
)
import frameiso.paulsen
from frameiso.generate import random_nearly_parseval


def test_majorizes_examples():
    assert majorizes([2.0, 0.0], [1.0, 1.0])
    assert majorizes([1.0, 1.0], [1.0, 1.0])
    assert not majorizes([1.0, 1.0], [2.0, 0.0])
    # order matters: no sorting is applied
    assert not majorizes([0.0, 2.0], [1.0, 1.0])
    assert not majorizes([2.0, 1.0], [1.0, 1.0])  # totals differ


def test_transport_examples():
    assert majorization_transport([2.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)
    assert majorization_transport([3.0, 1.0], [3.0, 1.0]) == 0.0
    with pytest.raises(ValueError):
        majorization_transport([1.0, 1.0], [2.0, 0.0])


def majorizing_pair(rng, size):
    u = rng.uniform(-2, 2, size)
    gaps = np.concatenate([rng.uniform(0, 2, size - 1), [0.0]])
    v = u + gaps - np.concatenate([[0.0], gaps[:-1]])
    return v, u


def test_transport_linearity():
    rng = np.random.default_rng(31)
    for _ in range(50):
        size = int(rng.integers(2, 7))
        v1, u1 = majorizing_pair(rng, size)
        v2, u2 = majorizing_pair(rng, size)
        lhs = majorization_transport(v1 + v2, u1 + u2)
        rhs = majorization_transport(v1, u1) + majorization_transport(v2, u2)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_transport_prefix_sum_form():
    rng = np.random.default_rng(32)
    for _ in range(50):
        size = int(rng.integers(2, 7))
        v, u = majorizing_pair(rng, size)
        prefix_form = float(np.sum(np.cumsum(v - u)))
        assert majorization_transport(v, u) == pytest.approx(prefix_form, abs=1e-9)


def test_l1_within_twice_transport():
    # the factor two is tight on the pair ((2,0), (1,1))
    v, u = np.array([2.0, 0.0]), np.array([1.0, 1.0])
    l1 = float(np.sum(np.abs(u - v)))
    transport = majorization_transport(v, u)
    assert l1 > transport  # the factor-one form fails here
    assert l1 <= 2.0 * transport
    rng = np.random.default_rng(33)
    for _ in range(500):
        size = int(rng.integers(2, 8))
        v, u = majorizing_pair(rng, size)
        l1 = float(np.sum(np.abs(u - v)))
        assert l1 <= 2.0 * majorization_transport(v, u) + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_l1_bound_property(size, seed):
    rng = np.random.default_rng(seed)
    v, u = majorizing_pair(rng, size)
    assert majorizes(v, u, 1e-9)
    l1 = float(np.sum(np.abs(u - v)))
    assert l1 <= 2.0 * majorization_transport(v, u) + 1e-9


def test_perturb_exact_input(tight_four_frame):
    frame, gamma = perturb_to_generic(tight_four_frame, 1e-3, rng_seed=5)
    assert is_generic(frame)
    assert dist_squared(tight_four_frame, frame) <= 1e-3 * 2
    assert nearness(frame).epsilon <= 4e-3
    assert 0.0 <= gamma <= 1e-3


def test_perturb_zero_branch(tight_four_frame):
    # the normalised frame is already generic, so no noise is added
    frame, gamma = perturb_to_generic(tight_four_frame, 1e-3, rng_seed=5)
    assert gamma == 0.0
    assert dist_squared(tight_four_frame, frame) <= 1e-28


def test_perturb_needs_noise_for_degenerate_input():
    # an equal-norm Parseval frame with two collinear blocks
    r = 2.0**-0.5
    frame = MatrixFrame(2, ([r, 0.0], [r, 0.0], [0.0, r], [0.0, r]))
    assert nearness(frame).epsilon <= 1e-15
    assert not is_generic(frame)
    perturbed, gamma = perturb_to_generic(frame, 0.01, rng_seed=9)
    assert is_generic(perturbed)
    assert gamma > 0.0
    assert dist_squared(frame, perturbed) <= 0.01 * 2


def test_perturb_deterministic(tight_four_frame):
    noisy = MatrixFrame(
        2, tuple(b + 0.01 * i for i, b in enumerate(tight_four_frame.blocks))
    )
    eps = nearness(noisy).epsilon
    first, g1 = perturb_to_generic(noisy, eps, rng_seed=77)
    second, g2 = perturb_to_generic(noisy, eps, rng_seed=77)
    assert first == second
    assert g1 == g2


def test_perturb_preconditions(tight_four_frame, orthonormal_frame):
    with pytest.raises(ValueError):
        perturb_to_generic(tight_four_frame, 0.5, rng_seed=0)
    with pytest.raises(ValueError):
        perturb_to_generic(orthonormal_frame, 0.1, rng_seed=0)  # n = d
    noisy = MatrixFrame(2, tuple(1.2 * b for b in tight_four_frame.blocks))
    with pytest.raises(ValueError):
        # the frame is farther from equal-norm Parseval than the budget
        perturb_to_generic(noisy, 1e-6, rng_seed=0)


def test_round_exact_input(tight_four_frame):
    report = paulsen_round(tight_four_frame, rng_seed=3)
    assert report.certified
    assert report.dist_input_output <= report.bound
    assert is_equal_norm_parseval(report.output, report.pipeline_tol)
    assert report.dist_input_output <= 1e-20


def test_round_uses_config_rank_tol(tight_four_frame, monkeypatch):
    # The genericity test of the perturbation runs at config.rank_tol.
    seen = []
    generic = frameiso.paulsen.is_generic

    def recording(frame, tol):
        seen.append(tol)
        return generic(frame, tol)

    monkeypatch.setattr(frameiso.paulsen, "is_generic", recording)
    report = paulsen_round(tight_four_frame, SolverConfig(rank_tol=1e-7), rng_seed=3)
    assert report.certified
    assert seen and set(seen) == {1e-7}


def test_round_measures_input_nearness_once(tight_four_frame, monkeypatch):
    # One measurement of the input, shared with the perturbation's budget,
    # and one of the accepted candidate.
    measured = []
    measure = frameiso.paulsen.nearness

    def recording(frame):
        measured.append(frame)
        return measure(frame)

    monkeypatch.setattr(frameiso.paulsen, "nearness", recording)
    report = paulsen_round(tight_four_frame, rng_seed=3)
    assert measured == [tight_four_frame, report.perturbed]


def test_round_preconditions(orthonormal_frame):
    far = MatrixFrame(2, ([2.0, 0.0], [0.0, 2.0], [1.0, 1.0], [1.0, -1.0]))
    with pytest.raises(ValueError):
        paulsen_round(far)
    with pytest.raises(ValueError):
        paulsen_round(orthonormal_frame)  # n = d


def test_round_report_consistency():
    rng = np.random.default_rng(41)
    frame = random_nearly_parseval(2, [1, 2, 1, 1], 0.08, rng)
    report = paulsen_round(frame, rng_seed=13)
    d = frame.d
    assert report.solver.status == "converged"
    # singular values sorted weakly decreasing and positive
    assert np.all(np.diff(report.singular_values) <= 1e-15)
    assert np.all(report.singular_values > 0)
    # rotating back is exact up to round-off
    assert report.dist_input_output == pytest.approx(
        report.distances["rotated_input_rounded"], rel=1e-9
    )
    # perturbation kept within its budgets
    assert report.distances["input_perturbed"] <= report.epsilon_used * d
    assert report.gamma <= min(1.0, report.epsilon_used)
    assert nearness(report.perturbed).epsilon <= 4 * report.epsilon_used
    # norm slack bound holds for the rotated perturbed blocks
    target = d / frame.n
    for block in report.rotated_perturbed.blocks:
        norm_sq = float(np.sum(block**2))
        assert (1 - report.gamma) * target - 1e-12 <= norm_sq
        assert norm_sq <= (1 + report.gamma) * target + 1e-12
    # distance decomposition bound
    decomposition_budget = 8 * report.epsilon_used * d * d + 4 * report.gamma * d * d
    assert report.distances["rotated_perturbed_rounded"] <= decomposition_budget
    assert report.majorization_ok


def test_round_row_mass_majorization():
    rng = np.random.default_rng(42)
    frame = random_nearly_parseval(3, [2, 1, 2, 1, 1], 0.15, rng)
    report = paulsen_round(frame, rng_seed=4)
    assert report.majorization_ok
    for helper, perturbed in zip(report.helper.blocks, report.rotated_perturbed.blocks):
        a, b = np.sum(helper**2, axis=1), np.sum(perturbed**2, axis=1)
        assert majorizes(a, b, 1e-9)
        assert float(np.sum(a)) == pytest.approx(float(np.sum(b)), abs=1e-12)


def test_round_deterministic():
    rng = np.random.default_rng(43)
    frame = random_nearly_parseval(2, [1, 1, 1, 1, 2], 0.05, rng)
    first = paulsen_round(frame, rng_seed=99)
    second = paulsen_round(frame, rng_seed=99)
    assert first.output == second.output
    assert first.dist_input_output == second.dist_input_output


def test_round_sweep_small():
    rng = np.random.default_rng(44)
    for trial in range(25):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(d + 2, 9))
        cols = [int(rng.integers(1, 3)) for _ in range(n)]
        eps = float(np.exp(rng.uniform(math.log(1e-3), math.log(0.29))))
        frame = random_nearly_parseval(d, cols, eps, rng)
        report = paulsen_round(frame, rng_seed=trial)
        assert report.certified, (trial, d, cols, eps)
        assert is_equal_norm_parseval(report.output, report.pipeline_tol)
        assert report.dist_input_output <= 26 * report.epsilon_used * d * d


def test_nearly_parseval_bisects_an_overshoot():
    # The fourth rescaling of this noise lands above the 0.3 cap.
    frame = random_nearly_parseval(2, [2, 1, 1, 2, 1], 0.25, np.random.default_rng(1))
    assert 0.5 * 0.25 <= nearness(frame).epsilon <= 0.98 * 0.25


def _blockwise_dist(frame_a, frame_b):
    return sum(
        float(np.sum((a - b) ** 2)) for a, b in zip(frame_a.blocks, frame_b.blocks)
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda d: st.tuples(
            st.just(d), st.lists(st.integers(1, 2), min_size=d + 2, max_size=d + 4)
        )
    ),
    st.floats(1e-3, 0.29),
    st.integers(0, 2**31 - 1),
)
@example(shape=(2, [2, 1, 1, 2, 1]), eps=0.25, seed=1)
def test_pooled_report_matches_blockwise_definitions(shape, eps, seed):
    d, cols = shape
    frame = random_nearly_parseval(d, cols, eps, np.random.default_rng(seed))
    report = paulsen_round(frame, rng_seed=seed)
    pairs = {
        "input_perturbed": (frame, report.perturbed),
        "rotated_perturbed_helper": (report.rotated_perturbed, report.helper),
        "helper_rounded": (report.helper, report.rounded_rotated),
        "rotated_perturbed_rounded": (report.rotated_perturbed, report.rounded_rotated),
        "rotated_input_rounded": (report.rotated_input, report.rounded_rotated),
        "input_output": (frame, report.output),
    }
    assert set(report.distances) == set(pairs)
    for name, (a, b) in pairs.items():
        assert report.distances[name] == pytest.approx(_blockwise_dist(a, b), rel=1e-12)
    assert report.dist_input_output == report.distances["input_output"]

    helper_masses = [np.sum(b**2, axis=1) for b in report.helper.blocks]
    perturbed_masses = [np.sum(b**2, axis=1) for b in report.rotated_perturbed.blocks]
    mass_tol = 1e-9 * max(1.0, d / frame.n)
    assert report.majorization_ok == all(
        majorizes(a, b, mass_tol) for a, b in zip(helper_masses, perturbed_masses)
    )
    # The array-wise test also agrees where majorization fails, as it
    # usually does with the roles swapped.
    assert frameiso.paulsen._majorizes_columns(
        np.column_stack(perturbed_masses), np.column_stack(helper_masses), mass_tol
    ) == all(majorizes(b, a, mass_tol) for a, b in zip(helper_masses, perturbed_masses))

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frameiso import (
    FrameDatum,
    MatrixFrame,
    SolverConfig,
    WeightVector,
    is_equal_norm_parseval,
    minimize,
    nearness,
    paulsen_round,
)
import frameiso.frames
import frameiso.objective
import frameiso.paulsen
from frameiso import cli
from frameiso.generate import random_nearly_parseval
from frameiso.io import write_frame_file
from frameiso.paulsen import _majorizes_columns

from conftest import majorization_transport


def majorizes(v, u, tol=1e-9):
    return _majorizes_columns(np.array(v), np.array(u), tol)


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


# d = 3: two copies of sqrt(0.6) e1 and three vectors of span(e2, e3) at
# 120 degrees, 0.2-nearly equal-norm Parseval.  The blocks (0, 1) weigh
# 2 * 3/5 > 1 = r({0, 1}), so the normalised frame's solve ends
# unbounded_below and the rounding takes a noise draw.
_ROOT = math.sqrt(0.6)
NOISE_PATH_FRAME = MatrixFrame(
    3,
    ([_ROOT, 0.0, 0.0], [_ROOT, 0.0, 0.0])
    + tuple(
        [0.0, _ROOT * math.cos(a), _ROOT * math.sin(a)]
        for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    ),
)


def test_perturb_exact_input(tight_four_frame):
    # The candidate taken for an exact frame stays within the budgets.
    report = paulsen_round(tight_four_frame, rng_seed=5)
    eps = report.epsilon_used
    assert report.certified
    assert report.distances["input_perturbed"] <= eps * 2
    assert nearness(report.perturbed).epsilon <= 4 * eps
    assert 0.0 <= report.gamma <= min(1.0, eps)


def test_perturb_zero_branch(tight_four_frame):
    # The normalised frame rounds with a certificate, so no noise is added.
    report = paulsen_round(tight_four_frame, rng_seed=5)
    assert report.certified
    assert report.gamma == 0.0
    assert report.distances["input_perturbed"] <= 1e-28


def test_round_noise_within_budgets():
    frame = NOISE_PATH_FRAME
    d, n = frame.d, frame.n
    assert nearness(frame).epsilon == pytest.approx(0.2)
    normalised = frame  # every block already has norm sqrt(d/n)
    assert np.allclose([np.sum(b**2) for b in frame.blocks], d / n)
    free = SolverConfig(check_polytope=False)
    assert minimize(FrameDatum(normalised, WeightVector.uniform(d, n)), free).status == (
        "unbounded_below"
    )

    report = paulsen_round(frame, rng_seed=9)
    eps = report.epsilon_used
    assert report.certified and report.majorization_ok
    h = np.array([
        np.linalg.norm(p - b) for p, b in zip(report.perturbed.blocks, normalised.blocks)
    ])
    assert 0.0 < np.max(h) <= eps / (2 * n)
    assert report.gamma == pytest.approx(np.max((n / d) * (h * h + 2 * h)), rel=1e-12)
    assert 0.0 < report.gamma <= min(1.0, eps)
    assert report.distances["input_perturbed"] <= eps * d
    assert nearness(report.perturbed).epsilon <= 4 * eps


def test_round_noise_deterministic():
    first = paulsen_round(NOISE_PATH_FRAME, rng_seed=77)
    second = paulsen_round(NOISE_PATH_FRAME, rng_seed=77)
    other = paulsen_round(NOISE_PATH_FRAME, rng_seed=78)
    assert first.perturbed == second.perturbed and first.gamma == second.gamma
    assert first.output == second.output
    assert first.perturbed != other.perturbed


def test_round_candidate_preconditions(tight_four_frame, orthonormal_frame):
    with pytest.raises(ValueError, match="below 0.3"):
        paulsen_round(tight_four_frame, epsilon_floor=0.5)
    with pytest.raises(ValueError, match="n > d"):
        paulsen_round(orthonormal_frame)
    with pytest.raises(ValueError):
        paulsen_round(MatrixFrame(2, ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])))


def test_round_exact_input(tight_four_frame):
    report = paulsen_round(tight_four_frame, rng_seed=3)
    assert report.certified
    assert report.dist_input_output <= report.bound
    assert is_equal_norm_parseval(report.output, report.pipeline_tol)
    assert report.dist_input_output <= 1e-20


def test_round_passes_config_to_minimize(tight_four_frame, monkeypatch):
    # config.rank_tol reaches every solve; the pre-check is always off.
    seen = []
    solve = frameiso.paulsen.minimize

    def recording(datum, config):
        seen.append(config)
        return solve(datum, config)

    monkeypatch.setattr(frameiso.paulsen, "minimize", recording)
    report = paulsen_round(tight_four_frame, SolverConfig(rank_tol=1e-7), rng_seed=3)
    assert report.certified
    assert seen and {(c.rank_tol, c.check_polytope) for c in seen} == {(1e-7, False)}


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
    assert _majorizes_columns(
        np.column_stack(perturbed_masses), np.column_stack(helper_masses), mass_tol
    ) == all(majorizes(b, a, mass_tol) for a, b in zip(helper_masses, perturbed_masses))


def repeated_basis(d, copies, eps):
    """``copies`` copies of a random orthonormal basis of R^d, one column
    per block scaled to sqrt(d/n), moved by Gaussian noise to nearness
    about ``eps`` (exactly equal-norm Parseval at eps = 0)."""
    rng = np.random.default_rng([d, copies])
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    cols = np.hstack([q] * copies) / math.sqrt(copies)

    def frame(scale):
        moved = cols + scale * noise
        return MatrixFrame(d, tuple(moved[:, [k]] for k in range(moved.shape[1])))

    noise = rng.standard_normal(cols.shape)
    if eps == 0:
        return frame(0.0)
    return frame(1e-3 * eps / nearness(frame(1e-3)).epsilon)


@pytest.mark.parametrize("eps", [0, 1e-6, 1e-4, 1e-2])
@pytest.mark.parametrize("copies", [2, 3])
@pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
def test_round_repeated_bases(d, copies, eps):
    # Every d-subset holding a repeated column has a minor of order eps^m,
    # and the weights d/n sit on the boundary of the orbit polytope; the
    # normalised frame still rounds with a certificate.
    frame = repeated_basis(d, copies, eps)
    assert nearness(frame).epsilon == pytest.approx(eps, rel=0.05, abs=1e-14)
    report = paulsen_round(frame, rng_seed=d)
    assert report.certified and report.majorization_ok
    assert report.gamma == 0.0


@pytest.mark.parametrize("d, n", [(8, 40), (16, 64), (8, 256)])
def test_round_past_the_minor_guard(d, n):
    # C(40, 8) = 76,904,685 pooled minors, far past DEFAULT_SIZE_GUARD.
    frame = random_nearly_parseval(d, [1] * n, 0.05, np.random.default_rng(d * n))
    report = paulsen_round(frame, rng_seed=1)
    assert report.certified and report.majorization_ok
    assert report.dist_input_output <= 1e-2 * report.epsilon_used * d * d


def test_rounding_enumerates_nothing(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the minor enumeration ran")

    # objective imports the name, so both modules' bindings are replaced.
    monkeypatch.setattr(frameiso.frames, "_column_minors", refuse)
    monkeypatch.setattr(frameiso.objective, "_column_minors", refuse)
    big = random_nearly_parseval(8, [1] * 40, 0.05, np.random.default_rng(320))
    for frame in (NOISE_PATH_FRAME, repeated_basis(4, 2, 0), big):
        assert paulsen_round(frame).certified
    path = tmp_path / "big.json"
    write_frame_file(path, big)
    assert cli.main(["paulsen", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["certified"] is True


@pytest.mark.parametrize("d, copies", [(2, 2), (4, 3), (8, 2)])
def test_cli_paulsen_repeated_basis(tmp_path, capsys, d, copies):
    path = tmp_path / "repeated.json"
    write_frame_file(path, repeated_basis(d, copies, 0))
    assert cli.main(["paulsen", str(path), "--out", str(tmp_path / "out.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certified"] is True and report["majorization_ok"] is True

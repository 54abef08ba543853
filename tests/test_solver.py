import json
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frameiso import (
    EnumerationSizeError,
    FrameDatum,
    MatrixFrame,
    NotPositiveDefiniteError,
    SolverConfig,
    WeightVector,
    in_orbit_polytope,
    is_generic,
    is_matrix_frame,
    is_radial_isotropic,
    log_det_potential_grad,
    minimize,
    radial_isotropy_residual,
    scaled_frame_operator,
    stationarity_residual,
    to_radial_isotropic,
)
import frameiso.objective
import frameiso.polytope
import frameiso.solver
from frameiso import cli
from frameiso.generate import random_degenerate_frame, random_frame
from frameiso.io import write_frame_file
from frameiso.objective import _hessian, _owner_indicator, _potential
from frameiso.solver import _newton_direction

from conftest import assert_close, sym_inverse_sqrt, traced_peak


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


def test_matrix_frame_test_precedes_certificate(thirds, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certificate called before the matrix-frame test")

    monkeypatch.setattr(frameiso.solver, "orbit_polytope_report", refuse)
    flat = MatrixFrame(2, ([1.0, 0.0], [2.0, 0.0], [3.0, 0.0]))
    # Q(0) overflows: its eigenvalues are not finite, so no matrix frame.
    huge = MatrixFrame(2, ([1e200, 0.0], [0.0, 1.0], [1.0, 1.0]))
    for frame in (flat, huge):
        for check in (True, False):
            with pytest.raises(ValueError, match="not a matrix frame"):
                minimize(FrameDatum(frame, thirds), SolverConfig(check_polytope=check))


@st.composite
def _frames_near_the_matrix_frame_test(draw):
    """(frame, rank_tol): a Gaussian frame made near-flat (every column
    within 10^U(-16, -2) of the first axis), widely scaled (blocks scaled
    by 10^U(-8, 8)) or overflowing (its first block scaled by
    10^U(160, 300)), with a rank tolerance on either side of the default."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = random_frame(d, [int(rng.integers(1, 3)) for _ in range(n)], rng).blocks
    kind = draw(st.sampled_from(["near-flat", "widely scaled", "overflowing"]))
    if kind == "near-flat":
        blocks = [np.vstack([b[:1], 10.0 ** rng.uniform(-16, -2) * b[1:]]) for b in blocks]
    elif kind == "widely scaled":
        blocks = [10.0 ** rng.uniform(-8, 8) * b for b in blocks]
    else:
        blocks = [10.0 ** rng.uniform(160, 300) * blocks[0], *blocks[1:]]
    return MatrixFrame(d, tuple(blocks)), draw(st.sampled_from([1e-14, 1e-9, 1e-4]))


@settings(max_examples=80, deadline=None)
@given(_frames_near_the_matrix_frame_test(), st.booleans())
def test_minimize_refuses_exactly_what_is_matrix_frame_refuses(case, check):
    # The solve's matrix-frame test is is_matrix_frame itself, overflow
    # included; max_iters=1 keeps the accepted frames' solves short.
    frame, rank_tol = case
    config = SolverConfig(max_iters=1, check_polytope=check, rank_tol=rank_tol)
    try:
        minimize(FrameDatum(frame, WeightVector.uniform(frame.d, frame.n)), config)
        refused = False
    except (ValueError, ArithmeticError, EnumerationSizeError) as exc:
        refused = str(exc).startswith("not a matrix frame")
    assert refused == (not is_matrix_frame(frame, rank_tol))


def test_matrix_frame_below_eigenvalue_floor(thirds):
    # Three columns within 5e-7 rad of one line: lambda(Q(0)) = 1.27e-13 and
    # 3.0, a matrix frame at rank_tol 1e-14.  Their norms are 1 to within
    # 3e-13, so the balanced start is t = 0 up to that, and the kernel's
    # floor of 1e-12 rejects the first point.
    frame = MatrixFrame(2, ([1.0, 0.0], [1.0, 2e-7], [1.0, 5e-7]))
    assert is_matrix_frame(frame, 1e-14)
    message = (
        "operator not positive definite (eigenvalues 1.267e-13 .. 3.000e+00);"
        " the frame is degenerate along this direction"
    )
    for check in (True, False):
        config = SolverConfig(rank_tol=1e-14, check_polytope=check)
        with pytest.raises(NotPositiveDefiniteError) as info:
            minimize(FrameDatum(frame, thirds), config)
        assert str(info.value) == message


def test_start_where_block_norms_span_the_float_range(thirds):
    # Squared block norms 1e300, 1e300 and 2e-300: the balanced start would
    # need e^{t_2} = e^{920}, so it is clipped to t_2 = 700, and the run
    # starts from a finite Q(t0) instead of overflowing.  Its status comes
    # from the certificate, whose rank rule mis-ranks such blocks.
    frame = MatrixFrame(2, ([1e150, 0.0], [0.0, 1e150], [1e-150, 1e-150]))
    start = frameiso.solver._balanced_start(frame, thirds.as_floats())
    assert start[2] == 700.0 and np.all(np.isfinite(np.exp(start)))
    assert np.all(np.isfinite(scaled_frame_operator(frame, start)))
    result = minimize(FrameDatum(frame, thirds), SolverConfig(check_polytope=False))
    assert result.iterations >= 1
    # A zero block has no norm to balance: it keeps a unit block's scaling.
    zero = MatrixFrame(2, ([1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]))
    datum = FrameDatum(zero, WeightVector(("1/2",) * 4))
    start = frameiso.solver._balanced_start(zero, datum.weights.as_floats())
    assert start[2] == start[0] and np.all(np.isfinite(start))
    result = minimize(datum, SolverConfig(check_polytope=False))
    assert result.status == "unbounded_below"
    assert result.polytope.violating_subsets == ((2,),)


def _assert_transformer_from_t_star(datum, result):
    expected = sym_inverse_sqrt(scaled_frame_operator(datum.frame, result.t_star))
    assert np.array_equal(result.transformer, expected)


def test_transformer_is_inverse_sqrt_at_t_star(mixed_frame, thirds, monkeypatch):
    # The transformer comes from the accepted point's own eigendecomposition,
    # bit for bit what a fresh eigh of Q(t_star) gives.
    no_step = []
    fail_search = None  # index of a line search made to find no step
    line_search = frameiso.solver._line_search

    def recording(*args):
        point, floored = line_search(*args)
        if len(no_step) == fail_search:
            point = None
        no_step.append(point is None)
        return point, floored

    monkeypatch.setattr(frameiso.solver, "_line_search", recording)
    converged = [FrameDatum(mixed_frame, thirds), *_generic_random_data()]
    for datum in converged:
        result = minimize(datum)
        assert result.status == "converged"
        _assert_transformer_from_t_star(datum, result)
    stalled = FrameDatum(
        random_frame(4, [1] * 7, np.random.default_rng(0)), WeightVector.uniform(4, 7)
    )
    # Block 0 is one column with weight 1, its rank: a boundary member
    # where t drifts until the iteration cap.
    rng = np.random.default_rng(48)
    assert (int(rng.integers(2, 5)), int(rng.integers(3, 9))) == (2, 5)
    cols = [int(c) for c in rng.integers(1, 3, 5)]
    assert cols[0] == 1
    boundary = FrameDatum(random_frame(2, cols, rng), WeightVector((1,) + ("1/4",) * 4))
    drift = SolverConfig(grad_tol=0.0, check_polytope=False, max_iters=200)
    runs = [
        (FrameDatum(mixed_frame, thirds), SolverConfig(max_iters=1)),
        (FrameDatum(mixed_frame, thirds), SolverConfig(max_iters=2, check_polytope=False)),
        (stalled, SolverConfig(grad_tol=1e-16)),
        (boundary, drift),
    ]
    for datum, config in runs:
        no_step.clear()
        result = minimize(datum, config)
        assert result.status == "max_iters"
        _assert_transformer_from_t_star(datum, result)
    # The same run, ended by a line search that finds no step: t_star is
    # the point before it, with that point's transformer.
    fail_search = 5
    no_step.clear()
    result = minimize(boundary, drift)
    assert result.status == "max_iters" and result.iterations == 6
    assert no_step == [False] * 5 + [True]
    _assert_transformer_from_t_star(boundary, result)


def test_monotone_descent(mixed_frame, thirds, monkeypatch):
    # The objective at each line search's start and at the step it accepts.
    values = []
    line_search = frameiso.solver._line_search

    def recording(frame, t, value, *rest):
        point, floored = line_search(frame, t, value, *rest)
        values.extend([value] if point is None else [value, point[1]])
        return point, floored

    monkeypatch.setattr(frameiso.solver, "_line_search", recording)
    result = minimize(FrameDatum(mixed_frame, thirds))
    assert result.status == "converged"
    assert len(values) >= 2 and values[-1] == result.objective_value
    drops = np.diff(values)
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


def test_stationarity_residual_memory_is_bounded():
    # C(24, 6) = 134,596 minor terms, held as owner-index and log-minor
    # arrays rather than one object per term.
    frame = random_frame(6, [1] * 24, np.random.default_rng(1))
    datum = FrameDatum(frame, WeightVector.uniform(6, 24))
    residual, peak = traced_peak(stationarity_residual, datum, np.zeros(24))
    assert peak < 32 * 2**20
    assert_close(residual + 0.25, log_det_potential_grad(frame, np.zeros(24)))


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


def test_divergence_reports_violating_set(mixed_frame, thirds):
    # Collinear blocks moved off the front: the run without the pre-check
    # stops on the certificate, and its report lists the generator's set.
    frame, subset = random_degenerate_frame(3, 7, np.random.default_rng(16))
    perm = [3, 0, 4, 1, 5, 2, 6]
    frame = MatrixFrame(3, tuple(frame.blocks[i] for i in perm))
    subset = tuple(sorted(perm.index(i) for i in subset))
    datum = FrameDatum(frame, WeightVector.uniform(3, 7))
    result = minimize(datum, SolverConfig(check_polytope=False))
    assert result.status == "unbounded_below"
    assert result.polytope.violating_subsets == (subset,)
    assert subset in in_orbit_polytope(datum).violating_subsets
    member = FrameDatum(mixed_frame, thirds)
    assert minimize(member, SolverConfig(check_polytope=False)).status == "converged"


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_precheck_reports_generator_subset(d, data):
    # The report lists the certificate's one violating set, and on these
    # frames it is the generator's collinear blocks.
    n = data.draw(st.integers(d + 1, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    frame, subset = random_degenerate_frame(d, n, rng)
    result = minimize(FrameDatum(frame, WeightVector.uniform(d, n)))
    assert subset == tuple(range(n // d + 1))
    assert result.polytope.violating_subsets == (subset,)


def test_precheck_where_certificate_refuses_denominators(wide_denominators):
    # The certificate refuses these denominators; the enumeration answers
    # after seven subsets.
    result = minimize(wide_denominators)
    assert result.status == "converged"
    assert result.polytope.relative_interior


def test_free_run_where_certificate_refuses_denominators():
    # Twenty widely scaled blocks, weights over the denominator 100003: the
    # certificate refuses omega N columns and the enumeration 2^20 - 1
    # subsets, so the report a floored step asks for is unavailable.  A
    # member still converges, which shows it is one; a non-member raises.
    rng = np.random.default_rng(1)
    frame = random_frame(2, [1] * 20, rng)
    blocks = [s * b for s, b in zip(10.0 ** rng.uniform(-2.0, 2.0, 20), frame.blocks)]
    tilt = Fraction(1, 100_003)
    tenth = Fraction(1, 10)
    member = WeightVector((tenth + tilt, tenth - tilt) + (tenth,) * 18)
    with pytest.raises(EnumerationSizeError):
        minimize(FrameDatum(MatrixFrame(2, tuple(blocks)), member))
    free = SolverConfig(check_polytope=False)
    result = minimize(FrameDatum(MatrixFrame(2, tuple(blocks)), member), free)
    assert result.status == "converged" and result.polytope is None
    blocks[1], blocks[2] = 3.0 * blocks[0], -2.0 * blocks[0]
    heavy = Fraction(2, 5) + tilt  # three collinear blocks weigh more than 1
    rest = (2 - 3 * heavy) / 17
    outside = WeightVector((heavy,) * 3 + (rest,) * 17)
    with pytest.raises(EnumerationSizeError):
        minimize(FrameDatum(MatrixFrame(2, tuple(blocks)), outside), free)


def test_library_path_enumerates_nothing(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the subset enumeration ran")

    monkeypatch.setattr(frameiso.polytope, "in_orbit_polytope", refuse)
    rng = np.random.default_rng(17)
    frame, subset = random_degenerate_frame(4, 9, rng)
    datum = FrameDatum(frame, WeightVector.uniform(4, 9))
    result = minimize(datum)
    assert result.status == "not_semistable"
    assert result.polytope.violating_subsets == (subset,)
    boundary = FrameDatum(
        MatrixFrame(2, ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])), WeightVector((1, "1/2", "1/2"))
    )
    result = minimize(boundary)
    assert result.polytope.member and not result.polytope.relative_interior
    assert result.polytope.tight_subsets == ((0,),)
    path = tmp_path / "degenerate.json"
    write_frame_file(path, frame, datum.weights)
    assert cli.main(["check", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["polytope"] is False
    assert report["violating_subsets"] == [list(subset)]


def test_cross_check_over_size_guard_is_skipped():
    # 2^40 subsets: the report that decides divergence must not enumerate
    # them; the polynomial certificate reports a violating set instead.
    rng = np.random.default_rng(15)
    frame, _ = random_degenerate_frame(16, 40, rng)
    weights = WeightVector.uniform(16, 40)
    datum = FrameDatum(frame, weights)
    start = time.perf_counter()
    result = minimize(datum, SolverConfig(check_polytope=False))
    assert time.perf_counter() - start < 5.0
    assert result.status == "unbounded_below"
    assert result.polytope is not None and not result.polytope.member
    (subset,) = result.polytope.violating_subsets
    columns = np.hstack([frame.blocks[i] for i in subset])
    svals = np.linalg.svd(columns, compute_uv=False)
    rank = int(np.sum(svals > 1e-9 * svals[0]))
    assert sum(weights.weights[i] for i in subset) > rank


@pytest.mark.parametrize(
    "blocks, weights, violating",
    [
        # The rule ranks e1 with 1e-12 e2 1: blocks 0 and 1 weigh 3/2.
        (([1.0, 0.0], [0.0, 1e-12], [1.0, 1.0]), ("1/2", 1, "1/2"), ((0, 1), (1, 2))),
        # 1e-12 I has rank 2 alone but rank 1 beside e1 or e2: the rule is
        # not a matroid, and the report comes from the enumeration.
        (([1.0, 0.0], [0.0, 1.0], [[1e-12, 0.0], [0.0, 1e-12]]), ("1/2", "1/2", 1),
         ((0, 2), (1, 2))),
    ],
)
def test_precheck_on_widely_scaled_columns(blocks, weights, violating):
    datum = FrameDatum(MatrixFrame(2, blocks), WeightVector(weights))
    result = minimize(datum)
    assert result.status == "not_semistable"
    assert result.polytope == in_orbit_polytope(datum)
    assert result.polytope.violating_subsets == violating


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
        _, grad, rotated, _ = _potential(frame, t)
        hess = _hessian(_owner_indicator(frame), grad, rotated)
        gradient = grad - c
        direction = _newton_direction(hess, gradient)
        reference = -np.linalg.lstsq(hess, gradient, rcond=1e-12)[0]
        assert_close(direction, reference, tol=1e-9)
        assert abs(float(np.sum(direction))) <= 1e-10


def test_nearly_collinear_member_converges():
    # Three nearly collinear columns in R^2, a relative-interior member.
    # From t = 0 the Armijo test stalled as max_iters after 9 iterations at
    # gradient 3.4e-7, with kappa(Q(t)) = 7.1e6; from the balanced start
    # the run converges.
    rng = np.random.default_rng(2951)
    d = int(rng.integers(2, 7))
    n = int(rng.integers(d + 1, 12))
    cols = [int(rng.integers(1, 3)) for _ in range(n)]
    assert (d, cols) == (2, [1, 1, 1])
    datum = FrameDatum(random_frame(d, cols, rng), WeightVector.uniform(d, n))
    assert in_orbit_polytope(datum).relative_interior
    result = minimize(datum)
    assert result.status == "converged"
    assert result.grad_norm <= result.grad_tol == 2e-9


def test_boundary_weights_terminate():
    # c_1 = 1 = dim span(e1): a member of the orbit polytope on its boundary,
    # where the infimum is approached only as t runs off to infinity.
    frame = MatrixFrame(2, ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]))
    datum = FrameDatum(frame, WeightVector((1, "1/2", "1/2")))
    result = minimize(datum)
    assert result.iterations <= 50
    assert result.polytope.member
    assert not in_orbit_polytope(datum).relative_interior


def test_tiny_tolerance_stalls():
    # No step resolves a 1e-16 gradient; the stall rule must end the run
    # instead of the iteration cap.
    frame = random_frame(4, [1] * 7, np.random.default_rng(0))
    datum = FrameDatum(frame, WeightVector.uniform(4, 7))
    start = time.perf_counter()
    result = minimize(datum, SolverConfig(grad_tol=1e-16))
    assert time.perf_counter() - start < 2.0
    assert result.status == "max_iters"
    assert result.iterations <= 50


def test_boundary_member_stalls():
    # Block 2 spans a line and carries weight 1 = its rank: a member whose
    # tight subset is (2,), so no minimiser exists and t drifts.
    frame = MatrixFrame(
        3,
        (
            [[-18.08, 2.44], [8.11, 4.73], [-5.66, 5.74]],
            [[-9.39, -1.85], [0.87, -1.25], [-3.94, -5.24]],
            [-0.01, -0.02, -0.07],
        ),
    )
    datum = FrameDatum(frame, WeightVector((1, 1, 1)))
    report = in_orbit_polytope(datum)
    assert report.member and not report.relative_interior
    assert report.tight_subsets == ((2,),)
    for check in (True, False):
        result = minimize(datum, SolverConfig(check_polytope=check))
        assert result.status == "max_iters"
        assert result.iterations <= 50
        assert result.transformer is not None


def test_each_point_evaluated_once(mixed_frame, thirds, monkeypatch):
    # No two kernel calls are at the same point up to the all-ones gauge:
    # the accepted trial's evaluation is the iterate's, with no second
    # call after acceptance.
    points = []
    kernel = frameiso.objective._potential

    def counted(frame, t):
        t = np.asarray(t, dtype=float)
        points.append(t - np.mean(t))
        return kernel(frame, t)

    monkeypatch.setattr(frameiso.objective, "_potential", counted)
    monkeypatch.setattr(frameiso.solver, "_potential", counted)
    result = minimize(FrameDatum(mixed_frame, thirds))
    assert result.status == "converged" and result.iterations >= 3
    gaps = [
        float(np.max(np.abs(p - q))) for i, p in enumerate(points) for q in points[:i]
    ]
    assert min(gaps) > 1e-9


def test_one_hessian_per_newton_step(mixed_frame, thirds, collinear_frame, monkeypatch):
    # The Hessian is formed only for the Newton step taken from an iterate
    # whose gradient is above the tolerance: line-search trials and the
    # final point get none.
    gradients = []
    hessian = frameiso.solver._hessian

    def counted(owners, grad, rotated):
        gradients.append(grad)
        return hessian(owners, grad, rotated)

    monkeypatch.setattr(frameiso.solver, "_hessian", counted)
    stalled = FrameDatum(
        random_frame(4, [1] * 7, np.random.default_rng(0)), WeightVector.uniform(4, 7)
    )
    free = SolverConfig(check_polytope=False)
    runs = [
        (FrameDatum(mixed_frame, thirds), SolverConfig()),
        (FrameDatum(collinear_frame, thirds), free),
        (stalled, SolverConfig(grad_tol=1e-16)),
        *((datum, SolverConfig()) for datum in _generic_random_data()),
    ]
    statuses = set()
    for datum, config in runs:
        gradients.clear()
        result = minimize(datum, config)
        statuses.add(result.status)
        assert len(gradients) == result.iterations
        c = datum.weights.as_floats()
        assert all(np.linalg.norm(g - c) > result.grad_tol for g in gradients)
    assert statuses == {"converged", "unbounded_below", "max_iters"}


def test_widely_scaled_member_converges():
    # Block norms 10^2 apart: generic, a member and in the relative interior.
    # From the norm-balanced start no full Newton step meets the eigenvalue
    # floor, so the run without the pre-check builds no report.
    frame = MatrixFrame(
        2, ([50.0, -150.0], [-100.0, 20.0], [0.12, -0.14], [0.3, -1.4])
    )
    datum = FrameDatum(frame, WeightVector(("1/2",) * 4))
    assert is_generic(frame)
    assert in_orbit_polytope(datum).relative_interior
    for check in (True, False):
        result = minimize(datum, SolverConfig(check_polytope=check))
        assert result.status == "converged"
        assert result.polytope.member if check else result.polytope is None
        transformed = to_radial_isotropic(datum, result)
        assert is_radial_isotropic(FrameDatum(transformed, datum.weights), 1e-6)


@st.composite
def _scaled_pairs(draw, decades):
    """Uniform weights on a frame, and on the same frame with its blocks
    scaled by 10^U(-decades, decades), as (unscaled, scaled) data.

    Half the examples come from random_degenerate_frame (non-members).
    """
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(d + 1, 10))
        frame, _ = random_degenerate_frame(d, n, rng)
    else:
        n = draw(st.integers(1, 10))
        frame = random_frame(d, [int(rng.integers(1, 3)) for _ in range(n)], rng)
    scales = 10.0 ** rng.uniform(-decades, decades, n)
    scaled = MatrixFrame(d, tuple(s * b for s, b in zip(scales, frame.blocks)))
    assume(is_matrix_frame(scaled))
    weights = WeightVector.uniform(d, n)
    return FrameDatum(frame, weights), FrameDatum(scaled, weights)


def _widely_scaled_data():
    """The scaled half of ``_scaled_pairs`` at 10^U(-2, 2)."""
    return _scaled_pairs(2.0).map(lambda pair: pair[1])


@settings(max_examples=60, deadline=None)
@given(_scaled_pairs(6.0))
def test_status_does_not_depend_on_block_scales(pair):
    # Scaling X_i by s_i shifts the objective by a translation of t, and
    # the solve starts at the norm-balanced point, so the free run's status
    # is the one the unscaled frame's membership gives.
    unscaled, scaled = pair
    report = in_orbit_polytope(unscaled)
    result = minimize(scaled, SolverConfig(check_polytope=False))
    if not report.member:
        assert result.status == "unbounded_below"
    elif report.relative_interior:
        assert result.status == "converged"
    else:
        # On the boundary no minimiser exists; the gradient may still fall
        # below the tolerance as t drifts.
        assert result.status in ("converged", "max_iters")
    if result.status == "converged":
        transformed = to_radial_isotropic(scaled, result)
        assert is_radial_isotropic(FrameDatum(transformed, scaled.weights), 1e-6)


@settings(max_examples=60, deadline=None)
@given(_widely_scaled_data())
def test_status_follows_certificate(datum):
    guarded = minimize(datum)
    free = minimize(datum, SolverConfig(check_polytope=False))
    if guarded.polytope.member:
        assert guarded.status != "unbounded_below"
        assert free.status != "unbounded_below"
    else:
        assert guarded.status == "not_semistable"
        assert free.status == "unbounded_below"
        assert not free.polytope.member
    if free.polytope is not None:
        oracle = in_orbit_polytope(datum).violating_subsets
        assert set(free.polytope.violating_subsets) <= set(oracle)


def _scaled_non_member(index):
    """Draw ``index`` of a fixed sequence of widely scaled non-members.

    Each draw is random_degenerate_frame(d, n) with d in [2, 6) and n in
    [d + 1, 11), its blocks scaled by 10^U(-2, 2), with uniform weights.
    """
    rng = np.random.default_rng(5)
    for _ in range(index + 1):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(d + 1, 11))
        frame, _ = random_degenerate_frame(d, n, rng)
        scales = 10.0 ** rng.uniform(-2.0, 2.0, n)
    frame = MatrixFrame(d, tuple(s * b for s, b in zip(scales, frame.blocks)))
    return FrameDatum(frame, WeightVector.uniform(d, n))


def _assert_stops_at_first_floor(datum):
    """Without the pre-check, one report decides at the first floored step."""
    reports, floored = [], []
    report_of = frameiso.solver.orbit_polytope_report
    line_search = frameiso.solver._line_search

    def counted_report(*args):
        reports.append(report_of(*args))
        return reports[-1]

    def recorded_search(*args):
        point, full_step_floored = line_search(*args)
        floored.append(full_step_floored)
        return point, full_step_floored

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frameiso.solver, "orbit_polytope_report", counted_report)
        patch.setattr(frameiso.solver, "_line_search", recorded_search)
        result = minimize(datum, SolverConfig(check_polytope=False))
    assert len(reports) == 1 and not reports[0].member
    assert result.status == "unbounded_below"
    assert result.polytope is reports[0]
    assert result.iterations == len(floored) == floored.index(True) + 1
    return result


def test_scaled_non_member_stops_at_first_floor():
    # d = 4, n = 10: two full steps pass the floor and the third is the
    # first it rejects; the one report then finds the weights outside.
    datum = _scaled_non_member(58)
    assert (datum.frame.d, datum.frame.n) == (4, 10)
    assert _assert_stops_at_first_floor(datum).iterations == 3


@settings(max_examples=40, deadline=None)
@given(_widely_scaled_data())
def test_one_report_decides_divergence(datum):
    assume(not frameiso.polytope.orbit_polytope_report(datum).member)
    _assert_stops_at_first_floor(datum)

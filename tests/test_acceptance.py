"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (run with ``pytest -v -s``) and
asserts the criterion at its stated tolerance and runtime budget.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from frameiso import (
    FrameDatum,
    MatrixFrame,
    SolverConfig,
    WeightVector,
    det_via_minors,
    enumerate_minors,
    frame_to_rep,
    grad_via_minors,
    in_orbit_polytope,
    induced_sigma,
    is_equal_norm_parseval,
    is_geometric_bl_datum,
    is_matrix_frame,
    is_radial_isotropic,
    is_sigma_critical,
    log_capacity,
    log_det_potential_grad,
    minimize,
    paulsen_round,
    radial_isotropy_residual,
    scale_to_critical,
    to_radial_isotropic,
)
from frameiso.generate import (
    random_degenerate_frame,
    random_equal_norm_parseval,
    random_frame,
    random_nearly_parseval,
)
from frameiso.io import write_frame_file
from frameiso.objective import _potential
from frameiso.paulsen import _majorizes_columns

from conftest import majorization_transport, scaled_operator


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def mixed_example():
    return MatrixFrame(2, ([[1.0, 0.0], [0.0, 2.0]], [1.0, -1.0], [1.0, 1.0]))


def gradient_corpus(seed, count):
    rng = np.random.default_rng(seed)
    frames = []
    while len(frames) < count:
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        cols = [int(rng.integers(1, 4)) for _ in range(n)]
        if sum(cols) < d:
            continue
        frame = random_frame(d, cols, rng)
        if is_matrix_frame(frame):
            frames.append((frame, rng.uniform(-1.5, 1.5, (5, n))))
    return frames


def test_vector_vs_matrix_isotropy():
    with criterion("vector-vs-matrix radial isotropy on the 2x2 example"):
        frame = mixed_example()
        thirds = WeightVector(("2/3", "2/3", "2/3"))
        split = MatrixFrame(2, ([1, 0], [0, 2], [1, -1], [1, 1]))
        split_weights = WeightVector(("1/3", "1/3", "2/3", "2/3"))
        split_datum = FrameDatum(split, split_weights)
        matrix_datum = FrameDatum(frame, thirds)

        radial_isotropy_residual(split_datum)  # warm-up evaluation

        start = time.perf_counter()
        vector_residual = radial_isotropy_residual(split_datum)
        weighted_sum = sum(
            float(c) * b @ b.T / float(np.sum(b**2))
            for c, b in zip(thirds.as_floats(), frame.blocks)
        )
        elapsed = time.perf_counter() - start

        assert vector_residual <= 1e-12
        assert np.max(np.abs(weighted_sum - np.diag([0.8, 1.2]))) <= 1e-12
        assert not is_radial_isotropic(matrix_datum, 0.19)
        assert elapsed < 1e-3


def test_three_way_gradient_agreement():
    with criterion("three-way gradient agreement on 100 seeded frames"):
        start = time.perf_counter()
        for frame, scalings in gradient_corpus(seed=101, count=100):
            for t in scalings:
                analytic = log_det_potential_grad(frame, t)
                combinatorial = grad_via_minors(frame, t)
                step = 1e-5
                numeric = np.empty(frame.n)
                for i in range(frame.n):
                    up, down = t.copy(), t.copy()
                    up[i] += step
                    down[i] -= step
                    numeric[i] = (
                        _potential(frame, up).value - _potential(frame, down).value
                    ) / (2 * step)
                assert np.allclose(analytic, combinatorial, rtol=1e-6, atol=1e-9)
                assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-9)
                assert np.allclose(combinatorial, numeric, rtol=1e-6, atol=1e-9)
        assert time.perf_counter() - start < 30.0


def test_determinant_oracle():
    with criterion("minor-expansion determinant oracle"):
        start = time.perf_counter()
        for frame, scalings in gradient_corpus(seed=202, count=100):
            terms = enumerate_minors(frame)
            for t in scalings:
                direct = float(np.linalg.det(scaled_operator(frame, t)))
                oracle = det_via_minors(frame, t)
                assert oracle == pytest.approx(direct, rel=1e-9)
                # A term scales by e^{t_b} once per column it takes from block b.
                rebuilt = 0.0
                for term in terms:
                    pairs = zip(term.support, term.column_sets)
                    rebuilt += term.value * math.exp(sum(t[b] * len(c) for b, c in pairs))
                assert rebuilt == pytest.approx(oracle, rel=1e-12)
        # exact rational cross-check on the 2x2 example
        pooled = [
            [Fraction(1), Fraction(0), Fraction(1), Fraction(1)],
            [Fraction(0), Fraction(2), Fraction(-1), Fraction(1)],
        ]
        exact = []
        for i, j in combinations(range(4), 2):
            det = pooled[0][i] * pooled[1][j] - pooled[0][j] * pooled[1][i]
            exact.append(det * det)
        assert sum(exact) == 18
        assert sorted(exact) == [1, 1, 4, 4, 4, 4]
        terms = enumerate_minors(mixed_example())
        assert sorted(Fraction(term.value) for term in terms) == sorted(exact)
        assert det_via_minors(mixed_example(), np.zeros(3)) == pytest.approx(18.0)
        assert time.perf_counter() - start < 30.0


def test_membership_matches_solver_status():
    with criterion("polytope membership vs solver status on 200 frames"):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        agreements = 0
        for trial in range(100):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(d + 1, 9))
            cols = [int(rng.integers(1, 3)) for _ in range(n)]
            frame = random_frame(d, cols, rng)
            datum = FrameDatum(frame, WeightVector.uniform(d, n))
            assert in_orbit_polytope(datum).member
            assert minimize(datum).status == "converged"
            agreements += 1
        for trial in range(100):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(d + 1, 9))
            frame, _ = random_degenerate_frame(d, n, rng)
            datum = FrameDatum(frame, WeightVector.uniform(d, n))
            assert not in_orbit_polytope(datum).member
            assert minimize(datum).status == "not_semistable"
            free = minimize(datum, SolverConfig(check_polytope=False))
            assert free.status == "unbounded_below"
            agreements += 1
        assert agreements == 200
        assert time.perf_counter() - start < 120.0


def test_end_to_end_radial_isotropy():
    with criterion("solver to radial isotropy end to end"):
        start = time.perf_counter()
        rng = np.random.default_rng(404)
        for trial in range(25):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(d + 1, 9))
            cols = [int(rng.integers(1, 3)) for _ in range(n)]
            frame = random_frame(d, cols, rng)
            datum = FrameDatum(frame, WeightVector.uniform(d, n))
            result = minimize(datum)
            assert result.status == "converged"
            transformed = to_radial_isotropic(datum, result)
            assert is_radial_isotropic(FrameDatum(transformed, datum.weights), 1e-6)
            residual = grad_via_minors(datum.frame, result.t_star) - datum.weights.as_floats()
            assert float(np.max(np.abs(residual))) <= 1e-6
            ratio = np.exp(result.t_star) / result.extremisers
            assert np.allclose(ratio, datum.weights.as_floats(), rtol=1e-7)
        assert time.perf_counter() - start < 120.0


def test_capacity_identity():
    with criterion("capacity identity on converged solves"):
        basis = MatrixFrame(2, ([1, 0], [0, 1]))
        pair = FrameDatum(basis, WeightVector((1, 1)))
        result = minimize(pair)
        assert result.status == "converged"
        assert log_capacity(pair, result.objective_value) == 0.0

        rng = np.random.default_rng(505)
        for trial in range(10):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(d + 1, 8))
            cols = [int(rng.integers(1, 3)) for _ in range(n)]
            datum = FrameDatum(random_frame(d, cols, rng), WeightVector.uniform(d, n))
            result = minimize(datum)
            assert result.status == "converged"
            entropy = sum(
                float(c) * math.log(float(c)) for c in datum.weights.weights
            )
            log_cap = log_capacity(datum, result.objective_value)
            assert log_cap == pytest.approx(
                result.objective_value + entropy, abs=1e-8
            )
            # cross-check against the determinant-ratio form at the minimiser
            det_q = float(np.linalg.det(scaled_operator(datum.frame, result.t_star)))
            product = math.prod(
                float(c) ** float(c) for c in datum.weights.weights
            )
            direct = math.log(
                det_q
                * math.exp(-float(np.dot(result.t_star, datum.weights.as_floats())))
                * product
            )
            assert log_cap == pytest.approx(direct, rel=1e-6, abs=1e-8)


def test_paulsen_sweep():
    with criterion("rounding sweep over 500 nearly equal-norm Parseval frames"):
        start = time.perf_counter()
        rng = np.random.default_rng(606)
        runs = 0
        for trial in range(500):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(d + 2, 9))
            cols = [int(rng.integers(1, 3)) for _ in range(n)]
            eps = float(np.exp(rng.uniform(math.log(1e-3), math.log(0.29))))
            frame = random_nearly_parseval(d, cols, eps, rng)
            report = paulsen_round(frame, rng_seed=trial)
            assert is_equal_norm_parseval(report.output, report.pipeline_tol)
            assert report.dist_input_output <= 26.0 * report.epsilon_used * d * d
            assert report.certified
            assert report.distances["input_perturbed"] <= report.epsilon_used * d
            decomposition_budget = (
                8.0 * report.epsilon_used * d * d + 4.0 * report.gamma * d * d
            )
            assert report.distances["rotated_perturbed_rounded"] <= decomposition_budget
            assert report.majorization_ok
            runs += 1
        assert runs == 500
        assert time.perf_counter() - start < 600.0


def test_majorization_suite():
    with criterion("majorization transport unit suite"):
        v, u = np.array([2.0, 0.0]), np.array([1.0, 1.0])
        assert majorization_transport(v, u) == pytest.approx(1.0)
        assert majorization_transport(v, v) == 0.0
        # the unfactored l1 bound fails on this pair; the factor-two form holds
        l1 = float(np.sum(np.abs(u - v)))
        print(
            "[acceptance] note: |u-v|_1 = %.1f > transport = %.1f on the "
            "counterexample pair; testing |u-v|_1 <= 2 * transport instead"
            % (l1, majorization_transport(v, u))
        )
        assert l1 > majorization_transport(v, u)
        assert l1 <= 2.0 * majorization_transport(v, u)

        rng = np.random.default_rng(707)
        for _ in range(200):
            size = int(rng.integers(2, 7))
            a1, b1 = _majorizing_pair(rng, size)
            a2, b2 = _majorizing_pair(rng, size)
            lhs = majorization_transport(a1 + a2, b1 + b2)
            rhs = majorization_transport(a1, b1) + majorization_transport(a2, b2)
            assert lhs == pytest.approx(rhs, abs=1e-9)
        for _ in range(10_000):
            size = int(rng.integers(2, 8))
            a, b = _majorizing_pair(rng, size)
            assert _majorizes_columns(a, b, 1e-9)
            l1 = float(np.sum(np.abs(b - a)))
            assert l1 <= 2.0 * majorization_transport(a, b) + 1e-9


def _majorizing_pair(rng, size):
    u = rng.uniform(-2, 2, size)
    gaps = np.concatenate([rng.uniform(0, 2, size - 1), [0.0]])
    v = u + gaps - np.concatenate([[0.0], gaps[:-1]])
    return v, u


def test_bl_critical_equivalence():
    with criterion("geometric BL vs critical scaling equivalence on 100 reps"):
        rng = np.random.default_rng(808)
        agreements = 0
        for trial in range(100):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(d + 1, 8))
            cols = [int(rng.integers(1, 3)) for _ in range(n)]
            if trial % 2 == 0:
                base = random_equal_norm_parseval(d, cols, rng)
                factor = math.sqrt(n / d)
                frame = MatrixFrame(d, tuple(factor * b for b in base.blocks))
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
            agreements += 1
        assert agreements == 100


def test_report_determinism(tmp_path):
    with criterion("byte-identical reports for solve-rif and paulsen"):
        frame = mixed_example()
        solve_path = tmp_path / "solve.json"
        write_frame_file(solve_path, frame, WeightVector(("2/3", "2/3", "2/3")))
        rng = np.random.default_rng(909)
        near = random_nearly_parseval(2, [1, 1, 2, 1], 0.05, rng)
        paulsen_path = tmp_path / "near.json"
        write_frame_file(paulsen_path, near)

        solve_cmd = [sys.executable, "-m", "frameiso", "solve-rif", str(solve_path)]
        paulsen_cmd = [
            sys.executable, "-m", "frameiso", "paulsen", str(paulsen_path),
            "--seed", "17",
        ]
        for cmd in (solve_cmd, paulsen_cmd):
            first = subprocess.run(cmd, capture_output=True, check=True)
            second = subprocess.run(cmd, capture_output=True, check=True)
            assert first.stdout == second.stdout
            assert json.loads(first.stdout.decode())  # valid JSON


def test_public_exports_resolve():
    with criterion("every exported name resolves"):
        import frameiso

        namespace = {}
        exec("from frameiso import *", namespace)
        for name in frameiso.__all__:
            assert name in namespace, name
            assert namespace[name] is getattr(frameiso, name)

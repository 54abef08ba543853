import math
import os
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import frameiso
from frameiso import FrameDatum, MatrixFrame, WeightVector
from frameiso.frames import _column_minors
from frameiso.objective import _check_floor, _inverse_sqrt
from frameiso.paulsen import _majorizes_columns


@pytest.fixture(autouse=True, scope="session")
def _children_import_tested_package():
    """Child interpreters (``python -m frameiso``) import the package under test."""
    src = str(Path(frameiso.__file__).resolve().parent.parent)
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(paths))
        yield


@pytest.fixture
def mixed_frame():
    """Generic d=2 frame with one 2-column block and two single columns."""
    return MatrixFrame(2, ([[1.0, 0.0], [0.0, 2.0]], [1.0, -1.0], [1.0, 1.0]))


@pytest.fixture
def thirds():
    return WeightVector(("2/3", "2/3", "2/3"))


@pytest.fixture
def collinear_frame():
    """First two blocks share a line; violates the subset rank bound."""
    return MatrixFrame(2, ([1.0, 0.0], [1.0, 0.0], [0.0, 1.0]))


@pytest.fixture
def orthonormal_frame():
    return MatrixFrame(2, ([1.0, 0.0], [0.0, 1.0]))


@pytest.fixture
def wide_denominators():
    """Three blocks whose weights have the common denominator 999983 * 999979.

    That many copies of the pooled columns exceed the certificate's size
    guard; the weights are in the relative interior.
    """
    p, q = 999_983, 999_979
    weights = WeightVector((Fraction(1, p), Fraction(1, q), 2 - Fraction(1, p) - Fraction(1, q)))
    frame = MatrixFrame(2, ([1.0, 0.0], [0.0, 1.0], [[1.0, 0.0], [1.0, 1.0]]))
    return FrameDatum(frame, weights)


@pytest.fixture
def tight_four_frame():
    """Exact equal-norm Parseval frame of four vectors in the plane."""
    r = 2.0**-0.5
    return MatrixFrame(2, ([r, 0.0], [0.0, r], [0.5, 0.5], [0.5, -0.5]))


def random_shape(rng, d_max=3, n_max=8, cols_max=2):
    d = int(rng.integers(2, d_max + 1))
    n = int(rng.integers(d + 1, n_max + 1))
    cols = [int(rng.integers(1, cols_max + 1)) for _ in range(n)]
    return d, cols


def assert_close(actual, expected, tol=1e-10):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= tol, (actual, expected)


def traced_peak(func, *args):
    """(func(*args), peak bytes that tracemalloc saw during the call)."""
    tracemalloc.start()
    try:
        result = func(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sym_inverse_sqrt(op):
    """Inverse square root of a symmetric positive definite matrix, from a
    fresh ``eigh`` under the solver's eigenvalue floor."""
    eigvals, eigvecs = np.linalg.eigh(np.asarray(op, dtype=float))
    _check_floor(eigvals)
    return _inverse_sqrt(eigvals, eigvecs)


def is_generic(frame, tol=1e-9):
    """True when every d of the N pooled columns form a basis.

    The input oracle of the tests that need columns in general position:
    every C(N, d) minor of the pooled matrix, rescaled by its largest
    absolute entry, must exceed ``tol`` in absolute value.  The minors
    come from ``frames._column_minors``, which raises ValueError when
    N < d and EnumerationSizeError past its size guard.
    """
    pooled = frame.pooled()
    scale = np.max(np.abs(pooled))
    minors = _column_minors(pooled / scale if scale > 0.0 else pooled)
    return all(np.all(np.abs(dets) > tol) for _, dets in minors)


def scaled_operator(frame, t):
    """Q(t) = sum_i e^{t_i} X_i X_i^T summed block by block, independent of
    the kernel's pooled product S S^T."""
    return sum(math.exp(ti) * (block @ block.T) for ti, block in zip(t, frame.blocks))


def majorization_transport(v, u, tol=1e-9):
    """Transport functional sum_l l (u_l - v_l) of a majorizing pair.

    Equals the sum of the prefix sums of v - u and is linear in (v, u).
    Raises ValueError when v does not majorize u within ``tol``, by the
    rounding's own test ``paulsen._majorizes_columns``.
    """
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if not _majorizes_columns(v, u, tol):
        raise ValueError("precondition failed: v does not majorize u")
    return float(np.dot(np.arange(1, v.size + 1), u - v))

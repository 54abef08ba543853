import os
from pathlib import Path

import numpy as np
import pytest

import frameiso
from frameiso import MatrixFrame, WeightVector


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

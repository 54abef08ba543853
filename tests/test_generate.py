"""The seeded generators: exact equal-norm Parseval frames from the
radial-isotropy solve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frameiso.generate
from frameiso import is_equal_norm_parseval
from frameiso.generate import random_equal_norm_parseval


@st.composite
def _parseval_shapes(draw):
    d = draw(st.integers(2, 16))
    n = draw(st.integers(d + 1, 64))
    cols = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    return d, cols, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=60, deadline=None)
@given(_parseval_shapes())
def test_equal_norm_parseval_property(shape):
    d, cols, seed = shape
    frame = random_equal_norm_parseval(d, cols, np.random.default_rng(seed))
    assert frame.block_cols == tuple(cols)
    assert is_equal_norm_parseval(frame, 1e-13)


def test_equal_norm_parseval_many_single_columns():
    # 256 single columns in R^8: past where column-pair rotation sweeps
    # stopped converging.
    frame = random_equal_norm_parseval(8, [1] * 256, np.random.default_rng(0))
    assert frame.block_cols == (1,) * 256
    assert is_equal_norm_parseval(frame, 1e-13)


@pytest.mark.parametrize(
    "d, cols, seed, statuses",
    [
        # The first solve converges to grad 6e-14 and its output passes.
        (5, [1] * 6, 1, ["converged"]),
        # A converged solve whose output's operator residual is above
        # 1e-13 is redrawn, as a stall is.
        (5, [1] * 6, 32, ["converged", "converged"]),
        # A solve that stalls at grad 7e-12 is followed by a fresh draw.
        (7, [1] * 8, 8, ["max_iters", "converged"]),
    ],
)
def test_equal_norm_parseval_output_decides_each_draw(d, cols, seed, statuses, monkeypatch):
    results = []
    solve = frameiso.generate.minimize

    def recording(datum, config):
        results.append(solve(datum, config))
        return results[-1]

    monkeypatch.setattr(frameiso.generate, "minimize", recording)
    frame = random_equal_norm_parseval(d, cols, np.random.default_rng(seed))
    assert [result.status for result in results] == statuses
    assert is_equal_norm_parseval(frame, 1e-13)


@pytest.mark.parametrize("d, cols", [(2, [1, 2]), (4, [2, 2, 1, 1]), (5, [1, 2, 2, 2, 3])])
def test_boundary_shapes_split_into_direct_sums(d, cols):
    # Each shape has a proper block subset S with |S| d/n = N_S < d, so the
    # uniform weights lie on the boundary of the orbit polytope and the
    # frame is a direct sum along S.
    frame = random_equal_norm_parseval(d, cols, np.random.default_rng(3))
    assert frame.block_cols == tuple(cols)
    assert is_equal_norm_parseval(frame, 1e-13)


def test_infeasible_shape_names_violating_subset():
    # One column cannot carry weight d/n = 2 in R^4.
    with pytest.raises(ValueError, match=r"block subsets \(\(0,\),\)"):
        random_equal_norm_parseval(4, [1, 3], np.random.default_rng(0))

"""The canonical scorer works in row blocks, bit for bit.

``canonical_score_matrix`` scores ``SCORE_BLOCK_CELLS // |O|`` rows at a
time over a contiguous transposed copy of the points, multiplying into
one reused buffer and adding in place. ``reference_score_matrix`` (in
``conftest``) is the full-width loop it replaced; every score must keep
its bits, including the +0.0 that a -0.0 product sums to from the 0.0
start.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.prefs import canonical_score, canonical_score_matrix
from repro.prefs.functions import SCORE_BLOCK_CELLS
from tests.conftest import reference_score_matrix

#: Signed zeros beside ordinary values, so -0.0 products are common.
VALUES = (-0.0, 0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 1.0)


def assert_same_bits(weights, points):
    scores = canonical_score_matrix(weights, points)
    expected = reference_score_matrix(weights, points)
    assert scores.shape == expected.shape
    assert scores.dtype == np.float64
    assert scores.tobytes() == expected.tobytes()


@st.composite
def shapes(draw):
    """Weights and points with coordinates drawn from ``VALUES`` or
    uniform; |O| up to a few blocks' worth of one-row blocks."""
    dims = draw(st.integers(1, 6))
    num_functions = draw(st.integers(0, 40))
    num_points = draw(st.integers(0, 3 * SCORE_BLOCK_CELLS // 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = rng.random((num_functions, dims))
    points = rng.random((num_points, dims))
    for array in (weights, points):
        mask = rng.random(array.shape) < draw(st.sampled_from((0.0, 0.3)))
        array[mask] = rng.choice(VALUES, size=int(mask.sum()))
    return weights, points


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shapes())
def test_blocks_keep_every_score_bit(shape):
    assert_same_bits(*shape)


@pytest.mark.parametrize("num_functions,num_points",
                         [(0, 0), (0, 7), (5, 0), (0, SCORE_BLOCK_CELLS + 1)])
def test_empty_sides(num_functions, num_points):
    weights = np.full((num_functions, 3), 0.5)
    points = np.full((num_points, 3), 0.5)
    assert_same_bits(weights, points)


def test_more_points_than_a_block_scores_one_row_per_block():
    rng = np.random.default_rng(3)
    points = rng.random((SCORE_BLOCK_CELLS + 17, 2))
    weights = rng.random((3, 2))
    weights[1] = (-0.0, 1.0)
    assert SCORE_BLOCK_CELLS // len(points) == 0   # so one row a block
    assert_same_bits(weights, points)


@pytest.mark.parametrize("dims", range(1, 7))
def test_rows_not_a_multiple_of_the_block(dims):
    num_points = 1000
    rows_per_block = SCORE_BLOCK_CELLS // num_points
    rng = np.random.default_rng(dims)
    weights = rng.random((3 * rows_per_block + 5, dims))
    points = rng.random((num_points, dims))
    assert_same_bits(weights, points)


@pytest.mark.parametrize("dims", range(1, 7))
def test_negative_zero_products_sum_to_positive_zero(dims):
    # Every product below is -0.0 or +0.0: the canonical sum starts at
    # 0.0, so it ends at +0.0; a block started from its first product
    # would keep -0.0 wherever every product is -0.0.
    weights = np.array([[-0.0] * dims, [0.0] * dims, [1.0] + [-0.0] * (dims - 1)])
    points = np.array([[0.5] * dims, [0.0] * dims, [1.0] * dims])
    scores = canonical_score_matrix(weights, points)
    assert scores.tobytes() == reference_score_matrix(weights, points).tobytes()
    assert not np.signbit(scores[0]).any()
    for i in range(len(weights)):
        for j in range(len(points)):
            exact = canonical_score(weights[i], points[j])
            assert np.float64(exact).tobytes() == scores[i, j].tobytes()

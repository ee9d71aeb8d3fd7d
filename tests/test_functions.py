"""LinearPreference validation and generation."""

import numpy as np
import pytest

from repro.errors import DimensionalityError, PreferenceError
from repro.prefs import (
    LinearPreference,
    canonical_score,
    generate_preferences,
    weights_matrix,
)


def test_valid_function_scores():
    f = LinearPreference(0, (0.2, 0.3, 0.5))
    assert f.dims == 3
    assert f.score((1.0, 1.0, 1.0)) == pytest.approx(1.0)
    assert f.score((0.0, 0.0, 0.0)) == 0.0
    assert f.score((1.0, 0.0, 0.0)) == pytest.approx(0.2)


def test_weights_must_sum_to_one():
    with pytest.raises(PreferenceError):
        LinearPreference(0, (0.5, 0.6))
    with pytest.raises(PreferenceError):
        LinearPreference(0, (0.2, 0.2))


def test_weights_must_be_nonnegative_finite():
    with pytest.raises(PreferenceError):
        LinearPreference(0, (1.5, -0.5))
    with pytest.raises(PreferenceError):
        LinearPreference(0, (float("nan"), 1.0))
    with pytest.raises(PreferenceError):
        LinearPreference(0, ())


def test_negative_fid_rejected():
    with pytest.raises(PreferenceError):
        LinearPreference(-1, (1.0,))


def test_normalized_constructor():
    f = LinearPreference.normalized(3, (2.0, 6.0))
    assert f.weights == (0.25, 0.75)
    with pytest.raises(PreferenceError):
        LinearPreference.normalized(0, (0.0, 0.0))


def test_score_dimension_mismatch():
    f = LinearPreference(0, (0.5, 0.5))
    with pytest.raises(DimensionalityError):
        f.score((0.1, 0.2, 0.3))


def test_monotonicity():
    # The defining property: oi >= oi' for all i implies f(o) >= f(o').
    f = LinearPreference(0, (0.1, 0.6, 0.3))
    better = (0.8, 0.5, 0.9)
    worse = (0.7, 0.5, 0.2)
    assert f.score(better) >= f.score(worse)


def test_canonical_score_is_left_to_right_sum():
    weights = (0.1, 0.2, 0.3, 0.4)
    point = (0.9, 0.8, 0.7, 0.6)
    expected = ((0.1 * 0.9 + 0.2 * 0.8) + 0.3 * 0.7) + 0.4 * 0.6
    assert canonical_score(weights, point) == expected  # bitwise


def test_generate_preferences_properties():
    prefs = generate_preferences(200, 5, seed=50)
    assert len(prefs) == 200
    assert [f.fid for f in prefs] == list(range(200))
    for f in prefs:
        assert f.dims == 5
        assert abs(sum(f.weights) - 1.0) < 1e-9
        assert all(w >= 0 for w in f.weights)


def test_generate_preferences_deterministic():
    a = generate_preferences(50, 3, seed=51)
    b = generate_preferences(50, 3, seed=51)
    assert a == b
    c = generate_preferences(50, 3, seed=52)
    assert a != c


def test_concentration_controls_spread():
    diffuse = generate_preferences(500, 3, seed=53, concentration=0.1)
    peaked = generate_preferences(500, 3, seed=53, concentration=50.0)
    spread = lambda prefs: np.std([max(f.weights) for f in prefs])
    assert spread(diffuse) > spread(peaked)
    with pytest.raises(PreferenceError):
        generate_preferences(10, 3, concentration=0.0)


def test_weights_matrix_alignment():
    prefs = generate_preferences(20, 4, seed=54)
    matrix, fids = weights_matrix(prefs)
    assert matrix.shape == (20, 4)
    assert fids == [f.fid for f in prefs]
    for row, f in zip(matrix, prefs):
        assert tuple(row) == f.weights


def test_weights_matrix_mixed_dims_rejected():
    prefs = [LinearPreference(0, (1.0,)), LinearPreference(1, (0.5, 0.5))]
    with pytest.raises(DimensionalityError):
        weights_matrix(prefs)


@pytest.mark.parametrize("weight, message", [
    (float("nan"), "weight nan in function 3 not finite"),
    (float("inf"), "weight inf in function 3 not finite"),
    (float("-inf"), "weights must be non-negative, got -inf in function 3"),
    (-0.5, "weights must be non-negative, got -0.5 in function 3"),
])
def test_a_bad_weight_raises_its_preference_error(weight, message):
    with pytest.raises(PreferenceError) as raised:
        LinearPreference(3, (weight, 1.0))
    assert str(raised.value) == message

"""FunctionIndex and the reverse top-1 threshold algorithm."""

import numpy as np
import pytest

from repro.errors import DimensionalityError, PreferenceError
from repro.prefs import (
    FunctionIndex,
    LinearPreference,
    canonical_score,
    generate_preferences,
    tight_threshold,
)
from repro.storage import SearchStats


def oracle_best(functions, point):
    best = max(
        ((canonical_score(f.weights, point), -f.fid) for f in functions)
    )
    return (-best[1], best[0])


def answers(index, points, stats=None):
    """``reverse_top1`` over ``points`` as a list of ``(fid, score)``."""
    fids, scores = index.reverse_top1(points, stats=stats)
    return list(zip(fids.tolist(), scores.tolist()))


def test_reverse_top1_matches_oracle_many_points():
    prefs = generate_preferences(300, 4, seed=60)
    index = FunctionIndex(prefs)
    rng = np.random.default_rng(1)
    points = [tuple(point) for point in rng.random((100, 4)).tolist()]
    assert answers(index, points) == [
        oracle_best(prefs, point) for point in points
    ]


def test_reverse_top1_empty_index():
    index = FunctionIndex([])
    assert answers(index, [(0.5, 0.5)]) == [(-1, float("-inf"))]


def test_reverse_top1_single_function():
    f = LinearPreference(7, (0.4, 0.6))
    index = FunctionIndex([f])
    [(fid, score)] = answers(index, [(0.5, 0.5)])
    assert fid == 7
    assert score == f.score((0.5, 0.5))


def test_tie_break_prefers_lowest_fid():
    # Two identical functions: the reverse top-1 must return the lower id.
    prefs = [
        LinearPreference(9, (0.5, 0.5)),
        LinearPreference(2, (0.5, 0.5)),
        LinearPreference(5, (0.9, 0.1)),
    ]
    index = FunctionIndex(prefs)
    [(fid, _)] = answers(index, [(0.4, 0.4)])
    # (0.4, 0.4) scores 0.4 for all three functions — full tie.
    assert fid == 2


def test_removal_updates_answers():
    prefs = generate_preferences(100, 3, seed=61)
    index = FunctionIndex(prefs)
    alive = {f.fid: f for f in prefs}
    rng = np.random.default_rng(2)
    for _ in range(99):
        point = tuple(rng.random(3))
        [got] = answers(index, [point])
        assert got == oracle_best(alive.values(), point)
        index.remove(got[0])
        del alive[got[0]]
    assert len(index) == 1


def test_remove_unknown_fid_rejected():
    index = FunctionIndex(generate_preferences(5, 2, seed=62))
    with pytest.raises(PreferenceError):
        index.remove(99)
    index.remove(3)
    with pytest.raises(PreferenceError):
        index.remove(3)


def test_compaction_preserves_correctness():
    prefs = generate_preferences(200, 3, seed=63)
    index = FunctionIndex(prefs)
    alive = {f.fid: f for f in prefs}
    # Remove 150 functions to trigger compaction (threshold is 50%).
    for fid in range(150):
        index.remove(fid)
        del alive[fid]
    rng = np.random.default_rng(3)
    points = [tuple(point) for point in rng.random((50, 3)).tolist()]
    assert answers(index, points) == [
        oracle_best(alive.values(), point) for point in points
    ]


def test_duplicate_fids_rejected():
    f = LinearPreference(1, (1.0,))
    with pytest.raises(PreferenceError):
        FunctionIndex([f, f])


def test_mixed_dims_rejected():
    with pytest.raises(DimensionalityError):
        FunctionIndex([
            LinearPreference(0, (1.0,)),
            LinearPreference(1, (0.5, 0.5)),
        ])


def test_invalid_threshold_mode_rejected():
    with pytest.raises(PreferenceError):
        FunctionIndex([], threshold="loose")


def test_naive_and_tight_agree_tight_is_cheaper():
    prefs = generate_preferences(400, 5, seed=64)
    tight = FunctionIndex(prefs, threshold="tight")
    naive = FunctionIndex(prefs, threshold="naive")
    tight_stats, naive_stats = SearchStats(), SearchStats()
    points = np.random.default_rng(4).random((60, 5))
    assert answers(tight, points, tight_stats) == answers(
        naive, points, naive_stats)
    assert tight_stats.score_evaluations < naive_stats.score_evaluations


def test_tight_threshold_is_admissible():
    """T_tight must upper-bound the score of every normalized function
    whose coefficients respect the per-list caps."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        dims = int(rng.integers(2, 6))
        point = rng.random(dims)
        caps = rng.random(dims)
        bound = tight_threshold(tuple(point), tuple(caps))
        # Sample normalized weight vectors under the caps (rejection).
        for _ in range(30):
            w = rng.dirichlet(np.ones(dims))
            if np.all(w <= caps + 1e-12):
                assert float(w @ point) <= bound + 1e-9


def test_tight_threshold_not_looser_than_naive():
    rng = np.random.default_rng(6)
    for _ in range(200):
        dims = int(rng.integers(2, 7))
        point = tuple(rng.random(dims))
        caps = tuple(rng.random(dims))
        naive = sum(c * p for c, p in zip(caps, point))
        if sum(caps) >= 1.0:  # the regime the paper describes
            assert tight_threshold(point, caps) <= naive + 1e-12


def test_tight_threshold_exact_on_constructed_case():
    # point = (1, 0), caps allow 0.6 on dim 0: best unseen function puts
    # 0.6 there and wastes the rest -> bound 0.6.
    assert tight_threshold((1.0, 0.0), (0.6, 1.0)) == pytest.approx(0.6)
    # Budget exceeds caps on the good dim, remainder flows to dim 1.
    assert tight_threshold((1.0, 0.5), (0.6, 1.0)) == pytest.approx(
        0.6 * 1.0 + 0.4 * 0.5
    )


def test_alive_iteration_and_lookup():
    prefs = generate_preferences(10, 2, seed=65)
    index = FunctionIndex(prefs)
    index.remove(4)
    assert sorted(f.fid for f in index.alive_functions()) == [
        0, 1, 2, 3, 5, 6, 7, 8, 9
    ]
    assert index.alive_ids() == [0, 1, 2, 3, 5, 6, 7, 8, 9]
    assert index.function(5).fid == 5
    with pytest.raises(PreferenceError):
        index.function(4)
    assert 5 in index and 4 not in index

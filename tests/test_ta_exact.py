"""The lockstep reverse top-1 pass is exact: the per-point scan it replaced.

:meth:`FunctionIndex.reverse_top1` answers every row of a round in one
threshold-algorithm pass. ``reference_reverse_top1`` (in ``conftest``) is
the earlier per-point scan. Every row must get the same function, the same
score bits and the same ``score_evaluations`` and ``comparisons``, under
both thresholds; and SB run over the per-point scan must emit the same
pairs, rounds, reverse top-1 queries and search counters as SB itself.
"""

import struct
from dataclasses import asdict

import numpy as np
import pytest

from repro.core import MatchPair, SkylineMatcher
from repro.data import generate_anticorrelated, generate_independent
from repro.engine import MatchingConfig
from repro.engine.backends import get_backend
from repro.errors import DimensionalityError, PreferenceError
from repro.prefs import FunctionIndex, LinearPreference, generate_preferences
from repro.skyline import (
    compute_skyline,
    recompute_with_pruning,
    update_after_removal,
)
from repro.storage import SearchStats
from tests.conftest import reference_reverse_top1


def bits(score):
    return struct.pack("<d", score)


def assert_rows_exact(index, points):
    """One pass over ``points`` equals one reference scan per row."""
    got_stats, want_stats = SearchStats(), SearchStats()
    fids, scores = index.reverse_top1(points, stats=got_stats)
    want = [reference_reverse_top1(index, tuple(point), want_stats)
            for point in np.asarray(points, dtype=float).tolist()]
    got = list(zip(fids.tolist(), scores.tolist()))
    assert [(fid, bits(score)) for fid, score in got] == [
        (fid, bits(score)) for fid, score in want
    ]
    assert asdict(got_stats) == asdict(want_stats)


# ----------------------------------------------------------------------
# Deterministic cases
# ----------------------------------------------------------------------
def test_empty_index_answers_minus_one_per_row():
    index = FunctionIndex([])
    fids, scores = index.reverse_top1(np.full((3, 2), 0.5))
    assert fids.tolist() == [-1, -1, -1]
    assert scores.tolist() == [float("-inf")] * 3
    drained = FunctionIndex([LinearPreference(4, (0.5, 0.5))])
    drained.remove(4)
    assert drained.reverse_top1([(0.1, 0.9)])[0].tolist() == [-1]


@pytest.mark.parametrize("points", [[], np.empty((0, 3))])
def test_zero_rows_return_empty_arrays(points):
    index = FunctionIndex(generate_preferences(6, 3, seed=70))
    stats = SearchStats()
    fids, scores = index.reverse_top1(points, stats=stats)
    assert fids.shape == (0,) and fids.dtype == np.int64
    assert scores.shape == (0,) and scores.dtype == np.float64
    assert asdict(stats) == asdict(SearchStats())


@pytest.mark.parametrize("threshold", ["tight", "naive"])
def test_one_function(threshold):
    only = LinearPreference(7, (0.25, 0.75))
    index = FunctionIndex([only], threshold=threshold)
    points = [(0.5, 0.5), (0.0, 1.0), (1.0, 0.0)]
    fids, scores = index.reverse_top1(points)
    assert fids.tolist() == [7, 7, 7]
    assert scores.tolist() == [only.score(point) for point in points]
    assert_rows_exact(index, points)


@pytest.mark.parametrize("threshold", ["tight", "naive"])
def test_full_ties_go_to_the_lowest_fid(threshold):
    functions = [LinearPreference(fid, (0.5, 0.5)) for fid in (9, 2, 5, 30)]
    index = FunctionIndex(functions, threshold=threshold)
    points = [(0.4, 0.4), (0.0, 0.0), (1.0, 0.2)]
    assert index.reverse_top1(points)[0].tolist() == [2, 2, 2]
    assert_rows_exact(index, points)


@pytest.mark.parametrize("threshold", ["tight", "naive"])
def test_one_dimension(threshold):
    functions = [LinearPreference(fid, (1.0,)) for fid in range(5)]
    index = FunctionIndex(functions, threshold=threshold)
    points = [(0.3,), (0.0,), (1.0,)]
    assert index.reverse_top1(points)[0].tolist() == [0, 0, 0]
    assert_rows_exact(index, points)


def test_wrong_width_and_rank_rejected():
    index = FunctionIndex(generate_preferences(4, 3, seed=71))
    with pytest.raises(DimensionalityError):
        index.reverse_top1(np.zeros((2, 2)))
    with pytest.raises(PreferenceError):
        index.reverse_top1((0.2, 0.3, 0.5))  # one point, not rows


@pytest.mark.parametrize("threshold", ["tight", "naive"])
def test_seeded_rows_with_compacting_removals(threshold):
    rng = np.random.default_rng(72)
    functions = generate_preferences(120, 4, seed=73)
    index = FunctionIndex(functions, threshold=threshold)
    points = rng.random((60, 4))
    assert_rows_exact(index, points)
    for fid in rng.permutation(120)[:90].tolist():
        index.remove(fid)  # crosses compaction (>= 32 dead, > half)
        if fid % 15 == 0:
            assert_rows_exact(index, points)
    assert_rows_exact(index, points)


# ----------------------------------------------------------------------
# SB over the per-point scan
# ----------------------------------------------------------------------
class PerPointSB(SkylineMatcher):
    """SB with one reference reverse top-1 scan per stale skyline object,
    in skyline order, as the matcher ran before the lockstep pass."""

    def pairs(self):
        tree = self.problem.tree
        index = FunctionIndex(self.problem.functions, threshold=self.threshold)
        state = None
        excluded = set()
        pending_orphans = []
        fbest = {}
        rank = 0
        while len(index) > 0:
            if state is None:
                state = compute_skyline(tree, stats=self.search_stats)
            elif self.maintenance == "plist":
                update_after_removal(
                    tree, state, pending_orphans, stats=self.search_stats
                )
                pending_orphans = []
            else:
                recompute_with_pruning(
                    tree, state, excluded, stats=self.search_stats
                )
            if len(state) == 0:
                break
            if not self.cache_best:
                fbest.clear()
            for object_id, point in state.items():
                cached = fbest.get(object_id)
                if cached is not None and cached[1] in index:
                    continue
                fid, score = reference_reverse_top1(
                    index, point, self.search_stats)
                self.reverse_top1_queries += 1
                fbest[object_id] = (score, fid)
            emitted = self._mutual_pairs(index, state, fbest, state.ids(),
                                         state.matrix())
            if not self.multi_pair:
                emitted = emitted[:1]
            for score, fid, object_id in emitted:
                yield MatchPair(
                    fid, object_id, score, round=self.rounds, rank=rank
                )
                rank += 1
                index.remove(fid)
                pending_orphans.extend(state.remove(object_id))
                excluded.add(object_id)
                fbest.pop(object_id, None)
            self.rounds += 1


def run_sb(cls, backend, generator, switches):
    objects = generator(700, 3, seed=74)
    functions = generate_preferences(45, 3, seed=75)
    problem = get_backend(backend).build_problem(
        objects, functions, MatchingConfig(backend=backend))
    stats = SearchStats()
    matcher = cls(problem, search_stats=stats, **switches)
    pairs = [(p.function_id, p.object_id, bits(p.score), p.round, p.rank)
             for p in matcher.pairs()]
    return (pairs, matcher.rounds, matcher.reverse_top1_queries,
            asdict(stats), problem.io_stats.page_reads)


@pytest.mark.parametrize("backend", ["disk", "memory"])
@pytest.mark.parametrize("generator", [generate_independent,
                                       generate_anticorrelated])
@pytest.mark.parametrize("cache_best", [True, False])
@pytest.mark.parametrize("threshold", ["tight", "naive"])
@pytest.mark.parametrize("multi_pair", [True, False])
def test_sb_equals_sb_over_the_per_point_scan(backend, generator, cache_best,
                                              threshold, multi_pair):
    switches = dict(cache_best=cache_best, threshold=threshold,
                    multi_pair=multi_pair)
    lockstep = run_sb(SkylineMatcher, backend, generator, switches)
    per_point = run_sb(PerPointSB, backend, generator, switches)
    assert lockstep == per_point
    assert len(lockstep[0]) == 45

"""The vectorized greedy sorts only each row's top-F cells.

``greedy_pairs_from_scores`` keeps, per row, the cells at or above the
row's ``min(F, |O|)``-th best score and sorts only those.
``reference_greedy_pairs`` (in ``conftest``) is the full F x |O| lexsort
it replaced; both must emit the same pairs in the same order, with the
same score bits, on grids built to break a wrong cut: quarter-grid ties,
-0.0 beside 0.0, ties straddling a row's cut, and every shape edge.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.engine.batch import greedy_pairs_from_scores, linear_batch_results
from repro.engine.result import PAIR_DTYPE
from repro.prefs.functions import canonical_score_matrix, weights_matrix
from tests.conftest import reference_greedy_pairs

#: Few distinct values, so most cells tie; both signed zeros included.
TIE_VALUES = (-0.0, 0.0, 0.25, 0.5, 0.75, 1.0)


def bits(score: float) -> int:
    return int(np.float64(score).view(np.int64))


def emitted(scores, fids, object_ids):
    """(fid, oid, score bits, round, rank) of the top-F greedy."""
    pairs = greedy_pairs_from_scores(scores, fids, object_ids)
    assert pairs.dtype == PAIR_DTYPE
    return [(fid, oid, bits(score), round_, rank)
            for fid, oid, score, round_, rank in pairs.tolist()]


def expected(scores, fids, object_ids):
    return [(pair.function_id, pair.object_id, bits(pair.score),
             pair.round, pair.rank)
            for pair in reference_greedy_pairs(scores, fids, object_ids)]


@st.composite
def grids(draw):
    """A score grid with shuffled distinct fids and object ids."""
    num_functions = draw(st.integers(0, 7))
    num_objects = draw(st.integers(0, 12))
    values = st.sampled_from(TIE_VALUES)
    if draw(st.booleans()):
        values = st.one_of(values, st.floats(-1.0, 1.0))
    cells = draw(st.lists(values, min_size=num_functions * num_objects,
                          max_size=num_functions * num_objects))
    scores = np.array(cells, dtype=np.float64).reshape(
        num_functions, num_objects)
    fids = draw(st.permutations(range(100, 100 + 3 * num_functions, 3)))
    object_ids = draw(st.permutations(range(7, 7 + 5 * num_objects, 5)))
    return scores, list(fids), list(object_ids)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grids())
def test_top_f_greedy_matches_the_full_lexsort(grid):
    scores, fids, object_ids = grid
    assert emitted(scores, fids, object_ids) == expected(
        scores, fids, object_ids)


@st.composite
def straddled(draw):
    """Rows whose cut value is tied far past the row's top F."""
    num_functions = draw(st.integers(1, 6))
    num_objects = draw(st.integers(num_functions, 14))
    rows = []
    for _ in range(num_functions):
        above = draw(st.integers(0, num_functions - 1))
        cut = draw(st.sampled_from((0.5, 0.0, -0.0)))
        tied = draw(st.integers(1, num_objects - above))
        row = ([1.0] * above + [cut] * tied
               + [-1.0] * (num_objects - above - tied))
        if cut == 0.0:  # signed zeros at the cut
            row = [(-0.0 if draw(st.booleans()) else 0.0)
                   if value == cut else value for value in row]
        rows.append(draw(st.permutations(row)))
    scores = np.array(rows, dtype=np.float64)
    fids = draw(st.permutations(range(num_functions)))
    object_ids = draw(st.permutations(range(50, 50 + num_objects)))
    return scores, list(fids), list(object_ids)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(straddled())
def test_ties_that_straddle_the_cut_are_kept(grid):
    scores, fids, object_ids = grid
    assert emitted(scores, fids, object_ids) == expected(
        scores, fids, object_ids)


@pytest.mark.parametrize("num_functions,num_objects", [
    (0, 5), (0, 0), (3, 0), (3, 1), (1, 1), (4, 4), (6, 4), (4, 9),
], ids=["F=0", "F=0,O=0", "O=0", "O=1", "F=O=1", "F=O", "F>O", "F<O"])
def test_shape_edges(num_functions, num_objects):
    rng = np.random.default_rng(num_functions * 31 + num_objects)
    scores = rng.choice(np.array(TIE_VALUES), size=(num_functions,
                                                    num_objects))
    fids = list(rng.permutation(num_functions) + 10)
    object_ids = list(rng.permutation(num_objects) * 2)
    got = emitted(scores, fids, object_ids)
    assert got == expected(scores, fids, object_ids)
    assert len(got) == min(num_functions, num_objects)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 9),
       st.integers(0, 40))
def test_batch_results_pack_the_reference_pairs(seed, dims, functions,
                                                objects):
    """Quarter-grid points and weights: scores tie everywhere; the
    packed pairs keep fid, oid, score bits, round and rank."""
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 5, size=(objects, dims)) / 4.0
    catalog = repro.Dataset(points, ids=list(rng.permutation(objects) * 3))
    workloads = []
    for offset in (0, 1000):
        weights = rng.integers(0, 3, size=(functions, dims)).astype(float)
        weights[weights.sum(axis=1) == 0, 0] = 1.0
        workloads.append([
            repro.LinearPreference(offset + fid, list(row / row.sum()))
            for fid, row in zip(rng.permutation(functions), weights)])
    for result, workload in zip(linear_batch_results(catalog, workloads),
                                workloads):
        if workload and len(catalog):
            weights, fids = weights_matrix(workload)
            scores = canonical_score_matrix(weights, catalog.matrix)
        else:
            fids, scores = [f.fid for f in workload], np.zeros(
                (len(workload), len(catalog)))
        want = expected(scores, fids, catalog.ids)
        assert [(pair.function_id, pair.object_id, bits(pair.score),
                 pair.round, pair.rank) for pair in result.pairs] == want
        assert sorted(result.unmatched_functions) == sorted(
            set(fids) - {fid for fid, *_ in want})

"""Property-based tests of the threshold algorithm and its tight bound."""

import struct
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prefs import (
    FunctionIndex,
    LinearPreference,
    canonical_score,
    tight_threshold,
)
from repro.prefs.index import THRESHOLDS
from repro.storage import SearchStats
from tests.conftest import reference_reverse_top1

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)


def function_sets(dims, max_size=12):
    raw = st.lists(
        st.tuples(*([positive] * dims)), min_size=1, max_size=max_size
    )
    return raw.map(
        lambda rows: [
            LinearPreference.normalized(fid, row)
            for fid, row in enumerate(rows)
        ]
    )


def oracle(functions, point):
    best = max(
        (canonical_score(f.weights, point), -f.fid) for f in functions
    )
    return (-best[1], best[0])


def top1(index, point):
    fids, scores = index.reverse_top1([point])
    return fids.tolist()[0], scores.tolist()[0]


@settings(max_examples=80, deadline=None)
@given(function_sets(3), st.tuples(unit, unit, unit))
def test_reverse_top1_equals_oracle(functions, point):
    index = FunctionIndex(functions)
    assert top1(index, point) == oracle(functions, point)


@settings(max_examples=50, deadline=None)
@given(function_sets(2, max_size=10), st.tuples(unit, unit),
       st.lists(st.integers(min_value=0, max_value=100), max_size=6))
def test_reverse_top1_with_removals(functions, point, removals):
    index = FunctionIndex(functions)
    alive = {f.fid: f for f in functions}
    for raw in removals:
        if len(alive) <= 1:
            break
        victim = sorted(alive)[raw % len(alive)]
        index.remove(victim)
        del alive[victim]
        assert top1(index, point) == oracle(alive.values(), point)


@settings(max_examples=80, deadline=None)
@given(function_sets(4), st.tuples(unit, unit, unit, unit))
def test_naive_and_tight_thresholds_agree(functions, point):
    tight = FunctionIndex(functions, threshold="tight")
    naive = FunctionIndex(functions, threshold="naive")
    assert top1(tight, point) == top1(naive, point)


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(unit, unit, unit),
    st.tuples(positive, positive, positive),
    st.tuples(positive, positive, positive),
)
def test_tight_threshold_admissible_for_capped_functions(point, caps, raw):
    """Any normalized function whose coefficients respect the caps scores
    at most the tight threshold (up to arithmetic noise)."""
    function = LinearPreference.normalized(0, raw)
    if not all(w <= c for w, c in zip(function.weights, caps)):
        return  # the function does not respect the caps: bound says nothing
    bound = tight_threshold(point, caps)
    assert canonical_score(function.weights, point) <= bound + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.tuples(unit, unit, unit), st.tuples(positive, positive, positive))
def test_tight_threshold_never_looser_than_naive_when_feasible(point, caps):
    if sum(caps) < 1.0:
        return  # infeasible regime: the tight bound pads, naive may be lower
    naive = sum(c * p for c, p in zip(caps, point))
    assert tight_threshold(point, caps) <= naive + 1e-12


@st.composite
def lockstep_cases(draw):
    """An index (threshold, functions, removals) and rows to ask it.

    Half the cases are tie-heavy: integer weight grids and points on
    ``{0, 0.5, 1}``. A third of the removals cross compaction (at least
    32 dead and more than half of the functions).
    """
    dims = draw(st.integers(min_value=1, max_value=5))
    grid = draw(st.booleans())
    compacting = draw(st.integers(min_value=0, max_value=2)) == 0
    count = draw(st.integers(min_value=64 if compacting else 1,
                             max_value=80 if compacting else 40))
    if grid:
        weight = st.integers(min_value=0, max_value=3).map(float)
        value = st.sampled_from([0.0, 0.5, 1.0])
    else:
        weight, value = positive, unit
    raw = draw(st.lists(
        st.tuples(*([weight] * dims)).filter(lambda row: sum(row) > 0),
        min_size=count, max_size=count))
    functions = [LinearPreference.normalized(fid, row)
                 for fid, row in enumerate(raw)]
    removals = draw(st.permutations(range(count)))
    removed = draw(st.integers(
        min_value=max(32, count // 2 + 1) if compacting else 0,
        max_value=count - 1))
    rows = draw(st.lists(st.tuples(*([value] * dims)), max_size=12))
    threshold = draw(st.sampled_from(THRESHOLDS))
    return threshold, functions, removals[:removed], rows


def bits(answers):
    return [(fid, struct.pack("<d", score)) for fid, score in answers]


@settings(max_examples=150, deadline=None)
@given(lockstep_cases())
def test_lockstep_rows_equal_per_point_scans(case):
    """Every row of one pass gets the per-point scan's function, score
    bits, ``score_evaluations`` and ``comparisons``."""
    threshold, functions, removals, rows = case
    index = FunctionIndex(functions, threshold=threshold)
    for fid in removals:
        index.remove(fid)
    got_stats, want_stats = SearchStats(), SearchStats()
    fids, scores = index.reverse_top1(rows, stats=got_stats)
    want = [reference_reverse_top1(index, row, want_stats) for row in rows]
    assert bits(zip(fids.tolist(), scores.tolist())) == bits(want)
    assert asdict(got_stats) == asdict(want_stats)

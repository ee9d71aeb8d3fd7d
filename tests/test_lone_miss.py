"""A lone linear miss takes the vectorized scorer, bounded by cells.

``MatchingService`` routes each linear miss by its size — at most
``MAX_VECTOR_CELLS`` score cells (functions x staged objects) — not by
how many misses arrived with it, so one ``submit`` is answered by the
same canonical greedy as a batch. Capacitated plans score their
capacity-expanded objects and fold each pair back to its owner. A lone
miss runs inline: these tests run under ``no_leaks``.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.engine.plan as plan_module
from repro.core import greedy_reference_matching
from repro.data import Dataset
from repro.engine.request import MatchingRequest
from repro.prefs import LinearPreference, generate_preferences

# Quarter grids tie scores exactly and repeat points.
quarter = st.integers(min_value=0, max_value=4).map(lambda v: v / 4)


def triples(pairs):
    """Sorted (fid, oid, score bits): equal means equal to the bit."""
    return sorted((pair.function_id, pair.object_id,
                   struct.pack("<d", pair.score)) for pair in pairs)


def workload(raw):
    return [LinearPreference.normalized(fid, list(weights))
            for fid, weights in enumerate(raw)]


def served_alone(objects, functions, **config):
    """One ``submit`` on a fresh service, and the service's counters."""
    with repro.MatchingService(objects, backend="memory",
                               deletion_mode="filter", **config) as service:
        result = service.submit(functions)
        assert service._batch_pool is None or service._batch_pool._pool is None
        return result, service.snapshot()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(
    st.lists(st.tuples(quarter, quarter), min_size=1, max_size=14),
    st.lists(st.tuples(*[st.sampled_from([0, 1, 2])] * 2)
             .filter(any), min_size=0, max_size=8),
    st.sampled_from(["sb", "bf", "chain", "gs"]),
)
def test_a_lone_submit_equals_the_greedy_reference_with_zero_weights(
        no_leaks, points, raw, algorithm):
    objects = Dataset([list(point) for point in points])
    functions = workload(raw)
    result, snap = served_alone(objects, functions, algorithm=algorithm)
    assert (snap.vectorized_requests, snap.fallback_requests) == (1, 0)
    assert result.algorithm == f"batched-{algorithm}"
    reference = greedy_reference_matching(objects, functions)
    assert triples(result.pairs) == triples(reference.pairs)
    assert result.unmatched_objects_count == len(objects) - len(reference)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(
    st.lists(st.tuples(quarter, quarter, st.integers(0, 3)),
             min_size=1, max_size=12),
    st.lists(st.tuples(*[st.sampled_from([1, 2])] * 2),
             min_size=0, max_size=10),
    st.sampled_from(["sb", "bf", "chain", "gs"]),
)
def test_a_capacitated_lone_miss_equals_the_capacitated_tree_path(
        no_leaks, rows, raw, algorithm):
    # Positive weights: SB's zero-weight tie order is ROADMAP item 3.
    objects = Dataset([[x, y] for x, y, _ in rows],
                      ids=[10 * i + 7 for i in range(len(rows))])
    capacities = {10 * i + 7: units for i, (_, _, units) in enumerate(rows)}
    functions = workload(raw)
    result, snap = served_alone(objects, functions, algorithm=algorithm,
                                capacities=capacities)
    assert snap.vectorized_requests == 1
    cold = repro.match(objects, functions, algorithm=algorithm,
                       backend="memory", capacities=capacities)
    assert triples(result.pairs) == triples(cold.pairs)
    assert result.capacities == cold.capacities
    assert result.unmatched_functions == cold.unmatched_functions
    assert result.unmatched_objects_count == cold.unmatched_objects_count


def test_the_cell_bound_is_inclusive_and_counts_each_workload_alone(
        no_leaks, monkeypatch):
    assert plan_module.MAX_VECTOR_CELLS == 2 ** 21
    objects = repro.generate_independent(n=50, dims=2, seed=5)
    functions = generate_preferences(6, 2, seed=6)          # 300 cells
    cold = repro.match(objects, functions, backend="memory")
    for bound, vectorized in ((300, 1), (299, 0)):
        monkeypatch.setattr(plan_module, "MAX_VECTOR_CELLS", bound)
        result, snap = served_alone(objects, functions)
        assert (snap.vectorized_requests, snap.fallback_requests) \
            == (vectorized, 1 - vectorized)
        assert triples(result.pairs) == triples(cold.pairs)
    # Two workloads at the bound: 600 cells together, each vectorized.
    monkeypatch.setattr(plan_module, "MAX_VECTOR_CELLS", 300)
    other = generate_preferences(6, 2, seed=7)
    with repro.MatchingService(objects, backend="memory") as service:
        service.submit_many([functions, other])
        assert service.snapshot().vectorized_requests == 2
    # A capacitated plan counts its expanded objects: 6 x 60 > 300.
    capacities = {objects.ids[0]: 11}
    result, snap = served_alone(objects, functions, capacities=capacities)
    assert (snap.vectorized_requests, snap.fallback_requests) == (0, 1)
    assert triples(result.pairs) == triples(repro.match(
        objects, functions, backend="memory", capacities=capacities).pairs)


def test_a_sharded_service_answers_a_lone_miss_with_the_scorer(no_leaks):
    objects = repro.generate_independent(n=300, dims=3, seed=8)
    functions = generate_preferences(12, 3, seed=9)
    with repro.MatchingService(objects, backend="memory", shards=2,
                               executor="serial") as service:
        result = service.submit(functions)
        assert result.algorithm == "batched-sb"
        assert service.snapshot().vectorized_requests == 1
        assert not service.prepared.parent_tree_built
        assert service.prepared.run(functions) is result   # cached
    cold = repro.match(objects, functions, backend="memory", shards=2,
                       executor="serial")
    assert cold.algorithm == "sharded-sb"
    assert triples(result.pairs) == triples(cold.pairs)


def test_use_cache_false_recomputes_a_lone_miss_on_the_scorer(no_leaks):
    objects = repro.generate_independent(n=120, dims=2, seed=10)
    prefs = generate_preferences(5, 2, seed=11)
    with repro.MatchingService(objects, backend="memory") as service:
        first = service.submit(prefs)
        fresh = service.submit(MatchingRequest(prefs, use_cache=False))
        assert fresh is not first
        assert triples(fresh.pairs) == triples(first.pairs)
        assert service.submit(prefs) is fresh              # cache refreshed
        snap = service.snapshot()
        assert (snap.vectorized_requests, snap.fallback_requests,
                snap.cache_hits) == (2, 0, 1)


# ----------------------------------------------------------------------
# SB and a zero weight: the tie order (ROADMAP item 3)
# ----------------------------------------------------------------------
#: Both objects score 0.5 under weights (0, 1); the library's tie order
#: (score desc, fid asc, oid asc) picks object 0, which object 1
#: dominates.
TIE_OBJECTS = [[0.5, 0.5], [1.0, 0.5]]
ZERO_WEIGHT = [LinearPreference(0, (0.0, 1.0))]


def test_one_sb_service_answers_a_zero_weight_tie_one_way():
    objects = Dataset(TIE_OBJECTS)
    other = [LinearPreference(0, (0.5, 0.5))]
    with repro.MatchingService(objects, algorithm="sb",
                               backend="memory") as alone, \
            repro.MatchingService(objects, algorithm="sb",
                                  backend="memory") as batched:
        lone = alone.submit(ZERO_WEIGHT)
        together = batched.submit_many([ZERO_WEIGHT, other])[0]
    assert lone.as_dict() == together.as_dict() == {0: 0}


@pytest.mark.xfail(strict=True, reason=(
    "SB never visits an object another object dominates, so it misses "
    "a dominated object that ties on score under a zero weight and "
    "wins the oid tie (ROADMAP item 3)"))
def test_sb_breaks_a_zero_weight_tie_on_object_id():
    objects = Dataset(TIE_OBJECTS)
    result = repro.match(objects, ZERO_WEIGHT, algorithm="sb",
                         backend="memory")
    assert result.as_dict() == {0: 0}

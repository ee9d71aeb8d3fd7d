"""Storage backends, the unified MatchResult, and rebuild semantics."""

import pytest

import repro
from repro import MatchingConfig, MatchingProblem, MatchPair
from repro.core import GaleShapleyMatcher, greedy_reference_matching
from repro.engine import (
    DiskBackend,
    InMemoryProblem,
    MatchResult,
    MemoryBackend,
    StorageBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.errors import MatchingError
from repro.data import generate_independent
from repro.prefs import generate_preferences
from repro.storage import ClockBufferPool


def tiny_workload(n_objects=400, n_functions=15, dims=3, seed=80):
    objects = generate_independent(n_objects, dims, seed=seed)
    functions = generate_preferences(n_functions, dims, seed=seed + 1)
    return objects, functions


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
def test_backend_instances_satisfy_the_protocol():
    assert isinstance(DiskBackend(), StorageBackend)
    assert isinstance(MemoryBackend(), StorageBackend)


def test_backend_aliases():
    assert isinstance(get_backend("mem"), MemoryBackend)
    assert isinstance(get_backend("paper"), DiskBackend)


def test_backend_registry_round_trip():
    @register_backend("test-null")
    class NullBackend(MemoryBackend):
        name = "test-null"

    try:
        assert "test-null" in available_backends()
        objects, functions = tiny_workload()
        result = repro.match(objects, functions, backend="test-null")
        assert len(result) == len(functions)
        assert result.backend == "test-null"
    finally:
        from repro.engine import backends as backends_module

        del backends_module._BACKENDS["test-null"]
    assert "test-null" not in available_backends()


def test_duplicate_backend_registration_rejected():
    with pytest.raises(MatchingError, match="already registered"):
        register_backend("disk")(DiskBackend)


def test_memory_problem_is_a_matching_problem():
    objects, functions = tiny_workload()
    problem = InMemoryProblem.build_memory(objects, functions)
    assert isinstance(problem, MatchingProblem)
    assert problem.tree.num_objects == len(objects)
    assert problem.io_stats.io_accesses == 0
    problem.reset_io()  # must not blow up despite the inert disk


def test_memory_problem_rebuild_restores_mutations():
    objects, functions = tiny_workload()
    problem = InMemoryProblem.build_memory(objects, functions, fanout=16)
    victim = objects.ids[0]
    problem.tree.delete(victim, objects.vector(victim))
    assert problem.tree.num_objects == len(objects) - 1
    rebuilt = problem.rebuild()
    assert isinstance(rebuilt, InMemoryProblem)
    assert rebuilt.tree.num_objects == len(objects)
    assert rebuilt.tree.store.leaf_capacity == 16


def test_disk_backend_honours_buffer_policy_and_capacity():
    objects, functions = tiny_workload()
    config = MatchingConfig(buffer_policy="clock", buffer_capacity=9)
    problem = DiskBackend().build_problem(objects, functions, config)
    assert isinstance(problem.buffer, ClockBufferPool)
    assert problem.buffer.capacity == 9


def test_tree_mutating_algorithms_work_on_memory_backend():
    objects, functions = tiny_workload(seed=82)
    reference = greedy_reference_matching(objects, functions)
    for algorithm in ("bf", "chain"):
        result = repro.match(objects, functions, algorithm=algorithm,
                             backend="memory")
        assert result.as_set() == reference.as_set(), algorithm


# ----------------------------------------------------------------------
# Rebuild buffer-mode preservation (regression)
# ----------------------------------------------------------------------
def test_rebuild_preserves_fraction_mode():
    objects, functions = tiny_workload(n_objects=2000)
    problem = MatchingProblem.build(objects, functions,
                                    buffer_fraction=0.10)
    fraction_capacity = problem.buffer.capacity
    # Shrink the buffer after build; a fraction-mode problem must NOT
    # pin the mutated capacity on rebuild — it re-derives from the
    # fraction.
    problem.buffer.resize(1)
    rebuilt = problem.rebuild()
    assert rebuilt.buffer.capacity == fraction_capacity
    assert rebuilt.rebuild().buffer.capacity == fraction_capacity


def test_rebuild_preserves_pinned_capacity():
    objects, functions = tiny_workload(n_objects=2000)
    problem = MatchingProblem.build(objects, functions, buffer_capacity=13)
    problem.buffer.resize(5)
    rebuilt = problem.rebuild()
    assert rebuilt.buffer.capacity == 13


def test_rebuild_preserves_buffer_policy():
    objects, functions = tiny_workload()
    problem = MatchingProblem.build(objects, functions,
                                    buffer_policy="clock")
    assert isinstance(problem.rebuild().buffer, ClockBufferPool)


# ----------------------------------------------------------------------
# GaleShapleyMatcher
# ----------------------------------------------------------------------
def test_gale_shapley_matcher_matches_reference():
    objects, functions = tiny_workload(n_objects=60, n_functions=25, seed=83)
    problem = MatchingProblem.build(objects, functions)
    matching = GaleShapleyMatcher(problem).run()
    reference = greedy_reference_matching(objects, functions)
    assert matching.as_set() == reference.as_set()
    # Canonical emission order: score descending.
    scores = [pair.score for pair in matching.pairs]
    assert scores == sorted(scores, reverse=True)


def test_gale_shapley_matcher_empty_inputs():
    objects = generate_independent(5, 2, seed=84)
    problem = MatchingProblem.build(objects, [])
    assert len(GaleShapleyMatcher(problem).run()) == 0


# ----------------------------------------------------------------------
# MatchResult
# ----------------------------------------------------------------------
def _pair(fid, oid, score, rank=0):
    return MatchPair(fid, oid, score, round=rank, rank=rank)


def test_result_rejects_duplicate_function():
    with pytest.raises(MatchingError, match="matched more than once"):
        MatchResult([_pair(1, 2, 0.5), _pair(1, 3, 0.4)])


def test_result_rejects_reused_object_in_one_to_one_mode():
    with pytest.raises(MatchingError, match="capacity 1"):
        MatchResult([_pair(1, 2, 0.5), _pair(3, 2, 0.4)])


def test_result_enforces_capacities():
    pairs = [_pair(1, 2, 0.5), _pair(3, 2, 0.4)]
    result = MatchResult(pairs, capacities={2: 2})
    assert result.is_capacitated
    assert result.usage == {2: 2}
    assert sorted(result.assignments_of(2)) == [1, 3]
    with pytest.raises(MatchingError, match="capacity 2"):
        MatchResult(pairs + [_pair(4, 2, 0.3)], capacities={2: 2})


def test_result_lookups_and_summaries():
    result = MatchResult(
        [_pair(1, 10, 0.9), _pair(2, 20, 0.7, rank=1)],
        unmatched_functions=[3],
        algorithm="skyline", backend="memory",
    )
    assert len(result) == 2
    assert result.object_of(1) == 10
    assert result.object_of(99) is None
    assert result.function_of(20) == 2
    assert result.as_dict() == {1: 10, 2: 20}
    assert result.as_set() == {(1, 10), (2, 20)}
    assert result.total_score == pytest.approx(1.6)
    assert result.mean_score == pytest.approx(0.8)
    assert result.num_rounds == 2
    assert result.io_accesses == 0  # no snapshot attached
    matching = result.to_matching()
    assert matching.as_set() == result.as_set()
    assert matching.unmatched_functions == [3]


def test_capacitated_result_restricts_one_to_one_accessors():
    result = MatchResult([_pair(1, 2, 0.5)], capacities={2: 3})
    with pytest.raises(MatchingError, match="ambiguous"):
        result.function_of(2)
    with pytest.raises(MatchingError, match="capacitated"):
        result.to_matching()


@pytest.mark.parametrize("capacities", [None, {0: 3, 1: 2, 2: 0}],
                         ids=["one-to-one", "capacitated"])
def test_result_lookups_come_from_the_pairs(capacities):
    objects = generate_independent(12, 3, seed=85)
    functions = generate_preferences(9, 3, seed=86)
    result = repro.match(objects, functions, capacities=capacities,
                         backend="memory")
    usage = {}
    for pair in result.pairs:
        usage[pair.object_id] = usage.get(pair.object_id, 0) + 1
    assert result.usage == usage
    assert result.usage is not result.usage  # computed, never stored
    by_function = {pair.function_id: pair for pair in result.pairs}
    for function in functions:
        pair = by_function.get(function.fid)
        assert result.object_of(function.fid) == (
            None if pair is None else pair.object_id)
    assert not hasattr(result, "by_function")
    with pytest.raises(MatchingError, match="matched more than once"):
        MatchResult(result.pairs + result.pairs[:1], capacities=capacities)
    limits = result.capacities or {}
    full = next(object_id for object_id, count in usage.items()
                if count == limits.get(object_id, 1))
    with pytest.raises(MatchingError, match="capacity"):
        MatchResult(result.pairs + [_pair(99, full, 0.1)],
                    capacities=result.capacities)

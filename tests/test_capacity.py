"""Capacitated (many-to-one) matching via virtual-object expansion."""

import pytest

import repro
from repro.core import MatchingProblem, MatchPair
from repro.data import Dataset, generate_independent
from repro.engine import MatchResult
from repro.errors import MatchingError
from repro.prefs import generate_preferences


def test_single_object_with_capacity_serves_many():
    objects = Dataset([[0.9, 0.9], [0.2, 0.2]])
    functions = generate_preferences(3, 2, seed=210)
    result = repro.match(objects, functions, capacities={0: 2, 1: 1})
    assert len(result) == 3
    assert sorted(result.usage.items()) == [(0, 2), (1, 1)]
    assert len(result.assignments_of(0)) == 2


def test_capacity_equals_duplicate_objects():
    # Capacity-c matching must equal the 1-1 matching over c duplicates.
    objects = Dataset([[0.8, 0.6], [0.5, 0.9], [0.3, 0.3]])
    functions = generate_preferences(5, 2, seed=211)
    capacitated = repro.match(objects, functions,
                              capacities={0: 2, 1: 2, 2: 1})
    duplicated = Dataset(
        [[0.8, 0.6], [0.8, 0.6], [0.5, 0.9], [0.5, 0.9], [0.3, 0.3]]
    )
    owner = {0: 0, 1: 0, 2: 1, 3: 1, 4: 2}
    problem = MatchingProblem.build(duplicated, functions)
    from repro.core import SkylineMatcher

    flat = SkylineMatcher(problem).run()
    want = {(p.function_id, owner[p.object_id]) for p in flat.pairs}
    got = {(p.function_id, p.object_id) for p in capacitated.pairs}
    assert got == want


def test_zero_capacity_removes_object():
    objects = Dataset([[0.9, 0.9], [0.5, 0.5]])
    functions = generate_preferences(2, 2, seed=212)
    result = repro.match(objects, functions, capacities={0: 0, 1: 5})
    assert {pair.object_id for pair in result.pairs} == {1}
    assert result.usage.get(0, 0) == 0
    assert result.capacities[0] == 0


def test_default_capacity_is_one():
    objects = generate_independent(20, 2, seed=213)
    functions = generate_preferences(10, 2, seed=214)
    result = repro.match(objects, functions, capacities={})
    assert len(result) == 10
    assert all(count <= 1 for count in result.usage.values())


def test_insufficient_capacity_leaves_functions_unmatched():
    objects = Dataset([[0.9, 0.9]])
    functions = generate_preferences(4, 2, seed=215)
    result = repro.match(objects, functions, capacities={0: 2})
    assert len(result) == 2
    assert len(result.unmatched_functions) == 2


def test_negative_capacity_rejected():
    objects = Dataset([[0.5, 0.5]])
    functions = generate_preferences(1, 2, seed=216)
    with pytest.raises(MatchingError):
        repro.match(objects, functions, capacities={0: -1})


def test_alternative_matcher_factory():
    objects = Dataset([[0.9, 0.3], [0.4, 0.8]])
    functions = generate_preferences(3, 2, seed=217)
    sb = repro.match(objects, functions, capacities={0: 2, 1: 1})
    bf = repro.match(objects, functions, capacities={0: 2, 1: 1},
                     algorithm="bf")
    assert {(p.function_id, p.object_id) for p in sb.pairs} == {
        (p.function_id, p.object_id) for p in bf.pairs
    }


def test_capacitated_matching_validates_consistency():
    with pytest.raises(MatchingError):
        MatchResult(
            [MatchPair(0, 0, 0.5), MatchPair(1, 0, 0.5)],
            capacities={0: 1},
        )
    with pytest.raises(MatchingError):
        MatchResult(
            [MatchPair(0, 0, 0.5), MatchPair(0, 1, 0.5)],
            capacities={0: 1, 1: 1},
        )

"""Cross-shard merge edge cases and the RepairEngine seeding hooks.

Every edge case asserts full equality (function, object, score) with the
single-process ``repro.match()`` on the identical workload — the
subsystem's core contract.
"""

import numpy as np
import pytest

import repro
from repro import MatchingConfig
from repro.core import greedy_reference_matching
from repro.data import Dataset, generate_clustered, generate_independent
from repro.dynamic import RepairEngine
from repro.engine import get_backend
from repro.errors import MatchingError
from repro.parallel import merge_shard_pairs
from repro.prefs import generate_preferences


def assignments(result):
    return sorted(
        (pair.function_id, pair.object_id, pair.score)
        for pair in result.pairs
    )


def assert_sharded_equals_single(objects, functions, *, shards,
                                 backend="memory", executor="serial",
                                 **options):
    single = repro.match(objects, functions, backend=backend, **options)
    sharded = repro.match(objects, functions, backend=backend,
                          shards=shards, executor=executor, **options)
    assert assignments(sharded) == assignments(single)
    return single, sharded


# ----------------------------------------------------------------------
# merge_shard_pairs unit behaviour
# ----------------------------------------------------------------------
def test_merge_keeps_best_partner_per_function():
    merged, displaced = merge_shard_pairs([
        [(0, 10, 0.5), (1, 11, 0.4)],          # shard 0
        [(0, 20, 0.9), (1, 21, 0.2)],          # shard 1
    ])
    assert merged == [(0, 20, 0.9), (1, 11, 0.4)]
    assert displaced == [10, 21]


def test_merge_breaks_score_ties_toward_lower_object_id():
    merged, displaced = merge_shard_pairs([
        [(0, 7, 0.5)],
        [(0, 3, 0.5)],
    ])
    assert merged == [(0, 3, 0.5)]
    assert displaced == [7]


def test_merge_of_nothing():
    assert merge_shard_pairs([]) == ([], [])
    assert merge_shard_pairs([[], []]) == ([], [])


# ----------------------------------------------------------------------
# Shard-count edge cases (each vs the single-process matching)
# ----------------------------------------------------------------------
def test_empty_shards_are_harmless():
    # 5 objects over 8 shards: at least three shards are empty.
    objects = generate_independent(5, 3, seed=80)
    functions = generate_preferences(4, 3, seed=81)
    _, sharded = assert_sharded_equals_single(
        objects, functions, shards=8,
    )
    assert len(sharded.pairs) == 4


def test_all_objects_in_one_shard():
    # A tight cluster collapses the Hilbert ranges to a sliver; with
    # shards=1 the whole set runs through the degenerate delegation.
    objects = generate_clustered(120, 3, seed=82)
    functions = generate_preferences(10, 3, seed=83)
    assert_sharded_equals_single(objects, functions, shards=1)
    assert_sharded_equals_single(objects, functions, shards=4)


def test_more_shards_than_objects():
    objects = generate_independent(6, 3, seed=84)
    functions = generate_preferences(6, 3, seed=85)
    assert_sharded_equals_single(objects, functions, shards=17)


def test_more_functions_than_objects():
    objects = generate_independent(9, 3, seed=86)
    functions = generate_preferences(25, 3, seed=87)
    single, sharded = assert_sharded_equals_single(
        objects, functions, shards=3,
    )
    assert len(sharded.pairs) == 9
    assert sorted(sharded.unmatched_functions) == sorted(
        single.unmatched_functions
    )


def test_duplicate_points_across_shards():
    # Identical points carry distinct ids; the canonical lowest-id rule
    # must survive the shard boundary.
    vectors = np.tile(
        np.linspace(0.1, 0.9, 5).reshape(5, 1), (4, 3)
    )
    objects = Dataset(vectors)
    functions = generate_preferences(8, 3, seed=88)
    assert_sharded_equals_single(objects, functions, shards=4)


@pytest.mark.parametrize("backend", ["disk", "memory"])
def test_capacitated_functions_spanning_shards(backend):
    objects = generate_independent(40, 3, seed=89)
    functions = generate_preferences(30, 3, seed=90)
    capacities = {object_id: object_id % 4 for object_id, _ in objects.items()}
    single = repro.match(objects, functions, backend=backend,
                         capacities=capacities)
    sharded = repro.match(objects, functions, backend=backend,
                          capacities=capacities, shards=5,
                          executor="serial")
    assert assignments(sharded) == assignments(single)
    assert sharded.is_capacitated
    for object_id, capacity in capacities.items():
        assert len(sharded.assignments_of(object_id)) <= capacity


@pytest.mark.parametrize("shards", [2, 3, 7])
def test_every_algorithm_agrees_when_sharded(shards):
    objects = generate_independent(80, 3, seed=91)
    functions = generate_preferences(14, 3, seed=92)
    reference = assignments(repro.match(objects, functions,
                                        backend="memory"))
    for algorithm in ("sb", "bf", "chain", "gs"):
        sharded = repro.match(
            objects, functions, backend="memory", algorithm=algorithm,
            shards=shards, executor="serial",
        )
        assert assignments(sharded) == reference, algorithm
        assert sharded.algorithm == f"sharded-{algorithm}"


# ----------------------------------------------------------------------
# RepairEngine hooks (the machinery the merge rides on)
# ----------------------------------------------------------------------
def _repair_engine(objects, functions, config=None):
    config = config or MatchingConfig(backend="memory",
                                      deletion_mode="filter")
    problem = get_backend(config.backend).build_problem(
        objects, functions, config
    )
    return RepairEngine(problem, config)


def test_seed_matching_then_release_restores_canonical():
    objects = generate_independent(30, 3, seed=93)
    functions = generate_preferences(6, 3, seed=94)
    reference = greedy_reference_matching(objects, functions)
    engine = _repair_engine(objects, functions)

    # A canonical *prefix* is a stable sub-matching of the full
    # instance (no later pair can block an earlier greedy pick), which
    # is exactly the contract seed_matching asks of its caller.
    seeded = [
        (pair.function_id, pair.object_id, pair.score)
        for pair in reference.pairs[:3]
    ]
    engine.seed_matching(seeded)
    assert len(engine.pairs()) == len(seeded)

    # Releasing the withheld canonical partners one chain at a time
    # must rebuild the full canonical matching: each released object is
    # won by a still-free function (possibly displacing along a chain).
    for pair in reference.pairs[3:]:
        engine.release_object(pair.object_id)
    got = sorted((p.function_id, p.object_id, p.score)
                 for p in engine.pairs())
    want = sorted((p.function_id, p.object_id, p.score)
                  for p in reference.pairs)
    assert got == want


def test_seed_matching_validates_its_input():
    objects = generate_independent(10, 3, seed=95)
    functions = generate_preferences(3, 3, seed=96)
    engine = _repair_engine(objects, functions)
    with pytest.raises(MatchingError, match="unknown function"):
        engine.seed_matching([(999, 0, 0.5)])
    with pytest.raises(MatchingError, match="unknown object"):
        engine.seed_matching([(0, 999, 0.5)])
    with pytest.raises(MatchingError, match="seeded twice"):
        engine.seed_matching([(0, 1, 0.5), (0, 2, 0.4)])
    with pytest.raises(MatchingError, match="seeded twice"):
        engine.seed_matching([(0, 1, 0.5), (1, 1, 0.4)])


def test_release_object_validates_its_input():
    objects = generate_independent(10, 3, seed=97)
    functions = generate_preferences(3, 3, seed=98)
    engine = _repair_engine(objects, functions)
    engine.full_rematch()
    with pytest.raises(MatchingError, match="unknown object"):
        engine.release_object(999)
    matched = next(iter(engine.matched_object))
    with pytest.raises(MatchingError, match="currently matched"):
        engine.release_object(matched)

"""Stability verification and blocking-pair detection."""

from repro.core import (
    Matching,
    MatchingProblem,
    MatchPair,
    SkylineMatcher,
    find_blocking_pairs,
    greedy_reference_matching,
    verify_stable_matching,
)
from repro.data import Dataset, generate_independent
from repro.prefs import LinearPreference, generate_preferences


def two_by_two():
    # Object 0 is better than object 1 everywhere; both functions prefer
    # it, and f1 (x-heavy) scores it highest: f1(o0)=0.88 > f0(o0)=0.85.
    objects = Dataset([[0.9, 0.8], [0.2, 0.1]])
    functions = [
        LinearPreference(0, (0.5, 0.5)),
        LinearPreference(1, (0.8, 0.2)),
    ]
    return objects, functions


def test_stable_matching_passes():
    objects, functions = two_by_two()
    # Stable assignment: the global best pair is (f1, o0); f0 takes o1.
    matching = Matching([
        MatchPair(1, 0, functions[1].score(objects.vector(0))),
        MatchPair(0, 1, functions[0].score(objects.vector(1))),
    ])
    assert find_blocking_pairs(matching, objects, functions) == []
    assert verify_stable_matching(matching, objects, functions)


def test_unstable_matching_detected():
    objects, functions = two_by_two()
    # Swap the assignment: (f1, o0) now blocks (both prefer each other).
    matching = Matching([
        MatchPair(1, 1, functions[1].score(objects.vector(1))),
        MatchPair(0, 0, functions[0].score(objects.vector(0))),
    ])
    blocking = find_blocking_pairs(matching, objects, functions)
    assert blocking
    pair = blocking[0]
    assert (pair.function_id, pair.object_id) == (1, 0)
    assert not verify_stable_matching(matching, objects, functions)


def test_missing_function_fails_shape_check():
    objects, functions = two_by_two()
    matching = Matching(
        [MatchPair(0, 0, functions[0].score(objects.vector(0)))],
        unmatched_functions=[],  # function 1 unaccounted for
    )
    assert not verify_stable_matching(matching, objects, functions)


def test_not_maximum_cardinality_fails():
    objects, functions = two_by_two()
    matching = Matching([], unmatched_functions=[0, 1])
    assert not verify_stable_matching(matching, objects, functions)


def test_unknown_object_fails():
    objects, functions = two_by_two()
    matching = Matching([
        MatchPair(0, 7, 0.5),
        MatchPair(1, 1, functions[1].score(objects.vector(1))),
    ])
    assert not verify_stable_matching(matching, objects, functions)


def test_limit_caps_reported_pairs():
    # An everything-blocked matching on a bigger instance.
    objects = generate_independent(30, 2, seed=170)
    functions = generate_preferences(10, 2, seed=171)
    worst = Matching(
        [
            MatchPair(f.fid, oid, -1.0)
            for f, oid in zip(functions, range(20, 30))
        ],
        unmatched_functions=[],
    )
    blocking = find_blocking_pairs(worst, objects, functions, limit=3)
    assert len(blocking) == 3


def test_real_matcher_output_verifies():
    objects = generate_independent(150, 3, seed=172)
    functions = generate_preferences(12, 3, seed=173)
    problem = MatchingProblem.build(objects, functions)
    matching = SkylineMatcher(problem).run()
    assert verify_stable_matching(matching, objects, functions)


def test_empty_inputs():
    objects = Dataset([[0.5]])
    assert find_blocking_pairs(Matching([]), objects, []) == []
    reference = greedy_reference_matching(objects, [])
    assert verify_stable_matching(reference, objects, [])


def test_a_planted_blocking_pair_is_rejected_on_sparse_ids():
    """Swap the objects of two matched functions in a served result on a
    catalog whose ids are not its rows: the first function's best pair
    now blocks, and verification must say so through the id map."""
    import repro

    base = generate_independent(400, 3, seed=174)
    objects = Dataset(base.matrix, ids=[7 + 13 * row for row in
                                        range(len(base))][::-1])
    functions = generate_preferences(16, 3, seed=175)
    result = repro.match(objects, functions, backend="memory")
    assert verify_stable_matching(result.to_matching(), objects, functions)
    first, second = result.pairs[:2]  # the two best pairs, in order
    by_fid = {f.fid: f for f in functions}
    planted = Matching(
        [MatchPair(first.function_id, second.object_id,
                   by_fid[first.function_id].score(
                       objects.vector(second.object_id))),
         MatchPair(second.function_id, first.object_id,
                   by_fid[second.function_id].score(
                       objects.vector(first.object_id)))]
        + result.pairs[2:],
        unmatched_functions=result.unmatched_functions,
    )
    blocking = find_blocking_pairs(planted, objects, functions,
                                   limit=len(functions) * len(objects))
    assert (first.function_id, first.object_id) in {
        (b.function_id, b.object_id) for b in blocking}
    assert not verify_stable_matching(planted, objects, functions)


def test_dataset_iteration_yields_ids_and_point_tuples():
    objects = Dataset([[0.25, 0.5], [1.0, -0.0]], ids=[9, 4])
    assert list(objects) == [(9, (0.25, 0.5)), (4, (1.0, -0.0))]
    assert list(objects.items()) == list(objects)
    assert objects.row_of(4) == 1 and objects.row_of(5) is None
    assert list(Dataset([[0.5]])) == [(0, (0.5,))]

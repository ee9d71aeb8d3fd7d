"""SB — the paper's skyline-based matcher — and its variants."""

import pytest

from repro.core import MatchingProblem, SkylineMatcher, greedy_reference_matching
from repro.data import (
    generate_anticorrelated,
    generate_correlated,
    generate_independent,
    generate_zillow,
)
from repro.errors import MatchingError
from repro.prefs import generate_preferences


def make_problem(n=400, dims=3, nf=25, generator=generate_independent,
                 seed=140):
    objects = generator(n, dims, seed=seed)
    functions = generate_preferences(nf, dims, seed=seed + 1)
    return MatchingProblem.build(objects, functions)


@pytest.mark.parametrize("generator", [
    generate_independent,
    generate_anticorrelated,
    generate_correlated,
])
def test_matches_greedy_reference(generator):
    problem = make_problem(generator=generator)
    matching = SkylineMatcher(problem).run()
    reference = greedy_reference_matching(problem.objects, problem.functions)
    assert matching.as_set() == reference.as_set()
    # Per-pair scores are bitwise identical (emission *order* differs:
    # SB emits all currently-mutual pairs per round, which is a
    # subsequence — not a prefix — of the greedy order).
    assert {p.function_id: p.score for p in matching.pairs} == {
        p.function_id: float(p.score) for p in reference.pairs
    }


def test_zillow_workload():
    objects = generate_zillow(500, seed=141)
    functions = generate_preferences(30, 5, seed=142)
    problem = MatchingProblem.build(objects, functions)
    matching = SkylineMatcher(problem).run()
    assert matching.as_set() == greedy_reference_matching(
        objects, functions
    ).as_set()


def test_sb_never_mutates_the_tree():
    problem = make_problem()
    SkylineMatcher(problem).run()
    assert problem.tree.num_objects == 400  # objects only leave the skyline


def test_multi_pair_fewer_rounds_than_single():
    problem_a = make_problem(nf=40, seed=143)
    problem_b = make_problem(nf=40, seed=143)
    multi = SkylineMatcher(problem_a, multi_pair=True)
    single = SkylineMatcher(problem_b, multi_pair=False)
    matched_multi = multi.run()
    matched_single = single.run()
    assert matched_multi.as_set() == matched_single.as_set()
    assert multi.rounds < single.rounds
    assert single.rounds == len(matched_single)  # one pair per round


def test_pairs_within_round_in_canonical_order():
    problem = make_problem(nf=40, seed=144)
    pairs = list(SkylineMatcher(problem).pairs())
    for earlier, later in zip(pairs, pairs[1:]):
        if earlier.round == later.round:
            assert (-earlier.score, earlier.function_id, earlier.object_id) < (
                -later.score, later.function_id, later.object_id
            )


@pytest.mark.parametrize("kwargs", [
    {"maintenance": "retraversal"},
    {"threshold": "naive"},
    {"cache_best": False},
    {"multi_pair": False, "maintenance": "retraversal"},
])
def test_all_variants_identical_matching(kwargs):
    problem_a = make_problem(generator=generate_anticorrelated, seed=145)
    problem_b = make_problem(generator=generate_anticorrelated, seed=145)
    default = SkylineMatcher(problem_a).run()
    variant = SkylineMatcher(problem_b, **kwargs).run()
    assert default.as_set() == variant.as_set()


def test_plist_maintenance_does_fewer_io_than_retraversal():
    problem_a = make_problem(n=2000, nf=60, seed=146)
    problem_b = make_problem(n=2000, nf=60, seed=146)
    SkylineMatcher(problem_a, maintenance="plist").run()
    io_plist = problem_a.io_stats.io_accesses
    SkylineMatcher(problem_b, maintenance="retraversal").run()
    io_retraversal = problem_b.io_stats.io_accesses
    assert io_plist < io_retraversal


def test_invalid_maintenance_mode():
    problem = make_problem(n=10, nf=2)
    with pytest.raises(MatchingError):
        SkylineMatcher(problem, maintenance="rebuild")


def test_invalid_threshold_mode():
    problem = make_problem(n=10, nf=2)
    with pytest.raises(MatchingError):
        SkylineMatcher(problem, threshold="loose")


def test_more_functions_than_objects():
    objects = generate_independent(12, 3, seed=147)
    functions = generate_preferences(30, 3, seed=148)
    problem = MatchingProblem.build(objects, functions)
    matching = SkylineMatcher(problem).run()
    assert len(matching) == 12
    assert len(matching.unmatched_functions) == 18
    assert matching.as_set() == greedy_reference_matching(
        objects, functions
    ).as_set()


def test_single_function_gets_its_top1():
    import numpy as np

    objects = generate_independent(200, 3, seed=149)
    functions = generate_preferences(1, 3, seed=150)
    problem = MatchingProblem.build(objects, functions)
    matching = SkylineMatcher(problem).run()
    scores = objects.matrix @ np.asarray(functions[0].weights)
    assert matching.pairs[0].object_id == int(np.argmax(scores))


def test_empty_sides():
    problem = MatchingProblem.build(generate_independent(5, 2, seed=151), [])
    assert len(SkylineMatcher(problem).run()) == 0
    problem = MatchingProblem.build(
        generate_independent(0, 2, seed=152),
        generate_preferences(4, 2, seed=153),
    )
    matching = SkylineMatcher(problem).run()
    assert len(matching) == 0
    assert len(matching.unmatched_functions) == 4


def test_duplicate_objects_matched_to_distinct_functions():
    from repro.data import Dataset

    # Five identical top objects: SB must hand them out one per function.
    vectors = [[0.9, 0.9]] * 5 + [[0.1, 0.1]] * 5
    objects = Dataset(vectors)
    functions = generate_preferences(5, 2, seed=154)
    problem = MatchingProblem.build(objects, functions)
    matching = SkylineMatcher(problem).run()
    assert len(matching) == 5
    assert {p.object_id for p in matching.pairs} == {0, 1, 2, 3, 4}
    assert matching.as_set() == greedy_reference_matching(
        objects, functions
    ).as_set()


def test_reverse_top1_queries_counted():
    problem = make_problem()
    matcher = SkylineMatcher(problem)
    matcher.run()
    assert matcher.reverse_top1_queries > 0


def test_cache_reduces_reverse_queries():
    problem_a = make_problem(nf=50, seed=155)
    problem_b = make_problem(nf=50, seed=155)
    cached = SkylineMatcher(problem_a, cache_best=True)
    uncached = SkylineMatcher(problem_b, cache_best=False)
    cached.run()
    uncached.run()
    assert cached.reverse_top1_queries < uncached.reverse_top1_queries

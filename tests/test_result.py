"""Matching result containers."""

import copy
import dataclasses
import pickle

import pytest

from repro.core import Matching, MatchPair
from repro.errors import MatchingError


def make_pairs():
    return [
        MatchPair(1, 10, 0.9, round=0, rank=0),
        MatchPair(2, 20, 0.8, round=0, rank=1),
        MatchPair(3, 30, 0.7, round=1, rank=2),
    ]


def test_lookup_tables():
    matching = Matching(make_pairs(), algorithm="test")
    assert len(matching) == 3
    assert matching.object_of(2) == 20
    assert matching.function_of(30) == 3
    assert matching.object_of(99) is None
    assert matching.function_of(99) is None
    assert matching.as_dict() == {1: 10, 2: 20, 3: 30}
    assert matching.as_set() == {(1, 10), (2, 20), (3, 30)}


def test_scores_and_rounds():
    matching = Matching(make_pairs())
    assert matching.total_score == pytest.approx(2.4)
    assert matching.mean_score == pytest.approx(0.8)
    assert matching.num_rounds == 2


def test_empty_matching():
    matching = Matching([], unmatched_functions=[1, 2])
    assert len(matching) == 0
    assert matching.mean_score == 0.0
    assert matching.num_rounds == 0
    assert matching.unmatched_functions == [1, 2]


def test_duplicate_function_rejected():
    pairs = [MatchPair(1, 10, 0.9), MatchPair(1, 20, 0.8)]
    with pytest.raises(MatchingError):
        Matching(pairs)


def test_duplicate_object_rejected():
    pairs = [MatchPair(1, 10, 0.9), MatchPair(2, 10, 0.8)]
    with pytest.raises(MatchingError):
        Matching(pairs)


def test_pairs_are_frozen():
    pair = MatchPair(1, 2, 0.5)
    with pytest.raises(AttributeError):
        pair.score = 0.9


def test_pairs_are_slotted_and_survive_pickle_and_copy():
    pair = MatchPair(1, 2, 0.5, round=3, rank=4)
    assert not hasattr(pair, "__dict__")  # no per-pair dict to hold
    for clone in (pickle.loads(pickle.dumps(pair)), copy.copy(pair),
                  copy.deepcopy(pair)):
        assert clone == pair and hash(clone) == hash(pair)
    assert dataclasses.replace(pair, score=0.7) == MatchPair(1, 2, 0.7, 3, 4)
    assert MatchPair(1, 2, 0.5) == MatchPair(1, 2, 0.5, round=0, rank=0)
    assert repr(pair) == (
        "MatchPair(function_id=1, object_id=2, score=0.5, round=3, rank=4)")


def test_iteration_order_is_emission_order():
    matching = Matching(make_pairs())
    assert [pair.rank for pair in matching] == [0, 1, 2]

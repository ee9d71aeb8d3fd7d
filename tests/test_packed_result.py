"""MatchResult keeps its pairs as packed records.

A served result is held by caches and callers, so it stores its pairs as
one immutable buffer of ``PAIR_RECORD`` records instead of a list of
``MatchPair`` objects. These tests pin what that must not change: the
pairs and their score bits, the construction checks and their messages,
pickling, the wire frames byte for byte, and the bytes a result holds.
"""

from __future__ import annotations

import copy
import gc
import json
import pickle
import struct
import tracemalloc

import numpy as np
import pytest

import repro
from repro.core import MatchPair
from repro.engine.batch import linear_batch_results
from repro.engine.result import PAIR_DTYPE, PAIR_RECORD, MatchResult
from repro.errors import CodecError, MatchingError
from repro.net.codec import decode_result, encode_result
from repro.storage import IOSnapshot

#: Scores whose bits a lossy store would change.
AWKWARD = (0.1 + 0.2, -0.0, 5e-324, 1.0, 0.0, 2.0 ** -1074 * 3)


def awkward_pairs():
    return [MatchPair(10 + i, 1000 - 7 * i, score, round=i // 2, rank=i)
            for i, score in enumerate(AWKWARD)]


def bits(score: float) -> bytes:
    return struct.pack("<d", score)


def test_pairs_is_a_new_equal_list_on_every_call():
    pairs = awkward_pairs()
    result = MatchResult(pairs)
    first, second = result.pairs, result.pairs
    assert first == second == pairs
    assert first is not second
    assert [bits(p.score) for p in first] == [bits(p.score) for p in pairs]
    assert list(result) == pairs and len(result) == len(pairs)
    assert result.packed == b"".join(
        PAIR_RECORD.pack(p.function_id, p.object_id, p.score, p.round,
                         p.rank) for p in pairs)
    columns = np.frombuffer(result.packed, dtype=PAIR_DTYPE)
    assert columns["score"].tobytes() == b"".join(
        bits(p.score) for p in pairs)


def test_accessors_read_the_packed_columns():
    pairs = awkward_pairs()
    result = MatchResult(pairs, unmatched_functions=[99])
    assert result.as_dict() == {p.function_id: p.object_id for p in pairs}
    assert result.as_set() == {(p.function_id, p.object_id) for p in pairs}
    assert result.object_of(12) == 986 and result.object_of(99) is None
    assert result.function_of(986) == 12 and result.function_of(1) is None
    assert result.assignments_of(993) == [11]
    assert result.usage == {p.object_id: 1 for p in pairs}
    assert bits(result.total_score) == bits(sum(p.score for p in pairs))
    assert result.num_rounds == 3
    assert MatchResult([]).num_rounds == 0 and MatchResult([]).pairs == []


def test_packed_and_pair_inputs_build_the_same_result():
    pairs = awkward_pairs()
    packed = MatchResult(pairs).packed
    again = MatchResult(packed, capacities={1000: 1})
    assert again.packed == packed and again.pairs == pairs
    with pytest.raises(MatchingError, match="whole 32-byte"):
        MatchResult(packed[:-1])


@pytest.mark.parametrize("clone", [
    lambda r: pickle.loads(pickle.dumps(r)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_round_trip(clone):
    result = MatchResult(
        awkward_pairs(), unmatched_functions=[3], unmatched_objects_count=5,
        algorithm="sb", backend="disk", capacities={1000: 2},
        io=IOSnapshot(1, 2, 3, 4, 5, 6), cpu_seconds=0.5, seed=9,
        stats={"rounds": 3})
    twin = clone(result)
    assert twin is not result
    for name in MatchResult.__slots__:
        assert getattr(twin, name) == getattr(result, name), name
    assert twin.pairs == result.pairs


def test_a_result_has_no_instance_dict():
    assert not hasattr(MatchResult([]), "__dict__")


#: The JSON the previous encoder (one list per pair, read off MatchPair
#: objects) wrote for ``golden_results()``.
GOLDEN = [
    '{"pairs": [[7, 4000, 0.30000000000000004, 0, 0], [3, 12, -0.0, 0, 1], '
    '[11, 9007199254740993, 5e-324, 2, 2], [2, 0, 1.0, 3, 3]], '
    '"unmatched_functions": [5, 1], "unmatched_objects_count": 17, '
    '"algorithm": "sb", "backend": "disk", "capacities": null, '
    '"io": {"page_reads": 9, "page_writes": 1, "buffer_hits": 30, '
    '"buffer_evictions": 2, "pages_allocated": 0, "pages_freed": 0}, '
    '"cpu_seconds": 0.0125, "seed": 42, '
    '"stats": {"rounds": 4, "reverse_top1_queries": 12}}',
    '{"pairs": [[7, 4000, 0.30000000000000004, 0, 0], [3, 12, -0.0, 0, 1], '
    '[9, 4000, 0.25, 1, 2]], "unmatched_functions": [], '
    '"unmatched_objects_count": 0, "algorithm": "chain", '
    '"backend": "memory", "capacities": [[8, 3], [12, 1], [4000, 2]], '
    '"io": null, "cpu_seconds": 0.0, "seed": null, "stats": {}}',
]


def golden_results():
    pairs = [MatchPair(7, 4000, 0.1 + 0.2, round=0, rank=0),
             MatchPair(3, 12, -0.0, round=0, rank=1),
             MatchPair(11, 9007199254740993, 5e-324, round=2, rank=2),
             MatchPair(2, 0, 1.0, round=3, rank=3)]
    one = MatchResult(
        pairs, unmatched_functions=[5, 1], unmatched_objects_count=17,
        algorithm="sb", backend="disk",
        io=IOSnapshot(page_reads=9, page_writes=1, buffer_hits=30,
                      buffer_evictions=2, pages_allocated=0, pages_freed=0),
        cpu_seconds=0.0125, seed=42,
        stats={"rounds": 4, "reverse_top1_queries": 12})
    capped = MatchResult(
        pairs[:2] + [MatchPair(9, 4000, 0.25, round=1, rank=2)],
        capacities={4000: 2, 12: 1, 8: 3}, algorithm="chain",
        backend="memory")
    return [one, capped]


def test_encode_writes_the_same_json_as_before():
    for result, golden in zip(golden_results(), GOLDEN):
        wire = json.dumps(encode_result(result))
        assert wire == golden
        clone = decode_result(json.loads(wire))
        assert clone.packed == result.packed
        assert json.dumps(encode_result(clone)) == golden


@pytest.mark.parametrize("pair", [
    MatchPair(2 ** 63, 1, 0.5),
    MatchPair(1, -2 ** 63 - 1, 0.5),
    MatchPair(1, 2, 0.5, round=2 ** 31),
    MatchPair(1, 2, 0.5, rank=-2 ** 31 - 1),
], ids=["function", "object", "round", "rank"])
def test_a_field_outside_its_width_raises_matching_error(pair):
    with pytest.raises(MatchingError, match="int64"):
        MatchResult([MatchPair(0, 0, 1.0), pair])


@pytest.mark.parametrize("pairs", [
    [[0, 1, 0.5, 0, 0, 0]],              # a sixth field
    [[0, 1, 0.5, 0]],                    # a missing field
    [[0.5, 1, 0.5, 0, 0]],               # a float id
    [[0, 2 ** 63, 0.5, 0, 0]],           # an id beyond int64
    [[0, 1, 0.5, 2 ** 31, 0]],           # a round beyond int32
    [[0, 1, None, 0, 0]],                # no score
    ["abcde"],                           # not a pair at all
    [[0, 1, 0.5, 0, 0], [0, 2, 0.4, 1, 1]],  # a function twice
    [[0, 1, 0.5, 0, 0], [1, 1, 0.4, 1, 1]],  # an object twice (1-1)
    7,                                   # not a list
], ids=["long", "short", "float-id", "big-id", "big-round", "no-score",
        "string", "duplicate-function", "duplicate-object", "scalar"])
def test_malformed_pairs_on_the_wire_raise_codec_error(pairs):
    with pytest.raises(CodecError):
        decode_result({"pairs": pairs})


def test_malformed_stats_on_the_wire_raise_codec_error():
    with pytest.raises(CodecError):
        decode_result({"pairs": [], "stats": [1, 2]})


@pytest.mark.parametrize("packed", [False, True], ids=["pairs", "packed"])
def test_checks_keep_their_messages(packed):
    def build(pairs, **kwargs):
        if packed:
            pairs = b"".join(PAIR_RECORD.pack(p.function_id, p.object_id,
                                              p.score, p.round, p.rank)
                             for p in pairs)
        return MatchResult(pairs, **kwargs)

    with pytest.raises(MatchingError,
                       match="^function 1 matched more than once$"):
        build([MatchPair(1, 2, 0.5), MatchPair(3, 4, 0.4),
               MatchPair(1, 5, 0.3)])
    with pytest.raises(MatchingError,
                       match="^object 2 assigned 2 times, capacity 1$"):
        build([MatchPair(1, 2, 0.5), MatchPair(3, 2, 0.4),
               MatchPair(1, 5, 0.3)])
    with pytest.raises(MatchingError,
                       match="^object 2 assigned 3 times, capacity 2$"):
        build([MatchPair(1, 2, 0.5), MatchPair(3, 2, 0.4),
               MatchPair(4, 2, 0.3)], capacities={2: 2})
    assert len(build([MatchPair(1, 2, 0.5), MatchPair(3, 2, 0.4)],
                     capacities={2: 2})) == 2


def test_a_vectorized_result_holds_under_1300_bytes():
    """One result of 16 functions over 4,000 objects, as the vectorized
    path builds it: measured as the traced bytes a batch of 8 leaves
    behind, over 25 batches."""
    objects = repro.generate_independent(4000, 4, seed=5)
    workloads = [repro.generate_preferences(16, 4, seed=100 + s)
                 for s in range(8)]
    linear_batch_results(objects, workloads)  # first-call allocations
    held = []
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(25):
            held.extend(linear_batch_results(objects, workloads,
                                             algorithm="batched-sb",
                                             backend="memory"))
        gc.collect()
        per_result = (tracemalloc.get_traced_memory()[0] - before) / len(held)
    finally:
        tracemalloc.stop()
    assert all(len(result) == 16 for result in held)
    # One batch's results share their stats dict and unmatched count.
    assert all(result.stats is held[0].stats for result in held[:8])
    assert per_result <= 1300, per_result

"""SkylineState: membership, plists, vectorized dominance index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionalityError, ReproError
from repro.rtree import Entry
from repro.skyline import SkylineState, pruned_items
from repro.skyline import state as state_module
from repro.skyline.state import KERNEL_CHUNK_ROWS, LEAD_MEMBERS


def test_add_and_lookup():
    state = SkylineState(2)
    state.add(5, (0.2, 0.8))
    assert 5 in state
    assert len(state) == 1
    assert state.point(5) == (0.2, 0.8)
    assert state.ids() == [5]


def test_duplicate_add_rejected():
    state = SkylineState(2)
    state.add(1, (0.1, 0.1))
    with pytest.raises(ReproError):
        state.add(1, (0.2, 0.2))


def test_remove_returns_plist():
    state = SkylineState(2)
    state.add(1, (0.9, 0.9))
    items = [(Entry.for_object(2, (0.5, 0.5)), 0),
             (Entry.for_object(3, (0.4, 0.6)), 0)]
    for item in items:
        state.park(1, item)
    # remove() hands back the member's parked entries, in order, as
    # plist chunks.
    assert pruned_items(state.remove(1)) == items
    assert 1 not in state
    with pytest.raises(ReproError):
        state.remove(1)


def test_first_dominator_insertion_order():
    state = SkylineState(2)
    state.add(10, (0.8, 0.8))
    state.add(4, (0.9, 0.9))
    # Both dominate; the earliest-admitted member wins ownership.
    assert state.first_dominator((0.5, 0.5)) == 10
    assert state.first_dominator((0.85, 0.85)) == 4
    assert state.first_dominator((0.95, 0.2)) is None


def test_first_dominator_includes_equality():
    state = SkylineState(2)
    state.add(1, (0.5, 0.5))
    assert state.first_dominator((0.5, 0.5)) == 1  # "equal or better"


def test_dominators_lists_all():
    state = SkylineState(2)
    state.add(1, (0.8, 0.8))
    state.add(2, (0.9, 0.6))
    state.add(3, (0.3, 0.9))
    assert state.dominators((0.2, 0.7)) == [1, 3]


def test_ids_and_matrix_stay_aligned_through_churn():
    rng = np.random.default_rng(34)
    state = SkylineState(3)
    alive = {}
    next_id = 0
    for _ in range(500):
        if alive and rng.random() < 0.45:
            victim = int(rng.choice(sorted(alive)))
            state.remove(victim)
            del alive[victim]
        else:
            point = tuple(rng.random(3))
            state.add(next_id, point)
            alive[next_id] = point
            next_id += 1
    ids = state.ids()
    matrix = state.matrix()
    assert len(ids) == len(alive) == matrix.shape[0]
    for row, object_id in enumerate(ids):
        assert tuple(matrix[row]) == alive[object_id]


def test_compaction_preserves_dominance_answers():
    state = SkylineState(2)
    for i in range(200):
        state.add(i, (i / 1000 + 0.4, 0.4))
    for i in range(0, 200, 2):
        state.remove(i)
    # Force growth/compaction paths.
    for i in range(200, 400):
        state.add(i, (0.001 * i, 0.2))
    probe = (0.41, 0.3)
    expected = [
        object_id for object_id in state.ids()
        if all(a >= b for a, b in zip(state.point(object_id), probe))
    ]
    assert state.dominators(probe) == expected


@pytest.mark.parametrize("point", [(0.5, 0.5), (0.1, 0.2, 0.3, 0.4), ()])
@pytest.mark.parametrize("members", [0, 2])
@pytest.mark.parametrize("method", [
    "dominated_members", "dominators", "first_dominator"])
def test_point_queries_reject_wrong_width(method, members, point):
    state = SkylineState(3)
    for object_id in range(members):
        state.add(object_id, (0.9 - object_id / 10, 0.2, 0.5))
    with pytest.raises(DimensionalityError):
        getattr(state, method)(point)


def test_park_appends_in_order():
    state = SkylineState(2)
    state.add(0, (1.0, 1.0))
    items = [(Entry.for_object(i, (0.1, 0.1)), 0) for i in range(3)]
    for item in items:
        state.park(0, item)
    assert state.plist(0) == items
    assert state.plist_sizes() == {0: 3}


def test_negative_id_rejected():
    # -1 is first_dominators()' "no dominator" marker.
    with pytest.raises(ReproError):
        SkylineState(2).add(-1, (0.5, 0.5))


# ----------------------------------------------------------------------
# first_dominators: the batched kernel against a one-row-at-a-time model
# ----------------------------------------------------------------------
# A coarse grid makes ties (equal coordinates, duplicate points) common.
grid = st.integers(min_value=0, max_value=3).map(lambda v: v / 3)


def reference_first_dominators(admitted, highs):
    """Per row: the earliest admitted member weakly dominating it, else -1."""
    owners = []
    for row in highs:
        owner = -1
        for object_id, point in admitted:
            if all(p >= h for p, h in zip(point, row)):
                owner = object_id
                break
        owners.append(owner)
    return owners


def assert_kernel_matches(state, admitted, highs):
    highs = np.asarray(highs, dtype=np.float64).reshape(-1, state.dims)
    owners = state.first_dominators(highs)
    assert owners.dtype == np.int64 and owners.shape == (len(highs),)
    assert owners.tolist() == reference_first_dominators(admitted, highs)
    for row, owner in zip(highs, owners.tolist()):
        assert state.first_dominator(row) == (None if owner < 0 else owner)


@settings(max_examples=80, deadline=None)
@given(dims=st.integers(min_value=1, max_value=4), data=st.data())
def test_first_dominators_match_reference_with_tombstones(dims, data):
    vectors = st.tuples(*([grid] * dims))
    points = data.draw(st.lists(vectors, max_size=40))
    kept = data.draw(st.lists(st.booleans(), min_size=len(points),
                              max_size=len(points)))
    highs = data.draw(st.lists(vectors, max_size=30))
    state = SkylineState(dims)
    for object_id, point in enumerate(points):
        state.add(object_id, point)
    for object_id, keep in enumerate(kept):
        if not keep:
            state.remove(object_id)  # leaves a tombstoned row
    admitted = [(i, p) for i, (p, keep) in enumerate(zip(points, kept)) if keep]
    # Probe with the members' own points too: equality is domination.
    assert_kernel_matches(state, admitted, highs + points)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_first_dominators_match_reference_after_compaction(data):
    vectors = st.tuples(grid, grid, grid)
    first = data.draw(st.lists(vectors, min_size=64, max_size=64))
    dropped = data.draw(st.sets(st.integers(0, 63), min_size=32))
    later = data.draw(st.lists(vectors, min_size=1, max_size=20))
    highs = data.draw(st.lists(vectors, max_size=30))
    state = SkylineState(3)
    for object_id, point in enumerate(first):
        state.add(object_id, point)
    for object_id in dropped:
        state.remove(object_id)
    # The 65th row finds the index full and half tombstones: compaction.
    for object_id, point in enumerate(later, start=64):
        state.add(object_id, point)
    assert state._size == 64 - len(dropped) + len(later)
    admitted = [(i, p) for i, p in enumerate(first) if i not in dropped]
    admitted += list(enumerate(later, start=64))
    assert_kernel_matches(state, admitted, highs + first + later)


def test_first_dominators_across_chunks():
    rng = np.random.default_rng(35)
    state = SkylineState(2)
    admitted = []
    for object_id in range(300):
        point = tuple(rng.integers(0, 6, 2) / 5)
        state.add(object_id, point)
        admitted.append((object_id, point))
    highs = rng.integers(0, 6, (2 * KERNEL_CHUNK_ROWS + 7, 2)) / 5
    assert_kernel_matches(state, admitted, highs)


@pytest.mark.parametrize("split_pairs", [0, 10 ** 9],
                         ids=["lead-pass", "one-pass"])
def test_first_dominators_lead_pass_is_exact(monkeypatch, split_pairs):
    monkeypatch.setattr(state_module, "LEAD_SPLIT_PAIRS", split_pairs)
    rng = np.random.default_rng(36)
    state = SkylineState(3)
    # Distinct points, weakest first: many rows fall through the lead
    # block, and each member is the first dominator of its own point.
    points = sorted({tuple(rng.integers(0, 5, 3) / 4) for _ in range(200)},
                    key=lambda point: (sum(point), point))
    for object_id, point in enumerate(points):
        state.add(object_id, point)
    # Tombstones inside and after the lead block.
    for object_id in range(0, len(points), 7):
        state.remove(object_id)
    admitted = [(i, p) for i, p in enumerate(points) if i % 7]
    assert len(admitted) > 2 * LEAD_MEMBERS
    highs = rng.integers(0, 5, (KERNEL_CHUNK_ROWS + 90, 3)) / 4
    # Each member's own point, which that member owns.
    members = np.array([point for _, point in admitted])
    assert_kernel_matches(state, admitted, np.vstack([highs, members]))


def test_first_dominators_empty_state_and_zero_rows():
    state = SkylineState(3)
    assert state.first_dominators(np.zeros((4, 3))).tolist() == [-1] * 4
    assert state.first_dominators(np.zeros((0, 3))).shape == (0,)
    state.add(0, (0.5, 0.5, 0.5))
    assert state.first_dominators(np.zeros((0, 3))).shape == (0,)
    state.remove(0)  # only a tombstone left
    assert state.first_dominators(np.zeros((2, 3))).tolist() == [-1, -1]


@pytest.mark.parametrize("highs", [
    np.zeros((2, 2)), np.zeros((2, 4)), np.zeros(3), np.zeros((1, 1, 3)),
])
def test_first_dominators_wrong_width_rejected(highs):
    state = SkylineState(3)
    state.add(0, (0.5, 0.5, 0.5))
    with pytest.raises(DimensionalityError):
        state.first_dominators(highs)


# ----------------------------------------------------------------------
# dominated_members: the coordinate-sum skip against the unfiltered scan
# ----------------------------------------------------------------------
#: Ties, signed zeros, and sums that round (0.1 + 0.2 > 0.3).
tie_coordinate = st.sampled_from(
    [-0.0, 0.0, 0.1, 0.2, 0.3, 1 / 3, 0.5, 2 / 3, 0.7, 1.0])


def unfiltered_dominated_members(members, point):
    """Every member weakly dominated by ``point``, in admission order."""
    return [object_id for object_id, member in members.items()
            if all(m <= p for m, p in zip(member, point))]


def assert_dominated_members_exact(state, members, probes):
    for probe in probes:
        expected = unfiltered_dominated_members(members, probe)
        assert state.dominated_members(probe) == expected
        assert state.dominated_members(np.asarray(probe)) == expected


@settings(max_examples=80, deadline=None)
@given(dims=st.integers(min_value=1, max_value=4), data=st.data())
def test_dominated_members_skip_equals_the_unfiltered_scan(dims, data):
    vectors = st.tuples(*([tie_coordinate] * dims))
    steps = data.draw(st.lists(
        st.tuples(st.sampled_from(["add", "add", "remove", "query"]),
                  vectors),
        max_size=60))
    state = SkylineState(dims)
    members = {}
    seen = []
    for object_id, (op, point) in enumerate(steps):
        seen.append(point)
        if op == "add":
            state.add(object_id, point)
            members[object_id] = point
        elif op == "remove" and members:
            victim = data.draw(st.sampled_from(sorted(members)))
            state.remove(victim)
            del members[victim]
        else:
            assert_dominated_members_exact(state, members, [point])
    # Every point drawn, members' own points (equal sums) included.
    assert_dominated_members_exact(state, members, seen)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_dominated_members_skip_is_exact_after_compaction(data):
    vectors = st.tuples(tie_coordinate, tie_coordinate, tie_coordinate)
    first = data.draw(st.lists(vectors, min_size=64, max_size=64))
    dropped = data.draw(st.sets(st.integers(0, 63), min_size=32))
    later = data.draw(st.lists(vectors, min_size=1, max_size=20))
    probes = data.draw(st.lists(vectors, max_size=20))
    state = SkylineState(3)
    for object_id, point in enumerate(first):
        state.add(object_id, point)
    for object_id in dropped:
        state.remove(object_id)
    # The 65th row finds the index full and half tombstones: compaction.
    for object_id, point in enumerate(later, start=64):
        state.add(object_id, point)
    assert state._size == 64 - len(dropped) + len(later)
    members = {i: p for i, p in enumerate(first) if i not in dropped}
    members.update(enumerate(later, start=64))
    assert_dominated_members_exact(state, members, probes + first + later)

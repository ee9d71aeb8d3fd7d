"""The insertion maintenance hook and excluded-aware BBS.

``update_after_insertion`` is the symmetric counterpart of the paper's
``UpdateSkyline``: it must keep a :class:`SkylineState` exact (members
*and* plist coverage) when objects join the pool, interleaved with
removals. ``excluded`` support on BBS/maintenance underpins the dynamic
session's logical deletes.
"""

import random

import pytest

from repro.data import generate_anticorrelated, generate_independent
from repro.errors import DimensionalityError
from repro.rtree import DiskNodeStore, MemoryNodeStore, RTree
from repro.skyline import (
    SkylineState,
    canonical_skyline_naive,
    compute_skyline,
    update_after_insertion,
    update_after_removal,
)
from repro.storage.stats import SearchStats


def oracle_ids(points):
    return [
        oid for oid, _ in canonical_skyline_naive(sorted(points.items()))
    ]


def test_insertions_match_oracle_incrementally():
    dataset = generate_independent(400, 3, seed=21)
    items = list(dataset.items())
    seed_items, streamed = items[:250], items[250:]
    tree = RTree.bulk_load(DiskNodeStore(3), 3, seed_items)
    state = compute_skyline(tree)
    pool = dict(seed_items)
    for object_id, point in streamed:
        pool[object_id] = point
        became_member = update_after_insertion(state, object_id, point)
        assert became_member == (object_id in state)
        assert sorted(state.ids()) == oracle_ids(pool)


def test_interleaved_insertions_and_removals_match_oracle():
    dataset = generate_anticorrelated(300, 3, seed=22)
    items = list(dataset.items())
    tree = RTree.bulk_load(DiskNodeStore(3), 3, items[:200])
    state = compute_skyline(tree)
    pool = dict(items[:200])
    arrivals = list(items[200:])
    rng = random.Random(23)
    for _ in range(120):
        if arrivals and (rng.random() < 0.5 or len(state) < 2):
            object_id, point = arrivals.pop()
            pool[object_id] = point
            update_after_insertion(state, object_id, point)
        else:
            victim = rng.choice(state.ids())
            del pool[victim]
            # Removal must resurface entries parked under the victim —
            # including ones parked there by the insertion hook.
            update_after_removal(tree, state, state.remove(victim))
        assert sorted(state.ids()) == oracle_ids(pool)


def test_insertion_duplicate_points_follow_id_rule():
    tree = RTree(MemoryNodeStore(8), dims=2)
    tree.insert(10, (0.6, 0.6))
    state = compute_skyline(tree)
    assert state.ids() == [10]
    # A duplicate with a higher id parks under the member...
    assert update_after_insertion(state, 20, (0.6, 0.6)) is False
    assert state.ids() == [10]
    # ...a duplicate with a lower id takes over the membership.
    assert update_after_insertion(state, 5, (0.6, 0.6)) is True
    assert sorted(state.ids()) == [5]
    # The demoted owner's coverage moved along: removing the new member
    # resurfaces both parked duplicates, lowest id first.
    update_after_removal(tree, state, state.remove(5))
    assert state.ids() == [10]


def test_insertion_hook_counts_stats():
    tree = RTree(MemoryNodeStore(8), dims=2)
    tree.insert(0, (0.9, 0.1))
    state = compute_skyline(tree)
    stats = SearchStats()
    update_after_insertion(state, 1, (0.1, 0.9), stats=stats)
    assert stats.dominance_checks > 0


def test_compute_skyline_excluded_equals_removal():
    dataset = generate_anticorrelated(300, 3, seed=24)
    tree = RTree.bulk_load(DiskNodeStore(3), 3, dataset.items())
    pool = dict(dataset.items())
    excluded = set(list(pool)[::7])
    state = compute_skyline(tree, excluded=excluded)
    for object_id in excluded:
        del pool[object_id]
    assert sorted(state.ids()) == oracle_ids(pool)


def test_update_after_removal_drops_excluded_orphans():
    dataset = generate_independent(200, 2, seed=25)
    tree = RTree.bulk_load(DiskNodeStore(2), 2, dataset.items())
    state = compute_skyline(tree)
    pool = dict(dataset.items())
    rng = random.Random(26)
    excluded = set()
    for _ in range(30):
        victim = rng.choice(state.ids())
        del pool[victim]
        excluded.add(victim)
        # Also logically exclude a random *non-member* survivor (e.g. a
        # matched object): it must never surface from any plist.
        bystanders = [
            oid for oid in pool if oid not in excluded and oid not in state
        ]
        if bystanders:
            excluded.add(rng.choice(bystanders))
        update_after_removal(tree, state, state.remove(victim),
                             excluded=excluded)
        expected = {oid: p for oid, p in pool.items() if oid not in excluded}
        assert sorted(state.ids()) == oracle_ids(expected)


@pytest.mark.parametrize("members", [0, 3])
def test_insertion_of_a_short_point_raises_dimensionality_error(members):
    state = SkylineState(3)
    for object_id in range(members):
        state.add(object_id, (0.1 * object_id, 0.5, 0.9 - 0.1 * object_id))
    with pytest.raises(DimensionalityError):
        update_after_insertion(state, 99, (0.5, 0.5))
    assert 99 not in state and len(state) == members

"""Batched dominance tests are exact: the per-entry loops they replaced.

BBS node expansion and plist maintenance test every entry of one node,
or of one orphaned plist, with a single
:meth:`~repro.skyline.SkylineState.first_dominators` call. The loops
below are the earlier per-entry bodies, each entry tested on its own by
a plain Python scan of the members in admission order. On seeded disk
and memory trees both versions must leave the same members in the same
order, the same plists (owner and order), and the same search and I/O
counters.
"""

import heapq
import random
from dataclasses import asdict

import pytest

from repro.data import generate_anticorrelated, generate_independent
from repro.geometry import MBR
from repro.rtree import DiskNodeStore, Entry, MemoryNodeStore, RTree
from repro.skyline import (
    SkylineState,
    compute_skyline,
    pruned_items,
    recompute_with_pruning,
    update_after_removal,
)
from repro.skyline.bbs import _admit_point, push_entry
from repro.storage import BufferPool, DiskManager, SearchStats


# ----------------------------------------------------------------------
# Reference: one dominance test per entry
# ----------------------------------------------------------------------
def first_dominator(state, point):
    for object_id, member in state.items():
        if all(m >= p for m, p in zip(member, point)):
            return object_id
    return None


def pop_entry(heap):
    """Pop a heap item as ``(is_point, child, level, entry)``."""
    _key, is_point, child, level, low, high = heapq.heappop(heap)
    return is_point, child, level, Entry(MBR(low, high), child)


def reference_bbs_loop(tree, heap, state, stats, excluded=None):
    admitted = []
    while heap:
        is_point, child, level, entry = pop_entry(heap)
        stats.heap_pops += 1
        stats.dominance_checks += 1
        if is_point and excluded is not None and child in excluded:
            continue
        owner = first_dominator(state, entry.mbr.high)
        if owner is not None:
            state.park(owner, (entry, level))
            continue
        if is_point:
            _admit_point(state, child, entry.mbr.low)
            admitted.append(child)
            continue
        node = tree.read_node(child)
        for sub_entry in node.entries:
            if (
                node.level == 0
                and excluded is not None
                and sub_entry.child in excluded
            ):
                continue
            stats.dominance_checks += 1
            owner = first_dominator(state, sub_entry.mbr.high)
            if owner is not None:
                state.park(owner, (sub_entry, node.level))
            else:
                push_entry(heap, sub_entry, node.level, stats)
    return [object_id for object_id in admitted if object_id in state]


def reference_compute_skyline(tree, stats, excluded=None):
    state = SkylineState(tree.dims)
    heap = []
    root = tree.read_root()
    for entry in root.entries:
        if root.level == 0 and excluded is not None and entry.child in excluded:
            continue
        push_entry(heap, entry, root.level, stats)
    reference_bbs_loop(tree, heap, state, stats, excluded=excluded)
    return state


def reference_update_after_removal(tree, state, orphaned, stats,
                                   excluded=None):
    heap = []
    for entry, level in orphaned:
        if level == 0 and excluded is not None and entry.child in excluded:
            continue
        stats.dominance_checks += 1
        owner = first_dominator(state, entry.mbr.high)
        if owner is not None:
            state.park(owner, (entry, level))
        else:
            push_entry(heap, entry, level, stats)
    return reference_bbs_loop(tree, heap, state, stats, excluded=excluded)


def reference_recompute_with_pruning(tree, state, excluded, stats):
    heap = []
    root = tree.read_root()
    for entry in root.entries:
        push_entry(heap, entry, root.level, stats)
    admitted = []
    while heap:
        is_point, child, level, entry = pop_entry(heap)
        stats.heap_pops += 1
        stats.dominance_checks += 1
        if is_point and child in excluded:
            continue
        if first_dominator(state, entry.mbr.high) is not None:
            continue
        if is_point:
            for victim in state.dominated_members(entry.mbr.low):
                state.remove(victim)
                if victim in admitted:
                    admitted.remove(victim)
            state.add(child, entry.mbr.low)
            admitted.append(child)
            continue
        node = tree.read_node(child)
        for sub_entry in node.entries:
            stats.dominance_checks += 1
            if node.level == 0 and sub_entry.child in excluded:
                continue
            if first_dominator(state, sub_entry.mbr.high) is None:
                push_entry(heap, sub_entry, node.level, stats)
    return admitted


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
GENERATORS = {
    "independent": generate_independent,
    "anticorrelated": generate_anticorrelated,
}


def build(backend, dataset):
    """A fresh tree plus its I/O counters (``None`` for memory)."""
    if backend == "disk":
        disk = DiskManager()
        # A small buffer, so that evictions and re-reads happen.
        store = DiskNodeStore(dataset.dims, disk, BufferPool(disk, capacity=6))
    else:
        disk, store = None, MemoryNodeStore(fanout=8)
    tree = RTree.bulk_load(store, dataset.dims, dataset.items())
    return tree, disk


def snapshot(state):
    """Members in admission order, each with its plist in order."""
    return [(object_id, state.point(object_id), list(state.plist(object_id)))
            for object_id in state.ids()]


def io_counters(disk):
    return None if disk is None else asdict(disk.stats)


def run(backend, dataset, excluded, batched):
    """compute_skyline, then removal rounds; the observable trail."""
    tree, disk = build(backend, dataset)
    stats = SearchStats()
    excluded = set(excluded) if excluded is not None else None
    if batched:
        state = compute_skyline(tree, stats=stats, excluded=excluded)
    else:
        state = reference_compute_skyline(tree, stats, excluded=excluded)
    trail = [(snapshot(state), asdict(stats), io_counters(disk))]
    rng = random.Random(9)
    for _ in range(6):
        victims = rng.sample(state.ids(), min(len(state), rng.randint(1, 3)))
        orphaned = []
        for victim in victims:
            chunks = state.remove(victim)
            # The reference loop walks the orphans entry by entry.
            orphaned.extend(chunks if batched else pruned_items(chunks))
        if excluded is not None:
            # Victims leave for good; so do some objects parked in plists
            # (assigned or deleted elsewhere), which must not come back.
            excluded.update(victims)
            others = sorted(set(range(len(dataset))) - set(state.ids()))
            excluded.update(rng.sample(others, 100))
        if batched:
            admitted = update_after_removal(tree, state, orphaned,
                                            stats=stats, excluded=excluded)
        else:
            admitted = reference_update_after_removal(
                tree, state, orphaned, stats, excluded=excluded)
        trail.append((victims, admitted, snapshot(state), asdict(stats),
                      io_counters(disk)))
    return trail


@pytest.mark.parametrize("with_excluded", [False, True])
@pytest.mark.parametrize("generator", sorted(GENERATORS))
@pytest.mark.parametrize("backend", ["disk", "memory"])
def test_batched_bbs_and_maintenance_match_per_entry_loops(
        backend, generator, with_excluded):
    dataset = GENERATORS[generator](1500, 3, seed=71)
    excluded = None
    if with_excluded:
        excluded = set(random.Random(5).sample(range(len(dataset)), 150))
    batched = run(backend, dataset, excluded, batched=True)
    reference = run(backend, dataset, excluded, batched=False)
    assert batched == reference
    assert len(batched[0][0]) > 5  # a non-trivial skyline was compared


@pytest.mark.parametrize("generator", sorted(GENERATORS))
@pytest.mark.parametrize("backend", ["disk", "memory"])
def test_batched_retraversal_matches_per_entry_loop(backend, generator):
    dataset = GENERATORS[generator](1500, 3, seed=72)
    trails = []
    for recompute in (recompute_with_pruning, reference_recompute_with_pruning):
        tree, disk = build(backend, dataset)
        stats = SearchStats()
        state = compute_skyline(tree)
        excluded = set()
        rng = random.Random(4)
        trail = []
        for _ in range(5):
            for victim in rng.sample(state.ids(), min(len(state), 2)):
                state.remove(victim)
                excluded.add(victim)
            admitted = recompute(tree, state, excluded, stats)
            trail.append((admitted, state.ids(), asdict(stats),
                          io_counters(disk)))
        trails.append(trail)
    assert trails[0] == trails[1]

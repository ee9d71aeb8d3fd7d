"""Branch-and-bound skyline (BBS) over the R-tree, with plist tracking.

BBS (Papadias et al., TODS 2005) pops R-tree entries from a min-heap keyed
by the L1 distance of their best corner to the ideal point. Because a
point's dominators always have strictly smaller keys, every popped point
that survives a dominance check against the current skyline *is* a skyline
member, and the traversal reads only nodes whose box is not dominated —
the I/O-optimal behaviour the paper leans on.

Following Section IV-B of the paper, this implementation additionally
records every pruned entry in the pruned list (``plist``) of exactly one
dominating skyline member — the earliest-admitted one — so that skyline
maintenance after a member is removed never restarts from the root (see
:mod:`repro.skyline.maintenance`).
"""

from __future__ import annotations

import heapq
from typing import AbstractSet, List, Optional, Sequence, Tuple

import numpy as np

from ..rtree.entry import Entry
from ..rtree.tree import RTree
from ..storage.stats import SearchStats
from .state import PrunedItem, SkylineState

#: Heap item: (mindist key, is_point, child id, containing-node level, entry).
#: Branches pop before equal-key points; equal-key points pop by object id.
HeapItem = Tuple[float, int, int, int, Entry]


def push_entry(heap: List[HeapItem], entry: Entry, node_level: int,
               stats: Optional[SearchStats] = None) -> None:
    """Push one R-tree entry (from a node at ``node_level``) onto the heap."""
    key = entry.mbr.mindist_to_best()
    is_point = 1 if node_level == 0 else 0
    heapq.heappush(heap, (key, is_point, entry.child, node_level, entry))
    if stats is not None:
        stats.heap_pushes += 1


def park_or_push(state: SkylineState, heap: List[HeapItem],
                 items: Sequence[PrunedItem],
                 stats: Optional[SearchStats] = None) -> None:
    """Park each ``(entry, level)`` under its earliest dominator, or push it.

    All items are tested in one :meth:`SkylineState.first_dominators`
    call. That is exact because parking and pushing never change the
    skyline's members, so every item sees the state the first one saw.
    """
    if not items:
        return
    if stats is not None:
        stats.dominance_checks += len(items)
    owners = state.first_dominators(
        np.array([entry.mbr.high for entry, _ in items], dtype=np.float64))
    for item, owner in zip(items, owners.tolist()):
        if owner < 0:
            push_entry(heap, item[0], item[1], stats)
        else:
            state.park(owner, item)


def bbs_loop(tree: RTree, heap: List[HeapItem], state: SkylineState,
             stats: Optional[SearchStats] = None,
             excluded: Optional[AbstractSet[int]] = None) -> List[int]:
    """Drain ``heap`` in BBS order, growing ``state``.

    Every popped entry is either parked in the plist of its earliest
    dominator or, if undominated, admitted (points) or expanded
    (branches, costing one node read each). Returns the ids admitted
    during this call, in admission order.

    ``excluded`` object ids are skipped entirely: they are neither
    admitted nor parked, so they silently vanish from the skyline's
    coverage. Callers that may later un-exclude an id (e.g. a matched
    object freed again) must re-introduce it explicitly with
    :func:`~repro.skyline.maintenance.update_after_insertion`.
    """
    admitted: List[int] = []
    while heap:
        _key, is_point, child, level, entry = heapq.heappop(heap)
        if stats is not None:
            stats.heap_pops += 1
            stats.dominance_checks += 1
        if is_point and excluded is not None and child in excluded:
            continue
        owner = state.first_dominator(entry.mbr.high)
        if owner is not None:
            state.park(owner, (entry, level))
            continue
        if is_point:
            _admit_point(state, child, entry)
            admitted.append(child)
            continue
        node = tree.read_node(child)
        entries = node.entries
        if node.level == 0 and excluded is not None:
            entries = [e for e in entries if e.child not in excluded]
        park_or_push(state, heap, [(e, node.level) for e in entries], stats)
    return [object_id for object_id in admitted if object_id in state]


def _admit_point(state: SkylineState, object_id: int, entry: Entry) -> None:
    """Add a popped, undominated point; demote members it dominates.

    In exact arithmetic a member can never be dominated by a later pop
    (the dominator's heap key is strictly smaller). With floats, a strict
    dominator's key may round to a tie and pop second; the demotion keeps
    the skyline honest in that corner case, moving the victim and its
    pruned list under the new member.
    """
    point = entry.mbr.low
    victims = state.dominated_members(point)
    state.add(object_id, point)
    for victim in victims:
        victim_entry = Entry.for_object(victim, state.point(victim))
        orphaned = state.remove(victim)
        state.park(object_id, (victim_entry, 0))
        for item in orphaned:
            state.park(object_id, item)


def compute_skyline(tree: RTree, stats: Optional[SearchStats] = None,
                    excluded: Optional[AbstractSet[int]] = None) -> SkylineState:
    """Full BBS run over ``tree``: the paper's ``ComputeSkyline``.

    The returned state carries the plists needed for incremental
    maintenance; reads go through the tree's store, so buffer misses are
    counted as I/O. ``excluded`` ids (e.g. already-assigned objects) are
    ignored as if absent from the tree.
    """
    state = SkylineState(tree.dims)
    heap: List[HeapItem] = []
    root = tree.read_root()
    for entry in root.entries:
        if root.level == 0 and excluded is not None and entry.child in excluded:
            continue
        push_entry(heap, entry, root.level, stats)
    bbs_loop(tree, heap, state, stats, excluded=excluded)
    return state

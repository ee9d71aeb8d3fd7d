"""Incremental skyline maintenance after member removal (Section IV-B).

When the matcher assigns a skyline object and removes it, the skyline must
be refreshed over the *remaining* objects. Re-running BBS from the root
would repeat work; instead, every entry ever pruned is parked in the plist
of exactly one dominating member, so on removal only the removed members'
plists need re-examination:

* an orphaned entry dominated by a surviving member moves to that member's
  plist (no I/O);
* otherwise it joins the candidate heap, ordered by distance to the best
  corner, and the standard BBS loop resumes from there — reading only the
  nodes that were exclusively shadowed by the removed members.

:func:`recompute_with_pruning` is the baseline this optimization is
measured against in the maintenance ablation: the straightforward
suggestion of Papadias et al. to re-traverse the tree each time, pruning
with the current skyline.
"""

from __future__ import annotations

import heapq
from typing import AbstractSet, Iterable, List, Optional, Set

import numpy as np

from ..rtree.tree import RTree
from ..storage.stats import SearchStats
from .bbs import (
    HeapItem,
    _admit_point,
    bbs_loop,
    leaf_rows,
    park_or_push_rows,
    push_root,
    push_rows,
)
from .state import PrunedChunk, SkylineState, pruned_rows


def update_after_removal(tree: RTree, state: SkylineState,
                         orphaned: Iterable[PrunedChunk],
                         stats: Optional[SearchStats] = None,
                         excluded: Optional[AbstractSet[int]] = None,
                         ) -> List[int]:
    """The paper's ``UpdateSkyline``: reinstate coverage of orphaned entries.

    ``orphaned`` is the concatenation of the plists of the members removed
    in this round (one or several — Section IV-C removes multiple members
    per loop), as :meth:`SkylineState.remove` returned them. Returns the
    newly admitted member ids. ``excluded`` object ids (assigned or
    logically deleted) are dropped instead of reinstated.
    """
    heap: List[HeapItem] = []
    rows = pruned_rows(orphaned)
    if rows is not None:
        children, levels, lows, highs = rows
        if excluded:
            keep = [level != 0 or child not in excluded for child, level
                    in zip(children.tolist(), levels.tolist())]
            if not all(keep):
                kept = np.flatnonzero(keep)
                children, levels = children[kept], levels[kept]
                lows, highs = lows[kept], highs[kept]
        park_or_push_rows(state, heap, children, levels, lows, highs, stats)
    return bbs_loop(tree, heap, state, stats, excluded=excluded)


def update_after_insertion(state: SkylineState, object_id: int,
                           point: Iterable[float],
                           stats: Optional[SearchStats] = None) -> bool:
    """Maintain a skyline when one object *joins* the indexed pool.

    The symmetric counterpart of :func:`update_after_removal`, needed by
    dynamic workloads where objects arrive (streaming inserts) or return
    (an assigned object freed by preference churn). No tree access is
    required: the new point either

    * is weakly dominated by a current member — it is parked in the
      earliest such member's plist (duplicate coordinates follow the
      canonical id rule: the lower id owns the higher), or
    * joins the skyline, demoting any members it dominates into its own
      plist, exactly as a BBS admission would.

    Returns ``True`` when the object became a skyline member.
    """
    point = tuple(float(value) for value in point)
    if stats is not None:
        stats.dominance_checks += 1
    for owner in state.dominators(point):
        if state.point(owner) != point or owner < object_id:
            state.park_row(owner, object_id, 0, point, point)
            return False
    _admit_point(state, object_id, point)
    return True


def recompute_with_pruning(tree: RTree, state: SkylineState,
                           excluded: Set[int],
                           stats: Optional[SearchStats] = None) -> List[int]:
    """Ablation baseline: refresh the skyline by a full pruned re-traversal.

    Runs BBS from the root against the members already in ``state``,
    skipping objects in ``excluded`` (already assigned). Entries dominated
    by current members are simply discarded — without plists there is
    nothing to park them under. Newly found members are added to ``state``
    and returned.
    """
    heap: List[HeapItem] = []
    push_root(tree, heap, stats)

    admitted: List[int] = []
    while heap:
        _key, is_point, child, _level, low, high = heapq.heappop(heap)
        if stats is not None:
            stats.heap_pops += 1
            stats.dominance_checks += 1
        if is_point and child in excluded:
            continue
        if state.first_dominator(high) is not None:
            continue
        if is_point:
            # Drop members this point dominates (float key-tie corner
            # case; see bbs._admit_point). Without plists they are simply
            # rediscovered by the next re-traversal. A victim admitted
            # earlier in this same pass is no longer a member, so it
            # must leave the admitted list too.
            for victim in state.dominated_members(low):
                state.remove(victim)
                try:
                    admitted.remove(victim)
                except ValueError:
                    pass
            state.add(child, low)
            admitted.append(child)
            continue
        node = tree.read_node(child)
        children, lows, highs = node.arrays()
        if stats is not None:
            stats.dominance_checks += len(children)
        if node.level == 0:
            children, lows, highs = leaf_rows(children, lows, highs, excluded)
        if not len(children):
            continue
        owners = state.first_dominators(highs)
        push_rows(heap, np.flatnonzero(owners < 0), children, node.level,
                  lows, highs, stats)
    return admitted

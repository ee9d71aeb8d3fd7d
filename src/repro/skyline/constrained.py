"""Constrained skyline: the skyline within an axis-aligned region.

One of the BBS variants of Papadias et al. [5]: return the skyline of
only those objects falling inside a constraint box (e.g. "hotels between
100 and 200 EUR"). The traversal prunes entries disjoint from the region
and applies dominance only among in-region objects; like plain BBS it is
progressive and reads only undominated, region-intersecting subtrees.

The returned state carries plists (of region-intersecting entries), so
constrained skylines support incremental maintenance too — but through
:func:`constrained_update_after_removal`, which keeps filtering by the
region while it expands orphaned subtrees (the generic maintenance of
:mod:`repro.skyline.maintenance` would happily admit out-of-region
points).
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional

import numpy as np

from ..errors import DimensionalityError
from ..geometry import MBR
from ..rtree.tree import RTree
from ..storage.stats import SearchStats
from .bbs import HeapItem, _admit_point, park_or_push_rows, push_rows
from .state import PrunedChunk, SkylineState, pruned_rows


def _intersecting(region: MBR, lows: np.ndarray,
                  highs: np.ndarray) -> np.ndarray:
    """Indices of the rows whose box meets ``region`` (as MBR.intersects)."""
    hit = (region.low[0] <= highs[:, 0]) & (lows[:, 0] <= region.high[0])
    for dim in range(1, region.dims):
        hit &= (region.low[dim] <= highs[:, dim]) & (
            lows[:, dim] <= region.high[dim])
    return np.flatnonzero(hit)


def _constrained_loop(tree: RTree, region: MBR, heap: List[HeapItem],
                      state: SkylineState,
                      stats: Optional[SearchStats] = None) -> List[int]:
    """BBS drain restricted to ``region``; returns admitted ids."""
    admitted: List[int] = []
    while heap:
        _key, is_point, child, level, low, high = heapq.heappop(heap)
        if stats is not None:
            stats.heap_pops += 1
            stats.dominance_checks += 1
        if is_point and not region.contains_point(low):
            continue
        owner = state.first_dominator(high)
        if owner is not None:
            state.park_row(owner, child, level, low, high)
            continue
        if is_point:
            _admit_point(state, child, low)
            admitted.append(child)
            continue
        node = tree.read_node(child)
        children, lows, highs = node.arrays()
        if not len(children):
            continue
        rows = _intersecting(region, lows, highs)
        park_or_push_rows(state, heap, children[rows], node.level,
                          lows[rows], highs[rows], stats)
    return [object_id for object_id in admitted if object_id in state]


def constrained_skyline(tree: RTree, region: MBR,
                        stats: Optional[SearchStats] = None) -> SkylineState:
    """The canonical skyline of the objects inside ``region``."""
    if region.dims != tree.dims:
        raise DimensionalityError(tree.dims, region.dims, "region")
    state = SkylineState(tree.dims)
    heap: List[HeapItem] = []
    root = tree.read_root()
    children, lows, highs = root.arrays()
    if len(children):
        push_rows(heap, _intersecting(region, lows, highs), children,
                  root.level, lows, highs, stats)
    _constrained_loop(tree, region, heap, state, stats)
    return state


def constrained_update_after_removal(
    tree: RTree, region: MBR, state: SkylineState,
    orphaned: Iterable[PrunedChunk],
    stats: Optional[SearchStats] = None,
) -> List[int]:
    """Region-aware ``UpdateSkyline`` for constrained skyline states.

    Same plist mechanics as the unconstrained maintenance, but orphaned
    subtrees are expanded under the region filter so out-of-region
    points can neither join the skyline nor shadow in-region candidates.
    """
    heap: List[HeapItem] = []
    rows = pruned_rows(orphaned)
    if rows is not None:
        children, levels, lows, highs = rows
        kept = _intersecting(region, lows, highs)
        park_or_push_rows(state, heap, children[kept], levels[kept],
                          lows[kept], highs[kept], stats)
    return _constrained_loop(tree, region, heap, state, stats)

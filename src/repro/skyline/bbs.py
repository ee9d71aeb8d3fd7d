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
from typing import AbstractSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..rtree.entry import Entry
from ..rtree.tree import RTree
from ..storage.stats import SearchStats
from .state import SkylineState

#: Heap item: (mindist key, is_point, child id, containing-node level,
#: low corner, high corner), the corners as float tuples. Branches pop
#: before equal-key points; equal-key points pop by object id. Items carry
#: the corners rather than an :class:`~repro.rtree.entry.Entry`, so rows
#: pushed from node arrays need no entry objects.
HeapItem = Tuple[float, int, int, int, Tuple[float, ...], Tuple[float, ...]]

#: A row's node level: one int for rows of one node, or an (n,) array.
Levels = Union[int, np.ndarray]


def push_entry(heap: List[HeapItem], entry: Entry, node_level: int,
               stats: Optional[SearchStats] = None) -> None:
    """Push one R-tree entry (from a node at ``node_level``) onto the heap."""
    key = entry.mbr.mindist_to_best()
    is_point = 1 if node_level == 0 else 0
    heapq.heappush(heap, (key, is_point, entry.child, node_level,
                          entry.mbr.low, entry.mbr.high))
    if stats is not None:
        stats.heap_pushes += 1


def push_rows(heap: List[HeapItem], rows: np.ndarray, children: np.ndarray,
              levels: Levels, lows: np.ndarray, highs: np.ndarray,
              stats: Optional[SearchStats] = None) -> None:
    """:func:`push_entry` for the ``rows`` (indices) of node-style arrays.

    Every key is computed in one pass, column by column from the left,
    which is :meth:`~repro.geometry.MBR.mindist_to_best`'s left-to-right
    sum, bit for bit; no key is computed with a reduction, whose
    summation order numpy chooses.
    """
    if not len(rows):
        return
    row_highs = highs[rows]
    keys = 1.0 - row_highs[:, 0]
    for dim in range(1, row_highs.shape[1]):
        keys += 1.0 - row_highs[:, dim]
    high_corners = [tuple(high) for high in row_highs.tolist()]
    low_corners = high_corners if lows is highs else [
        tuple(low) for low in lows[rows].tolist()]
    if isinstance(levels, np.ndarray):
        row_levels = levels[rows].tolist()
    else:
        row_levels = [int(levels)] * len(rows)
    for key, child, level, low, high in zip(
            keys.tolist(), children[rows].tolist(), row_levels,
            low_corners, high_corners):
        heapq.heappush(heap, (key, 1 if level == 0 else 0, child, level,
                              low, high))
    if stats is not None:
        stats.heap_pushes += len(rows)


def park_or_push_rows(state: SkylineState, heap: List[HeapItem],
                      children: np.ndarray, levels: Levels,
                      lows: np.ndarray, highs: np.ndarray,
                      stats: Optional[SearchStats] = None) -> None:
    """Park each row under its earliest dominator, or push it.

    All rows are tested in one :meth:`SkylineState.first_dominators`
    call. That is exact because parking and pushing never change the
    skyline's members, so every row sees the state the first one saw.
    """
    if not len(children):
        return
    if stats is not None:
        stats.dominance_checks += len(children)
    owners = state.first_dominators(highs)
    state.park_rows(owners, children, levels, lows, highs)
    push_rows(heap, np.flatnonzero(owners < 0), children, levels, lows,
              highs, stats)


def leaf_rows(children: np.ndarray, lows: np.ndarray, highs: np.ndarray,
              excluded: Optional[AbstractSet[int]],
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leaf arrays without the rows of ``excluded`` object ids."""
    if not excluded:
        return children, lows, highs
    keep = [child not in excluded for child in children.tolist()]
    if all(keep):
        return children, lows, highs
    rows = np.flatnonzero(keep)
    kept_highs = highs[rows]
    return (children[rows],
            kept_highs if lows is highs else lows[rows], kept_highs)


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
        _key, is_point, child, level, low, high = heapq.heappop(heap)
        if stats is not None:
            stats.heap_pops += 1
            stats.dominance_checks += 1
        if is_point and excluded is not None and child in excluded:
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
        if node.level == 0:
            children, lows, highs = leaf_rows(children, lows, highs, excluded)
        park_or_push_rows(state, heap, children, node.level, lows, highs,
                          stats)
    return [object_id for object_id in admitted if object_id in state]


def _admit_point(state: SkylineState, object_id: int,
                 point: Sequence[float]) -> None:
    """Add a popped, undominated point; demote members it dominates.

    In exact arithmetic a member can never be dominated by a later pop
    (the dominator's heap key is strictly smaller). With floats, a strict
    dominator's key may round to a tie and pop second; the demotion keeps
    the skyline honest in that corner case, moving the victim and its
    pruned list under the new member.
    """
    victims = state.dominated_members(point)
    state.add(object_id, point)
    for victim in victims:
        state.demote(victim, object_id)


def push_root(tree: RTree, heap: List[HeapItem],
              stats: Optional[SearchStats] = None,
              excluded: Optional[AbstractSet[int]] = None) -> None:
    """Push every entry of the root (no dominance test: nothing is
    admitted yet), skipping ``excluded`` objects in a leaf root."""
    root = tree.read_root()
    children, lows, highs = root.arrays()
    if root.level == 0:
        children, lows, highs = leaf_rows(children, lows, highs, excluded)
    push_rows(heap, np.arange(len(children)), children, root.level, lows,
              highs, stats)


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
    push_root(tree, heap, stats, excluded)
    bbs_loop(tree, heap, state, stats, excluded=excluded)
    return state

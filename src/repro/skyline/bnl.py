"""Memory-resident skyline algorithms: BNL and SFS.

These are the classic algorithms of Börzsönyi et al. (ICDE 2001, BNL) and
Chomicki et al. (SFS). The library's hot path is BBS over the R-tree
(:mod:`repro.skyline.bbs`); BNL/SFS serve as independent oracles in tests
and as the skyline tool for callers who have a plain point list rather
than a tree.

Both compute the *canonical* skyline (see :mod:`repro.skyline.dominance`).
"""

# lint: reference — tests check BBS and the skyline kernels against it.

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..storage.stats import SearchStats
from .dominance import Point, dominates, weakly_dominates


def bnl_skyline(items: Sequence[Tuple[int, Point]],
                stats: SearchStats = None) -> List[Tuple[int, Point]]:
    """Block-nested-loops skyline; output sorted by object id.

    Points are streamed in ascending id order against a window of current
    skyline candidates: a point weakly dominated by a window member is
    dropped (duplicates keep the earlier id); a point strictly dominating
    window members evicts them.
    """
    window: List[Tuple[int, Point]] = []
    for object_id, point in sorted(items, key=lambda pair: pair[0]):
        point = tuple(point)
        dominated = False
        survivors: List[Tuple[int, Point]] = []
        for member_id, member in window:
            if stats is not None:
                stats.dominance_checks += 1
            if weakly_dominates(member, point):
                dominated = True
                survivors = window  # no eviction possible: keep as-is
                break
            if not dominates(point, member):
                survivors.append((member_id, member))
        if not dominated:
            window = survivors
            window.append((object_id, point))
    window.sort(key=lambda pair: pair[0])
    return window


def sfs_skyline(items: Sequence[Tuple[int, Point]],
                stats: SearchStats = None) -> List[Tuple[int, Point]]:
    """Sort-filter-skyline; output sorted by object id.

    Points are visited in decreasing coordinate-sum order (ties by id), so
    a point's dominators precede it and a single weak-dominance pass
    against the accumulated window suffices — *almost*: strict dominance
    guarantees a strictly greater sum in real arithmetic, but the float
    sum can round the two equal (a subnormal coordinate vanishing into
    1.0, say), letting a dominator sort *after* its victim. Because
    float addition is monotone, a dominator's sum can never round below
    its victim's — so an admitted point checks for members to evict
    only among exact sum ties, and the classic no-eviction fast path is
    untouched everywhere else.
    """
    ordered = sorted(
        items, key=lambda pair: (-sum(pair[1]), pair[0])
    )
    window: List[Tuple[int, Point, float]] = []
    for object_id, point in ordered:
        point = tuple(point)
        point_sum = sum(point)
        dominated = False
        for _, member, _member_sum in window:
            if stats is not None:
                stats.dominance_checks += 1
            if weakly_dominates(member, point):
                dominated = True
                break
        if dominated:
            continue
        if window and window[-1][2] == point_sum:
            survivors = []
            for member_id, member, member_sum in window:
                if member_sum == point_sum:
                    if stats is not None:
                        stats.dominance_checks += 1
                    if dominates(point, member):
                        continue
                survivors.append((member_id, member, member_sum))
            window = survivors
        window.append((object_id, point, point_sum))
    result = [(object_id, point) for object_id, point, _ in window]
    result.sort(key=lambda pair: pair[0])
    return result

"""Skyline computation and incremental maintenance.

The hot path is :func:`~repro.skyline.bbs.compute_skyline` (BBS over the
R-tree, with pruned-list tracking) plus
:func:`~repro.skyline.maintenance.update_after_removal`. BNL and SFS are
memory-resident references.
"""

from .bbs import bbs_loop, compute_skyline, push_entry
from .bnl import bnl_skyline, sfs_skyline
from .dominance import (
    canonical_skyline_naive,
    dominance_counts,
    dominates,
    is_skyline_member,
    weakly_dominates,
)
from .maintenance import (
    recompute_with_pruning,
    update_after_insertion,
    update_after_removal,
)
from .state import PrunedItem, SkylineState, pruned_items

__all__ = [
    "bbs_loop",
    "compute_skyline",
    "push_entry",
    "bnl_skyline",
    "sfs_skyline",
    "canonical_skyline_naive",
    "dominance_counts",
    "dominates",
    "is_skyline_member",
    "weakly_dominates",
    "recompute_with_pruning",
    "update_after_insertion",
    "update_after_removal",
    "PrunedItem",
    "SkylineState",
    "pruned_items",
]

"""R-tree substrate: disk-resident and main-memory R-trees, STR bulk
loading, and branch-and-bound ranked (top-k) search."""

from .entry import Entry
from .hilbert import hilbert_bulk_load, hilbert_index, hilbert_key_for_point
from .node import RTreeNode
from .serial import branch_capacity, leaf_capacity
from .store import DiskNodeStore, MemoryNodeStore, NodeStore
from .topk import RankedHit, RankedSearch, top1, topk
from .tree import MIN_FILL_RATIO, RTree, TreeStats, make_memory_rtree
from .validate import TreeInvariantError, validate_tree

__all__ = [
    "Entry",
    "hilbert_bulk_load",
    "hilbert_index",
    "hilbert_key_for_point",
    "RTreeNode",
    "branch_capacity",
    "leaf_capacity",
    "DiskNodeStore",
    "MemoryNodeStore",
    "NodeStore",
    "RankedHit",
    "RankedSearch",
    "top1",
    "topk",
    "MIN_FILL_RATIO",
    "RTree",
    "TreeStats",
    "make_memory_rtree",
    "TreeInvariantError",
    "validate_tree",
]

"""R-tree nodes.

A node is identified by a *node id* (for the disk-backed tree this is the
page id of the page holding it). ``level`` counts from the leaves: leaf
nodes are level 0, their parents level 1, and so on up to the root.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..geometry import MBR
from .entry import Entry

#: A node's entries as read-only arrays: ``children`` (n,) int64 and the
#: ``lows`` / ``highs`` corners (n, D) float64.
NodeArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


class RTreeNode:
    """A node: a level, and its entries in one of two forms.

    * **Page arrays** (:meth:`arrays`): read-only ``children``, ``lows``
      and ``highs``, what the skyline search reads. A node decoded from
      a disk page holds only these (views of the page bytes; a leaf's
      ``lows`` is its ``highs``, since a page stores each point once).
    * **Entries** (:attr:`entries`): a list of
      :class:`~repro.rtree.entry.Entry`, what insert, delete and split
      edit. A decoded node builds it from its arrays on first access.

    The mutation rule: any access to :attr:`entries` drops the arrays,
    because the caller may edit the list; the next :meth:`arrays` call
    rebuilds them from the entries and caches them until :attr:`entries`
    is accessed again (so memory-backend nodes, which the store hands out
    by reference, pay the build once per edit, not once per search).
    """

    __slots__ = ("node_id", "level", "_entries", "_arrays")

    def __init__(self, node_id: int, level: int,
                 entries: Optional[List[Entry]] = None) -> None:
        self.node_id = int(node_id)
        self.level = int(level)
        self._entries: Optional[List[Entry]] = (
            entries if entries is not None else []
        )
        self._arrays: Optional[NodeArrays] = None

    @classmethod
    def from_arrays(cls, node_id: int, level: int, children: np.ndarray,
                    lows: np.ndarray, highs: np.ndarray) -> "RTreeNode":
        """A node holding only its page arrays (all read-only)."""
        node = cls(node_id, level)
        node._entries = None
        node._arrays = (children, lows, highs)
        return node

    @property
    def entries(self) -> List[Entry]:
        """The editable entry list (drops the arrays; see the class doc)."""
        entries = self._entries
        if entries is None:
            entries = self._entries = _entries_from_arrays(self._arrays)
        self._arrays = None
        return entries

    @entries.setter
    def entries(self, entries: List[Entry]) -> None:
        self._entries = entries
        self._arrays = None

    def arrays(self) -> NodeArrays:
        """``(children, lows, highs)``, read-only (see the class doc)."""
        arrays = self._arrays
        if arrays is None:
            arrays = self._arrays = _arrays_from_entries(self._entries)
        return arrays

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    @property
    def num_entries(self) -> int:
        if self._entries is not None:
            return len(self._entries)
        return len(self._arrays[0])

    def mbr(self) -> MBR:
        """The tight bounding box of all entries (node must be non-empty)."""
        return MBR.union_all(entry.mbr for entry in self.entries)

    def find_child_index(self, child: int) -> int:
        """Index of the entry pointing at ``child``, or -1."""
        for i, entry in enumerate(self.entries):
            if entry.child == child:
                return i
        return -1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RTreeNode(id={self.node_id}, level={self.level}, "
            f"entries={self.num_entries})"
        )


def _entries_from_arrays(arrays: NodeArrays) -> List[Entry]:
    children, lows, highs = arrays
    # Array values came out of a page serialize_node wrote from valid
    # boxes, so the corners skip MBR's per-coordinate checks.
    box = MBR._unchecked
    ids = children.tolist()
    if lows is highs:
        points = [tuple(row) for row in highs.tolist()]
        return [Entry(box(point, point), child)
                for child, point in zip(ids, points)]
    return [Entry(box(tuple(low), tuple(high)), child)
            for child, low, high in zip(ids, lows.tolist(), highs.tolist())]


def _arrays_from_entries(entries: List[Entry]) -> NodeArrays:
    children = np.array([entry.child for entry in entries], dtype=np.int64)
    lows = np.array([entry.mbr.low for entry in entries], dtype=np.float64)
    highs = np.array([entry.mbr.high for entry in entries], dtype=np.float64)
    for array in (children, lows, highs):
        array.flags.writeable = False
    return children, lows, highs

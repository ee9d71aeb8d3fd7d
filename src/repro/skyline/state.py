"""Skyline state: members, pruned lists, and a vectorized dominance index.

:class:`SkylineState` is the mutable structure shared by BBS computation,
incremental maintenance, and the SB matcher:

* the current skyline members (id -> point),
* one **pruned list** (``plist``) per member holding every R-tree entry or
  object that was pruned *because of* that member (each pruned entry is
  owned by exactly one member, per Section IV-B of the paper),
* a numpy-backed dominance index so "is this point/box dominated, and by
  whom" is one vectorized comparison instead of a Python loop over a
  possibly large (anti-correlated) skyline.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DimensionalityError, ReproError
from ..rtree.entry import Entry

#: A pruned R-tree entry together with the level of the node it came from
#: (0 means the entry is an object; >0 means ``entry.child`` is a node id
#: at ``level - 1``).
PrunedItem = Tuple[Entry, int]

#: Rows per :meth:`SkylineState.first_dominators` pass; bounds its
#: ``(rows, members)`` comparison mask (an orphan pass can hold thousands
#: of entries, an anti-correlated skyline thousands of members).
KERNEL_CHUNK_ROWS = 512


class SkylineState:
    """Current skyline of the remaining objects, with pruned lists."""

    def __init__(self, dims: int) -> None:
        if dims < 1:
            raise DimensionalityError(1, dims, "dims")
        self.dims = dims
        self._points: Dict[int, Tuple[float, ...]] = {}
        self._plists: Dict[int, List[PrunedItem]] = {}
        # Vectorized index: rows in insertion order, with tombstones.
        self._matrix = np.empty((64, dims), dtype=np.float64)
        self._row_ids = np.empty(64, dtype=np.int64)
        self._active = np.zeros(64, dtype=bool)
        self._size = 0  # rows used (including tombstones)
        self._row_of: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._points

    def point(self, object_id: int) -> Tuple[float, ...]:
        return self._points[object_id]

    def ids(self) -> List[int]:
        """Member ids in insertion order."""
        return list(self._points)

    def items(self) -> Iterator[Tuple[int, Tuple[float, ...]]]:
        """(id, point) pairs in insertion order."""
        return iter(self._points.items())

    def plist(self, object_id: int) -> List[PrunedItem]:
        """The pruned list owned by a member (read-only use)."""
        return self._plists[object_id]

    def plist_sizes(self) -> Dict[int, int]:
        return {object_id: len(plist) for object_id, plist in self._plists.items()}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, object_id: int, point: Sequence[float]) -> None:
        """Admit a new skyline member with an empty pruned list."""
        if object_id in self._points:
            raise ReproError(f"object {object_id} is already in the skyline")
        if object_id < 0:  # -1 means "no dominator" in first_dominators()
            raise ReproError(f"object ids must be non-negative, got {object_id}")
        if len(point) != self.dims:
            raise DimensionalityError(self.dims, len(point), "point")
        point = tuple(float(v) for v in point)
        self._points[object_id] = point
        self._plists[object_id] = []
        self._index_add(object_id, point)

    def park(self, owner_id: int, item: PrunedItem) -> None:
        """Attach a pruned entry to the member that dominates it."""
        self._plists[owner_id].append(item)

    def remove(self, object_id: int) -> List[PrunedItem]:
        """Remove a member; returns its pruned list (now orphaned)."""
        try:
            self._points.pop(object_id)
        except KeyError:
            raise ReproError(
                f"object {object_id} is not in the skyline"
            ) from None
        plist = self._plists.pop(object_id)
        self._index_remove(object_id)
        return plist

    # ------------------------------------------------------------------
    # Dominance queries (vectorized)
    # ------------------------------------------------------------------
    def first_dominator(self, point: Sequence[float]) -> Optional[int]:
        """The earliest-admitted member weakly dominating ``point``.

        For a point argument this decides skyline membership; for the
        *high corner of a box* it decides whether the whole box can be
        pruned (a point dominating the best corner dominates everything
        inside). A one-row call of :meth:`first_dominators`.
        """
        probe = np.asarray(point, dtype=np.float64)
        if probe.shape != (self.dims,):
            raise DimensionalityError(self.dims, probe.size, "point")
        owner = int(self.first_dominators(probe[None, :])[0])
        return None if owner < 0 else owner

    def first_dominators(self, highs: np.ndarray) -> np.ndarray:
        """:meth:`first_dominator` for every row of an ``(n, dims)`` array.

        Returns an ``(n,)`` int64 array holding, per row, the id of the
        earliest-admitted member weakly dominating it, or ``-1``. Rows
        are tested in chunks of :data:`KERNEL_CHUNK_ROWS`, one vectorized
        comparison per dimension against every member, so BBS pays one
        call per expanded node rather than one per entry.
        """
        highs = np.asarray(highs, dtype=np.float64)
        if highs.ndim != 2 or highs.shape[1] != self.dims:
            raise DimensionalityError(
                self.dims, highs.shape[-1] if highs.ndim else 0,
                f"highs array of shape {highs.shape}",
            )
        owners = np.full(len(highs), -1, dtype=np.int64)
        size = self._size
        rows = self._matrix[:size]
        ids = self._row_ids[:size]
        if len(self._points) != size:  # tombstones present
            live = self._active[:size]
            rows = rows[live]
            ids = ids[live]
        if len(ids) == 0:
            return owners
        for start in range(0, len(highs), KERNEL_CHUNK_ROWS):
            chunk = highs[start:start + KERNEL_CHUNK_ROWS]
            mask = chunk[:, 0, None] <= rows[:, 0]
            for dim in range(1, self.dims):
                mask &= chunk[:, dim, None] <= rows[:, dim]
            # Rows are in admission order: the first hit is the earliest.
            first = mask.argmax(axis=1)
            hit = mask[np.arange(len(chunk)), first]
            owners[start:start + len(chunk)] = np.where(hit, ids[first], -1)
        return owners

    def dominated_members(self, point: Sequence[float]) -> List[int]:
        """Members weakly dominated by ``point`` (insertion order).

        Used by BBS as a float-safety net: a strict dominator's L1 heap
        key can round to the same value as its victim's, letting the
        victim pop (and be admitted) first. The dominator, once admitted,
        demotes such members into its own pruned list.
        """
        if self._size == 0:
            return []
        probe = np.asarray(point, dtype=np.float64)
        rows = self._matrix[: self._size]
        mask = self._active[: self._size] & (rows <= probe).all(axis=1)
        return [int(i) for i in self._row_ids[: self._size][mask]]

    def dominators(self, point: Sequence[float]) -> List[int]:
        """All members weakly dominating ``point`` (insertion order)."""
        if self._size == 0:
            return []
        probe = np.asarray(point, dtype=np.float64)
        rows = self._matrix[: self._size]
        mask = self._active[: self._size] & (rows >= probe).all(axis=1)
        return [int(i) for i in self._row_ids[: self._size][mask]]

    def matrix(self) -> np.ndarray:
        """Dense ``(len(self), dims)`` array of member points (insertion order)."""
        rows = self._matrix[: self._size][self._active[: self._size]]
        return rows.copy()

    # ------------------------------------------------------------------
    # Index internals
    # ------------------------------------------------------------------
    def _index_add(self, object_id: int, point: Tuple[float, ...]) -> None:
        if self._size == self._matrix.shape[0]:
            self._compact_or_grow()
        row = self._size
        self._matrix[row] = point
        self._row_ids[row] = object_id
        self._active[row] = True
        self._row_of[object_id] = row
        self._size += 1

    def _index_remove(self, object_id: int) -> None:
        row = self._row_of.pop(object_id)
        self._active[row] = False

    def _compact_or_grow(self) -> None:
        active_rows = int(self._active[: self._size].sum())
        if active_rows <= self._size // 2:
            # Over half the rows are tombstones: compact in place.
            keep = self._active[: self._size]
            kept_matrix = self._matrix[: self._size][keep]
            kept_ids = self._row_ids[: self._size][keep]
            self._matrix[: len(kept_ids)] = kept_matrix
            self._row_ids[: len(kept_ids)] = kept_ids
            self._active[: len(kept_ids)] = True
            self._active[len(kept_ids):] = False
            self._size = len(kept_ids)
            self._row_of = {
                int(object_id): row for row, object_id in enumerate(kept_ids)
            }
            return
        capacity = self._matrix.shape[0] * 2
        matrix = np.empty((capacity, self.dims), dtype=np.float64)
        row_ids = np.empty(capacity, dtype=np.int64)
        active = np.zeros(capacity, dtype=bool)
        matrix[: self._size] = self._matrix[: self._size]
        row_ids[: self._size] = self._row_ids[: self._size]
        active[: self._size] = self._active[: self._size]
        self._matrix = matrix
        self._row_ids = row_ids
        self._active = active

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parked = sum(len(plist) for plist in self._plists.values())
        return f"SkylineState(members={len(self)}, parked={parked})"

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

A plist is stored as **row chunks**, not entry objects: a chunk holds
the rows one search step parked under its owner (the dominated entries
of one expanded node or one orphan pass, as arrays), or the entries
parked one at a time since the owner's last batch. Parking therefore
builds nothing per entry, and most plists are never read: only the
plists of removed members come back, through
:meth:`SkylineState.remove` and :func:`pruned_rows`. The chunk layout is
private to this module; :meth:`SkylineState.plist` and
:func:`pruned_items` turn chunks into ``(Entry, level)`` items.
"""

from __future__ import annotations

from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from ..errors import DimensionalityError, ReproError
from ..geometry import MBR
from ..rtree.entry import Entry

#: A pruned R-tree entry together with the level of the node it came from
#: (0 means the entry is an object; >0 means ``entry.child`` is a node id
#: at ``level - 1``). The public, per-entry view of a plist, as returned
#: by :meth:`SkylineState.plist` and accepted by :meth:`SkylineState.park`.
PrunedItem = Tuple[Entry, int]

#: One plist chunk, opaque outside this module:
#: ``(owners, owner, children, levels, lows, highs)``. The chunk's rows
#: are those of ``children`` / ``lows`` / ``highs`` whose ``owners`` value
#: is ``owner``, or all of them when ``owners`` is ``None``. A batch of
#: rows parked under several owners is shared by their chunks, and a
#: chunk's rows are only picked out if its plist is read. ``levels`` is
#: one int (rows of one node) or one per row. Entries parked one at a
#: time collect in a chunk of Python lists, which grows until the owner
#: parks a batch.
PrunedChunk = Tuple[Optional[np.ndarray], int, Any, Any, Any, Any]

#: Pruned rows as arrays: ``children`` (n,) and ``levels`` (n,) int64,
#: ``lows`` and ``highs`` (n, D) float64.
PrunedRows = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Rows per :meth:`SkylineState.first_dominators` pass; bounds its
#: ``(rows, members)`` comparison mask (an orphan pass can hold thousands
#: of entries, an anti-correlated skyline thousands of members).
KERNEL_CHUNK_ROWS = 512

#: Members :meth:`SkylineState.first_dominators` tries before the rest.
#: BBS admits members nearest the ideal corner first, and those dominate
#: the most space: on the paper-disk workload (10,000 uniform 4-D
#: points) the first 16 members own 94% of all parked entries, so most
#: rows never meet the later members.
LEAD_MEMBERS = 16

#: Above this many (row, later member) pairs in one chunk, the lead pass
#: pays for its second round of array set-up: an orphan pass (hundreds
#: to thousands of rows) takes it, a node expansion (tens) does not.
LEAD_SPLIT_PAIRS = 8192


def pruned_rows(chunks: Iterable[PrunedChunk]) -> Optional[PrunedRows]:
    """Concatenate plist chunks (e.g. :meth:`SkylineState.remove`'s
    result) into arrays, in order; ``None`` when they hold no rows."""
    chunks = list(chunks)
    if not chunks:
        return None
    children = np.concatenate([chunk[2] for chunk in chunks], dtype=np.int64)
    levels = np.concatenate([
        np.full(len(chunk[2]), chunk[3], dtype=np.int64)
        if isinstance(chunk[3], (int, np.integer)) else chunk[3]
        for chunk in chunks
    ], dtype=np.int64)
    lows = np.concatenate([chunk[4] for chunk in chunks], dtype=np.float64)
    highs = np.concatenate([chunk[5] for chunk in chunks], dtype=np.float64)
    if any(chunk[0] is not None for chunk in chunks):
        mine = np.flatnonzero(np.concatenate([
            np.ones(len(chunk[2]), dtype=bool) if chunk[0] is None
            else chunk[0] == chunk[1]
            for chunk in chunks
        ]))
        children, levels = children[mine], levels[mine]
        lows, highs = lows[mine], highs[mine]
    return children, levels, lows, highs


def pruned_items(chunks: Iterable[PrunedChunk]) -> List[PrunedItem]:
    """Plist chunks as ``(Entry, level)`` items, in parking order."""
    rows = pruned_rows(chunks)
    if rows is None:
        return []
    children, levels, lows, highs = rows
    # The corners were copied out of valid boxes: skip MBR's checks.
    box = MBR._unchecked
    return [
        (Entry(box(tuple(low), tuple(high)), child), level)
        for child, level, low, high in zip(
            children.tolist(), levels.tolist(), lows.tolist(), highs.tolist())
    ]


def _coordinate_sum(point: Sequence[float]) -> float:
    """A point's coordinates summed left to right in float arithmetic.

    Rounding is monotone, so a point weakly dominated by another never
    sums above it (:meth:`SkylineState.dominated_members` relies on it).
    """
    total = 0.0
    for value in point:
        total += float(value)
    return total


def _first_hits(highs: np.ndarray, rows: np.ndarray,
                ids: np.ndarray) -> np.ndarray:
    """Per row of ``highs``: the id of the first of ``rows`` weakly
    dominating it, or ``-1``."""
    mask = highs[:, 0, None] <= rows[:, 0]
    for dim in range(1, highs.shape[1]):
        mask &= highs[:, dim, None] <= rows[:, dim]
    # Member rows are in admission order: the first hit is the earliest.
    first = mask.argmax(axis=1)
    hit = mask[np.arange(len(highs)), first]
    return np.where(hit, ids[first], -1)


class SkylineState:
    """Current skyline of the remaining objects, with pruned lists."""

    def __init__(self, dims: int) -> None:
        if dims < 1:
            raise DimensionalityError(1, dims, "dims")
        self.dims = dims
        self._points: Dict[int, Tuple[float, ...]] = {}
        self._plists: Dict[int, List[PrunedChunk]] = {}
        # Vectorized index: rows in insertion order, with tombstones.
        self._matrix = np.empty((64, dims), dtype=np.float64)
        self._row_ids = np.empty(64, dtype=np.int64)
        self._active = np.zeros(64, dtype=bool)
        self._size = 0  # rows used (including tombstones)
        self._row_of: Dict[int, int] = {}
        # Smallest coordinate sum of any member ever added. Removals
        # leave it as is: it stays a lower bound on the members' sums.
        self._min_sum = float("inf")

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
        """The pruned list owned by a member, as ``(Entry, level)`` items
        in parking order (built from its chunks on every call)."""
        return pruned_items(self._plists[object_id])

    def plist_sizes(self) -> Dict[int, int]:
        return {object_id: sum(
                    len(chunk[2]) if chunk[0] is None
                    else int(np.count_nonzero(chunk[0] == chunk[1]))
                    for chunk in chunks)
                for object_id, chunks in self._plists.items()}

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
        self._min_sum = min(self._min_sum, _coordinate_sum(point))

    def park(self, owner_id: int, item: PrunedItem) -> None:
        """Attach a pruned ``(entry, level)`` to the member dominating it.

        The plist keeps the entry's child id, level and corners as a row,
        not the ``Entry`` object; :meth:`plist` rebuilds an equal entry.
        """
        entry, level = item
        self.park_row(owner_id, entry.child, level, entry.mbr.low,
                      entry.mbr.high)

    def park_row(self, owner_id: int, child: int, level: int,
                 low: Sequence[float], high: Sequence[float]) -> None:
        """:meth:`park` for one entry given by its child id and corners."""
        plist = self._plists[owner_id]
        if plist and type(plist[-1][2]) is list:
            _owners, _owner, children, levels, lows, highs = plist[-1]
            children.append(child)
            levels.append(level)
            lows.append(low)
            highs.append(high)
        else:
            plist.append((None, owner_id, [child], [level], [low], [high]))

    def park_rows(self, owners: np.ndarray, children: np.ndarray, levels,
                  lows: np.ndarray, highs: np.ndarray) -> None:
        """Park every row with an owner under it, keeping row order.

        ``owners`` is :meth:`first_dominators`' answer for these rows
        (``-1`` rows are skipped); ``levels`` is one int or an ``(n,)``
        array. Each owner gets one chunk, and all of them share the given
        arrays without copying: none of the arrays may be written to
        afterwards (node arrays are read-only, and ``first_dominators``
        returns a fresh ``owners``).
        """
        owner_ids = dict.fromkeys(owners.tolist())
        selector: Optional[np.ndarray] = owners
        if len(owner_ids) == 1:
            if -1 in owner_ids:
                return
            selector = None  # the whole batch has one owner
        owner_ids.pop(-1, None)
        for owner in owner_ids:
            self._plists[owner].append(
                (selector, owner, children, levels, lows, highs))

    def remove(self, object_id: int) -> List[PrunedChunk]:
        """Remove a member; returns its pruned list, now orphaned.

        The list comes back as the member's row chunks, in parking order:
        pass them (concatenated with other removed members' chunks) to
        :func:`~repro.skyline.maintenance.update_after_removal`, or list
        them as ``(Entry, level)`` items with :func:`pruned_items`.
        """
        try:
            self._points.pop(object_id)
        except KeyError:
            raise ReproError(
                f"object {object_id} is not in the skyline"
            ) from None
        chunks = self._plists.pop(object_id)
        self._index_remove(object_id)
        return chunks

    def demote(self, victim_id: int, owner_id: int) -> None:
        """Move member ``victim_id``, then its pruned list, into the
        pruned list of member ``owner_id``."""
        point = self.point(victim_id)
        chunks = self.remove(victim_id)
        self.park_row(owner_id, victim_id, 0, point, point)
        self._plists[owner_id].extend(chunks)

    # ------------------------------------------------------------------
    # Dominance queries (vectorized)
    # ------------------------------------------------------------------
    def first_dominator(self, point: Sequence[float]) -> Optional[int]:
        """The earliest-admitted member weakly dominating ``point``.

        For a point argument this decides skyline membership; for the
        *high corner of a box* it decides whether the whole box can be
        pruned (a point dominating the best corner dominates everything
        inside). BBS asks this once per heap pop, so it is one comparison
        per dimension over the member column, without the array set-up
        of :meth:`first_dominators`.
        """
        self._check_width(point)
        if not self._points:
            return None
        size = self._size
        rows = self._matrix
        hit = rows[:size, 0] >= point[0]
        for dim in range(1, self.dims):
            hit &= rows[:size, dim] >= point[dim]
        if len(self._points) != size:  # tombstones present
            hit &= self._active[:size]
        # Rows are in admission order: the first hit is the earliest.
        first = int(hit.argmax())
        return int(self._row_ids[first]) if hit[first] else None

    def first_dominators(self, highs: np.ndarray) -> np.ndarray:
        """:meth:`first_dominator` for every row of an ``(n, dims)`` array.

        Returns an ``(n,)`` int64 array holding, per row, the id of the
        earliest-admitted member weakly dominating it, or ``-1``. Rows
        are tested in chunks of :data:`KERNEL_CHUNK_ROWS`, one vectorized
        comparison per dimension against the members, so BBS pays one
        call per expanded node rather than one per entry. For a large
        chunk the first :data:`LEAD_MEMBERS` members are tried first, and
        only the rows none of them dominates meet the rest.
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
        lead_rows, lead_ids = rows[:LEAD_MEMBERS], ids[:LEAD_MEMBERS]
        rest_rows, rest_ids = rows[LEAD_MEMBERS:], ids[LEAD_MEMBERS:]
        for start in range(0, len(highs), KERNEL_CHUNK_ROWS):
            chunk = highs[start:start + KERNEL_CHUNK_ROWS]
            if len(chunk) * len(rest_ids) <= LEAD_SPLIT_PAIRS:
                owners[start:start + len(chunk)] = _first_hits(chunk, rows,
                                                               ids)
                continue
            found = _first_hits(chunk, lead_rows, lead_ids)
            # Every lead member was admitted before every other one.
            open_rows = np.flatnonzero(found < 0)
            if len(open_rows):
                found[open_rows] = _first_hits(chunk[open_rows], rest_rows,
                                               rest_ids)
            owners[start:start + len(chunk)] = found
        return owners

    def dominated_members(self, point: Sequence[float]) -> List[int]:
        """Members weakly dominated by ``point`` (insertion order).

        Used by BBS as a float-safety net: a strict dominator's L1 heap
        key can round to the same value as its victim's, letting the
        victim pop (and be admitted) first. The dominator, once admitted,
        demotes such members into its own pruned list. Asked at every
        admission, so it is the same lean per-column comparison as
        :meth:`first_dominator`, skipped outright when ``point`` sums
        below every member: a member it weakly dominates would sum no
        higher than it.
        """
        self._check_width(point)
        if not self._points or _coordinate_sum(point) < self._min_sum:
            return []
        size = self._size
        rows = self._matrix
        hit = rows[:size, 0] <= point[0]
        for dim in range(1, self.dims):
            hit &= rows[:size, dim] <= point[dim]
        if len(self._points) != size:  # tombstones present
            hit &= self._active[:size]
        return self._row_ids[:size][hit].tolist()

    def dominators(self, point: Sequence[float]) -> List[int]:
        """All members weakly dominating ``point`` (insertion order)."""
        self._check_width(point)
        if self._size == 0:
            return []
        probe = np.asarray(point, dtype=np.float64)
        rows = self._matrix[: self._size]
        mask = self._active[: self._size] & (rows >= probe).all(axis=1)
        return [int(i) for i in self._row_ids[: self._size][mask]]

    def _check_width(self, point: Sequence[float]) -> None:
        try:
            width = len(point)
        except TypeError:  # a scalar
            width = 0
        if width != self.dims:
            raise DimensionalityError(self.dims, width, "point")

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
        parked = sum(self.plist_sizes().values())
        return f"SkylineState(members={len(self)}, parked={parked})"

"""Hilbert-order range partitioning of the object set.

Shards are *contiguous ranges of the Hilbert curve*: objects are sorted
by the Hilbert key of their point (the same key
:func:`repro.rtree.hilbert_bulk_load` packs leaves with) and cut into
``K`` consecutive chunks of near-equal cardinality. Contiguity in
Hilbert order keeps every shard spatially compact in all dimensions at
once, so each shard's R-tree covers a tight region and per-shard skyline
queries stay cheap.

Cardinality balance (not spatial balance) is the partitioning objective:
each shard matches *all* functions against its objects, so equal object
counts equalize worker runtimes.

:func:`hilbert_shards` is the serving path's partition: numpy work over
the dataset's arrays, one ``(ids, points)`` array pair per shard.
:func:`hilbert_ranges` is the same cut over ``(object_id, point)``
tuples.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..data import Dataset
from ..errors import MatchingError
from ..rtree.hilbert import DEFAULT_ORDER, hilbert_sort

Item = Tuple[int, Sequence[float]]

#: One shard: ``(ids, points)`` with ids ascending (int64) and
#: ``points[r]`` the float64 point of ``ids[r]``.
ShardArrays = Tuple[np.ndarray, np.ndarray]


def _cuts(ordering: np.ndarray, shards: int) -> List[np.ndarray]:
    """``ordering`` cut into ``shards`` consecutive chunks, the first
    ``len(ordering) % shards`` of them one longer than the rest."""
    if shards < 1:
        raise MatchingError(f"shards must be >= 1, got {shards}")
    return np.array_split(ordering, shards)


def hilbert_ranges(items: Sequence[Item], shards: int,
                   order: int = DEFAULT_ORDER) -> List[List[Item]]:
    """Partition ``(object_id, point)`` items into Hilbert-order ranges.

    Returns exactly ``shards`` lists whose concatenation is the full
    item set sorted by ``(hilbert key, object id)``. Sizes differ by at
    most one; when ``shards > len(items)`` the tail shards are empty
    (callers must tolerate empty shards — the matcher does).

    >>> ranges = hilbert_ranges([(1, (0.9, 0.9)), (2, (0.1, 0.2)),
    ...                          (3, (0.15, 0.1))], shards=2)
    >>> [[object_id for object_id, _ in part] for part in ranges]
    [[2, 3], [1]]
    """
    items = list(items)
    ordering = (
        hilbert_sort([point for _, point in items],
                     [object_id for object_id, _ in items], order)
        if items else np.empty(0, dtype=np.intp)
    )
    return [[items[row] for row in chunk]
            for chunk in _cuts(ordering, shards)]


def hilbert_shards(objects: Dataset, shards: int) -> List[ShardArrays]:
    """Partition a dataset into Hilbert-order ranges, as arrays.

    The same cut as :func:`hilbert_ranges` over ``objects.items()``;
    within a shard the rows are re-ordered by ascending object id, the
    row order ``Dataset.from_mapping`` would give them.
    """
    ids = np.asarray(objects.ids, dtype=np.int64)
    points = objects.matrix
    parts: List[ShardArrays] = []
    for chunk in _cuts(hilbert_sort(points, ids), shards):
        rows = chunk[np.argsort(ids[chunk], kind="stable")]
        parts.append((ids[rows], points[rows]))
    return parts

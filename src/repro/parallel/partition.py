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

:func:`hilbert_shards` cuts once per staging of a prepared matching,
with numpy work over the dataset's arrays, and returns one
``(ids, points)`` array pair per shard.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..data import Dataset
from ..errors import MatchingError
from ..rtree.hilbert import hilbert_sort

#: One shard: ``(ids, points)`` with ids ascending (int64) and
#: ``points[r]`` the float64 point of ``ids[r]``.
ShardArrays = Tuple[np.ndarray, np.ndarray]


def hilbert_shards(objects: Dataset, shards: int) -> List[ShardArrays]:
    """Partition a dataset into Hilbert-order ranges, as arrays.

    Objects are sorted by ``(hilbert key, object id)`` and cut into
    exactly ``shards`` consecutive chunks, the first
    ``len(objects) % shards`` of them one longer than the rest; when
    ``shards > len(objects)`` the tail shards are empty (callers must
    tolerate empty shards — the matcher does). Within a shard the rows
    are re-ordered by ascending object id, the row order
    ``Dataset.from_mapping`` would give them.

    >>> objects = Dataset([[0.9, 0.9], [0.1, 0.2], [0.15, 0.1]],
    ...                   ids=[1, 2, 3])
    >>> [ids.tolist() for ids, _ in hilbert_shards(objects, shards=2)]
    [[2, 3], [1]]
    """
    if shards < 1:
        raise MatchingError(f"shards must be >= 1, got {shards}")
    ids = np.asarray(objects.ids, dtype=np.int64)
    points = objects.matrix
    parts: List[ShardArrays] = []
    for chunk in np.array_split(hilbert_sort(points, ids), shards):
        rows = chunk[np.argsort(ids[chunk], kind="stable")]
        parts.append((ids[rows], points[rows]))
    return parts

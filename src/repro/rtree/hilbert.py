"""Hilbert-curve bulk loading.

An alternative to STR packing: sort the objects by the Hilbert value of
their (discretized) coordinates and fill leaves in that order. Hilbert
packing preserves locality in all dimensions simultaneously and tends
to produce slightly better point-query trees on skewed data, at the
price of a costlier sort key. The packing ablation compares both.

The Hilbert index is computed with the classic Butz/Lawder bit
transposition for arbitrary dimensionality. :func:`hilbert_index` and
:func:`hilbert_key_for_point` are the scalar reference;
:func:`hilbert_keys` runs the same transform over whole uint64 columns
and :func:`hilbert_sort` orders rows by the resulting keys, which is
what bulk loading and the shard partition use.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import RTreeError
from .entry import Entry
from .node import RTreeNode
from .store import NodeStore
from .tree import RTree

#: Bits of precision per dimension for the Hilbert key.
DEFAULT_ORDER = 16


def hilbert_index(coords: Sequence[int], order: int = DEFAULT_ORDER) -> int:
    """Hilbert curve index of a lattice point.

    ``coords`` are non-negative integers below ``2**order``; the result
    is the position of the point along the ``dims``-dimensional Hilbert
    curve of that order (in ``[0, 2**(order*dims))``).
    """
    dims = len(coords)
    if dims == 0:
        raise RTreeError("hilbert_index needs at least one coordinate")
    x = list(coords)
    for value in x:
        if not 0 <= value < (1 << order):
            raise RTreeError(
                f"coordinate {value} out of range for order {order}"
            )
    # Inverse undo of the Hilbert transform (Skilling's algorithm).
    m = 1 << (order - 1)
    # Gray decode inverse operations from the top bit down.
    q = m
    while q > 1:
        p = q - 1
        for i in range(dims):
            if x[i] & q:
                x[0] ^= p  # invert low bits of x[0]
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    # Gray encode.
    for i in range(1, dims):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[dims - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(dims):
        x[i] ^= t
    # Interleave bits (transpose) into the final index.
    result = 0
    for bit in range(order - 1, -1, -1):
        for i in range(dims):
            result = (result << 1) | ((x[i] >> bit) & 1)
    return result


def hilbert_key_for_point(point: Sequence[float],
                          order: int = DEFAULT_ORDER) -> int:
    """Hilbert index of a point in the unit cube (coordinates clamped)."""
    scale = (1 << order) - 1
    coords = []
    for value in point:
        clamped = min(1.0, max(0.0, float(value)))
        coords.append(int(clamped * scale))
    return hilbert_index(coords, order)


def hilbert_keys(points, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Hilbert keys of the rows of an ``(n, dims)`` array, vectorized.

    Row ``r`` equals ``hilbert_key_for_point(points[r], order)``: the
    same clamp, discretization and Skilling transform, run over uint64
    columns. A key has ``dims * order`` bits (more than one machine word
    from 5-D at order 16), so each is returned as big-endian 64-bit
    words: the result has shape ``(n, ceil(dims * order / 64))``, most
    significant word first. ``order`` must lie in ``[1, 32]``.
    """
    matrix = np.asarray(points, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        raise RTreeError(
            f"hilbert_keys needs an (n, dims >= 1) array, got shape "
            f"{matrix.shape}"
        )
    if not 1 <= order <= 32:
        raise RTreeError(f"order must be in [1, 32], got {order}")
    dims = matrix.shape[1]
    scale = float((1 << order) - 1)
    x = (np.clip(matrix, 0.0, 1.0) * scale).astype(np.uint64).T.copy()
    zero = np.uint64(0)
    # hilbert_index's loops, each x[i] now a column over all points.
    # Inverse undo, top bit down.
    q = 1 << (order - 1)
    while q > 1:
        p, bit = np.uint64(q - 1), np.uint64(q)
        for i in range(dims):
            high = (x[i] & bit) != zero
            t = np.where(high, zero, (x[0] ^ x[i]) & p)
            x[0] ^= np.where(high, p, t)
            x[i] ^= t
        q >>= 1
    # Gray encode.
    for i in range(1, dims):
        x[i] ^= x[i - 1]
    t = np.zeros(matrix.shape[0], dtype=np.uint64)
    q = 1 << (order - 1)
    while q > 1:
        t ^= np.where((x[dims - 1] & np.uint64(q)) != zero,
                      np.uint64(q - 1), zero)
        q >>= 1
    x ^= t
    # Interleave: bit ``b`` of coordinate ``i`` lands ``k`` places below
    # the key's top bit, with ``k = (order - 1 - b) * dims + i``.
    total = order * dims
    words = np.zeros((matrix.shape[0], -(-total // 64)), dtype=np.uint64)
    for b in range(order):
        for i in range(dims):
            position = total - 1 - ((order - 1 - b) * dims + i)
            word = words.shape[1] - 1 - position // 64
            words[:, word] |= (
                (x[i] >> np.uint64(b)) & np.uint64(1)
            ) << np.uint64(position % 64)
    return words


def hilbert_sort(points, ids, order: int = DEFAULT_ORDER) -> np.ndarray:
    """The row permutation ordering ``points`` by ``(Hilbert key, id)``.

    ``ids`` (one integer per row) breaks key ties, so the order is
    total and equals sorting ``(hilbert_key_for_point(point), id)``
    tuples.
    """
    words = hilbert_keys(points, order)
    # lexsort's last key is its primary one: top word last, ids first.
    return np.lexsort((np.asarray(ids, dtype=np.int64), *words[:, ::-1].T))


def hilbert_bulk_load(store: NodeStore, dims: int,
                      objects: Iterable[Tuple[int, Sequence[float]]],
                      fill: float = 0.9,
                      order: int = DEFAULT_ORDER) -> RTree:
    """Build a packed R-tree by Hilbert-sorting the objects.

    Same contract as :meth:`RTree.bulk_load`, different packing order.
    """
    if not 0.1 <= fill <= 1.0:
        raise RTreeError(f"fill factor must be in [0.1, 1], got {fill}")
    tree = RTree(store, dims)
    objects = list(objects)
    if not objects:
        return tree
    store.free(tree.root_id)

    ordering = hilbert_sort(
        [point for _, point in objects],
        [object_id for object_id, _ in objects], order,
    )
    items = [Entry.for_object(*objects[row]) for row in ordering]
    leaf_cap = max(2, int(store.leaf_capacity * fill))
    branch_cap = max(2, int(store.branch_capacity * fill))

    level = 0
    node_ids: List[int] = []
    node_mbrs = []
    for start in range(0, len(items), leaf_cap):
        node = RTreeNode(store.allocate(), 0, items[start:start + leaf_cap])
        store.write(node)
        node_ids.append(node.node_id)
        node_mbrs.append(node.mbr())

    while len(node_ids) > 1:
        level += 1
        upper = [Entry(mbr, node_id) for node_id, mbr in zip(node_ids, node_mbrs)]
        node_ids = []
        node_mbrs = []
        for start in range(0, len(upper), branch_cap):
            node = RTreeNode(store.allocate(), level,
                             upper[start:start + branch_cap])
            store.write(node)
            node_ids.append(node.node_id)
            node_mbrs.append(node.mbr())

    tree.root_id = node_ids[0]
    tree._height = level + 1
    tree._count = len(items)
    return tree

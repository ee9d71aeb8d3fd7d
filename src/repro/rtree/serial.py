"""Byte-accurate node (de)serialization.

Nodes are packed into fixed-size disk pages with :mod:`struct`. The layout
determines the tree's fan-out — and hence its height and every I/O count in
the benchmarks — so it mirrors what a C implementation with 4 KiB pages
would use:

* header (8 bytes): magic byte, flags, ``level`` (u16), entry count (u16),
  dimensionality (u16);
* leaf entry: object id (i64) + ``D`` float64 coordinates (points are
  stored once, not as two corners);
* branch entry: child page id (i64) + ``2 D`` float64 corner coordinates.

Reading a page is one :func:`numpy.frombuffer` over the same layout as a
structured dtype, so a decoded node holds arrays, not per-entry objects.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

import numpy as np

from ..errors import SerializationError
from .node import RTreeNode

_MAGIC = 0x5A
_HEADER = struct.Struct("<BBHHH")
_HEADER_SIZE = _HEADER.size  # 8 bytes

_leaf_structs: Dict[int, struct.Struct] = {}
_branch_structs: Dict[int, struct.Struct] = {}
_page_dtypes: Dict[Tuple[bool, int], np.dtype] = {}


def _leaf_struct(dims: int) -> struct.Struct:
    fmt = _leaf_structs.get(dims)
    if fmt is None:
        fmt = struct.Struct("<q" + "d" * dims)
        _leaf_structs[dims] = fmt
    return fmt


def _branch_struct(dims: int) -> struct.Struct:
    fmt = _branch_structs.get(dims)
    if fmt is None:
        fmt = struct.Struct("<q" + "d" * (2 * dims))
        _branch_structs[dims] = fmt
    return fmt


def _page_dtype(leaf: bool, dims: int) -> np.dtype:
    """The packed record of one entry, as a numpy structured dtype."""
    dtype = _page_dtypes.get((leaf, dims))
    if dtype is None:
        corners = [("high", "<f8", (dims,))]
        if not leaf:
            corners.insert(0, ("low", "<f8", (dims,)))
        dtype = np.dtype([("child", "<i8")] + corners)
        _page_dtypes[(leaf, dims)] = dtype
    return dtype


def leaf_capacity(page_size: int, dims: int) -> int:
    """Max leaf entries per page of ``page_size`` bytes."""
    capacity = (page_size - _HEADER_SIZE) // _leaf_struct(dims).size
    if capacity < 2:
        raise SerializationError(
            f"page size {page_size} holds fewer than 2 leaf entries at "
            f"D={dims}"
        )
    return capacity


def branch_capacity(page_size: int, dims: int) -> int:
    """Max branch entries per page of ``page_size`` bytes."""
    capacity = (page_size - _HEADER_SIZE) // _branch_struct(dims).size
    if capacity < 2:
        raise SerializationError(
            f"page size {page_size} holds fewer than 2 branch entries at "
            f"D={dims}"
        )
    return capacity


def serialize_node(node: RTreeNode, dims: int, page_size: int) -> bytes:
    """Pack ``node`` into at most ``page_size`` bytes."""
    parts = [_HEADER.pack(_MAGIC, 0, node.level, len(node.entries), dims)]
    if node.is_leaf:
        fmt = _leaf_struct(dims)
        for entry in node.entries:
            point = entry.mbr.low
            if len(point) != dims:
                raise SerializationError(
                    f"entry dimensionality {len(point)} != tree dims {dims}"
                )
            parts.append(fmt.pack(entry.child, *point))
    else:
        fmt = _branch_struct(dims)
        for entry in node.entries:
            parts.append(fmt.pack(entry.child, *entry.mbr.low, *entry.mbr.high))
    data = b"".join(parts)
    if len(data) > page_size:
        raise SerializationError(
            f"node {node.node_id} with {len(node.entries)} entries needs "
            f"{len(data)} bytes > page size {page_size}"
        )
    return data


def deserialize_node(node_id: int, data: bytes) -> Tuple[RTreeNode, int]:
    """Unpack a node from page bytes; returns ``(node, dims)``.

    The node holds read-only array views of ``data`` (one
    :func:`numpy.frombuffer` over the entry records); its ``entries``
    list is only built if someone asks for it.
    """
    if len(data) < _HEADER_SIZE:
        raise SerializationError(f"page {node_id} too short to hold a node")
    magic, _flags, level, count, dims = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise SerializationError(f"page {node_id} has bad magic {magic:#x}")
    dtype = _page_dtype(level == 0, dims)
    end = _HEADER_SIZE + count * dtype.itemsize
    if len(data) < end:
        raise SerializationError(
            f"page {node_id} holds {len(data)} bytes; its {count} entries "
            f"need {end}"
        )
    records = np.frombuffer(bytes(data), dtype=dtype, count=count,
                            offset=_HEADER_SIZE)
    highs = records["high"]
    lows = highs if level == 0 else records["low"]
    return (RTreeNode.from_arrays(node_id, level, records["child"], lows,
                                  highs), dims)

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
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from ..errors import SerializationError
from ..geometry import MBR
from .entry import Entry
from .node import RTreeNode

_MAGIC = 0x5A
_HEADER = struct.Struct("<BBHHH")
_HEADER_SIZE = _HEADER.size  # 8 bytes

_leaf_structs: Dict[int, struct.Struct] = {}
_branch_structs: Dict[int, struct.Struct] = {}


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
    """Unpack a node from page bytes; returns ``(node, dims)``."""
    if len(data) < _HEADER_SIZE:
        raise SerializationError(f"page {node_id} too short to hold a node")
    magic, _flags, level, count, dims = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise SerializationError(f"page {node_id} has bad magic {magic:#x}")
    fmt = _leaf_struct(dims) if level == 0 else _branch_struct(dims)
    end = _HEADER_SIZE + count * fmt.size
    if len(data) < end:
        raise SerializationError(
            f"page {node_id} holds {len(data)} bytes; its {count} entries "
            f"need {end}"
        )
    # Page bytes only ever come from serialize_node over valid boxes, so
    # the corners are rebuilt without MBR's per-coordinate checks.
    box = MBR._unchecked
    body = fmt.iter_unpack(memoryview(data)[_HEADER_SIZE:end])
    if level == 0:
        entries = [Entry(box(values[1:], values[1:]), values[0])
                   for values in body]
    else:
        split = 1 + dims
        entries = [Entry(box(values[1:split], values[split:]), values[0])
                   for values in body]
    return RTreeNode(node_id, level, entries), dims

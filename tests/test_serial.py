"""Unit tests for node serialization (the fan-out-defining layer)."""

import pytest

from repro.errors import SerializationError
from repro.geometry import MBR
from repro.rtree import Entry, RTreeNode, branch_capacity, leaf_capacity
from repro.rtree.serial import deserialize_node, serialize_node


def leaf_node(node_id=0, dims=3, count=5):
    entries = [
        Entry.for_object(i, tuple((i + d) / 10 % 1 for d in range(dims)))
        for i in range(count)
    ]
    return RTreeNode(node_id, 0, entries)


def branch_node(node_id=1, dims=3, count=4):
    entries = [
        Entry(MBR([0.1 * i] * dims, [0.1 * i + 0.2] * dims), 100 + i)
        for i in range(count)
    ]
    return RTreeNode(node_id, 2, entries)


def test_leaf_roundtrip():
    node = leaf_node(dims=4, count=7)
    data = serialize_node(node, 4, 4096)
    restored, dims = deserialize_node(node.node_id, data)
    assert dims == 4
    assert restored.level == 0
    assert restored.entries == node.entries


def test_branch_roundtrip_preserves_level():
    node = branch_node(dims=3, count=4)
    data = serialize_node(node, 3, 4096)
    restored, dims = deserialize_node(node.node_id, data)
    assert restored.level == 2
    assert restored.entries == node.entries


def test_empty_node_roundtrip():
    node = RTreeNode(0, 0, [])
    restored, _ = deserialize_node(0, serialize_node(node, 3, 4096))
    assert restored.entries == []


def test_capacities_match_struct_sizes():
    # leaf entry: 8 (id) + 8 * D; branch entry: 8 (child) + 16 * D;
    # header: 8 bytes.
    assert leaf_capacity(4096, 4) == (4096 - 8) // (8 + 32)
    assert branch_capacity(4096, 4) == (4096 - 8) // (8 + 64)
    # Leaves always pack at least as many entries as branches.
    for dims in range(2, 8):
        assert leaf_capacity(4096, dims) >= branch_capacity(4096, dims)


def test_capacity_grows_with_page_size_and_shrinks_with_dims():
    assert leaf_capacity(8192, 4) > leaf_capacity(4096, 4)
    assert leaf_capacity(4096, 6) < leaf_capacity(4096, 3)


def test_full_leaf_fits_exactly():
    dims = 5
    cap = leaf_capacity(4096, dims)
    node = leaf_node(dims=dims, count=cap)
    data = serialize_node(node, dims, 4096)
    assert len(data) <= 4096
    restored, _ = deserialize_node(0, data)
    assert len(restored.entries) == cap


def test_overflowing_node_rejected():
    dims = 5
    cap = leaf_capacity(4096, dims)
    node = leaf_node(dims=dims, count=cap + 1)
    with pytest.raises(SerializationError):
        serialize_node(node, dims, 4096)


def test_tiny_page_rejected():
    with pytest.raises(SerializationError):
        leaf_capacity(32, 6)


def test_bad_magic_rejected():
    node = leaf_node()
    data = bytearray(serialize_node(node, 3, 4096))
    data[0] ^= 0xFF
    with pytest.raises(SerializationError):
        deserialize_node(0, bytes(data))


def test_truncated_page_rejected():
    with pytest.raises(SerializationError):
        deserialize_node(0, b"\x5a\x00")


# 3-D entries: 32 bytes per leaf entry, 56 per branch entry.
@pytest.mark.parametrize("make,cut", [
    (leaf_node, 40),            # 1 of the 5 announced leaf entries
    (leaf_node, 8 + 2 * 32),    # 2 of 5: whole entries, no struct error
    (branch_node, 8 + 56 + 3),  # cut inside the second branch entry
    (leaf_node, 8),             # header only
])
def test_page_shorter_than_its_entry_count_rejected(make, cut):
    data = serialize_node(make(), 3, 4096)
    with pytest.raises(SerializationError, match="entries need"):
        deserialize_node(0, data[:cut])


def test_wrong_dims_entry_rejected():
    node = RTreeNode(0, 0, [Entry.for_object(1, (0.1, 0.2))])
    with pytest.raises(SerializationError):
        serialize_node(node, 3, 4096)


def test_float_values_survive_exactly():
    point = (0.1 + 0.2, 1.0 / 3.0, 2.0 ** -40)
    node = RTreeNode(0, 0, [Entry.for_object(7, point)])
    restored, _ = deserialize_node(0, serialize_node(node, 3, 4096))
    assert restored.entries[0].mbr.low == point  # bitwise identical

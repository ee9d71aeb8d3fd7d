"""Array-backed R-tree nodes: exact page decoding and no stale arrays.

A decoded page is a set of read-only arrays over the page bytes; the
``entries`` list is built from them only when asked for, and any access
to it drops the arrays (memory-backend nodes rebuild and cache them on
the next search). The reference below is the per-entry ``struct``
decoder the arrays replaced.
"""

import random
import struct

import numpy as np
import pytest

from repro.geometry import MBR
from repro.rtree import (
    DiskNodeStore,
    Entry,
    MemoryNodeStore,
    RTree,
    RTreeNode,
    branch_capacity,
    leaf_capacity,
)
from repro.rtree.serial import deserialize_node, serialize_node
from repro.skyline import bnl_skyline, compute_skyline
from repro.storage import BufferPool, DiskManager

PAGE = 4096


# ----------------------------------------------------------------------
# Reference: the per-entry struct decoder
# ----------------------------------------------------------------------
def reference_decode(data):
    """``(level, dims, [(child, low, high), ...])`` via struct.iter_unpack."""
    _magic, _flags, level, count, dims = struct.unpack_from("<BBHHH", data)
    width = dims if level == 0 else 2 * dims
    fmt = struct.Struct("<q" + "d" * width)
    body = data[8:8 + count * fmt.size]
    rows = []
    for values in fmt.iter_unpack(body):
        if level == 0:
            rows.append((values[0], values[1:], values[1:]))
        else:
            rows.append((values[0], values[1:1 + dims], values[1 + dims:]))
    return level, dims, rows


def bits(values):
    """The IEEE-754 bit patterns of a flat float sequence."""
    return np.asarray(values, dtype="<f8").reshape(-1).view("<u8").tolist()


def random_floats(rng, count):
    """Finite doubles of every magnitude, with signed zeros and subnormals."""
    special = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1.0, 0.5]
    out = []
    while len(out) < count:
        if rng.random() < 0.2:
            out.append(rng.choice(special))
            continue
        value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if np.isfinite(value):
            out.append(value)
    return out


def make_node(leaf, dims, count, seed):
    rng = random.Random(seed)
    entries = []
    for _ in range(count):
        child = rng.randrange(-2 ** 63, 2 ** 63)
        if leaf:
            entries.append(Entry.for_object(child, random_floats(rng, dims)))
        else:
            a, b = random_floats(rng, dims), random_floats(rng, dims)
            entries.append(Entry(
                MBR([min(x, y) for x, y in zip(a, b)],
                    [max(x, y) for x, y in zip(a, b)]), child))
    return RTreeNode(3, 0 if leaf else 1 + seed % 5, entries)


def capacity(leaf, dims):
    return leaf_capacity(PAGE, dims) if leaf else branch_capacity(PAGE, dims)


# ----------------------------------------------------------------------
# Decode exactness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fill", ["empty", "one", "full"])
@pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "branch"])
@pytest.mark.parametrize("dims", range(1, 9))
def test_decoded_arrays_and_entries_match_struct_reference(dims, leaf, fill):
    count = {"empty": 0, "one": 1, "full": capacity(leaf, dims)}[fill]
    node = make_node(leaf, dims, count, seed=dims * 10 + count)
    data = serialize_node(node, dims, PAGE)
    level, ref_dims, rows = reference_decode(data)

    decoded, got_dims = deserialize_node(41, data)
    assert (got_dims, ref_dims) == (dims, dims)
    assert decoded.node_id == 41 and decoded.level == level == node.level
    assert decoded.num_entries == count

    children, lows, highs = decoded.arrays()
    assert children.dtype == np.int64 and children.shape == (count,)
    assert lows.dtype == highs.dtype == np.float64
    assert lows.shape == highs.shape == (count, dims)
    assert children.tolist() == [child for child, _, _ in rows]
    assert bits(lows) == bits([low for _, low, _ in rows])
    assert bits(highs) == bits([high for _, _, high in rows])

    # A decoded node re-serializes to its own page, before and after
    # its entries are built.
    assert serialize_node(decoded, dims, PAGE) == data
    entries = decoded.entries
    assert [entry.child for entry in entries] == children.tolist()
    assert bits([entry.mbr.low for entry in entries]) == bits(
        [low for _, low, _ in rows])
    assert bits([entry.mbr.high for entry in entries]) == bits(
        [high for _, _, high in rows])
    assert all(type(entry.mbr.low) is tuple for entry in entries)
    assert serialize_node(decoded, dims, PAGE) == data


@pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "branch"])
@pytest.mark.parametrize("buffer", [bytes, bytearray])
def test_decoded_arrays_are_read_only(leaf, buffer):
    data = serialize_node(make_node(leaf, 3, 4, seed=2), 3, PAGE)
    page = buffer(data)
    children, lows, highs = deserialize_node(0, page)[0].arrays()
    with pytest.raises(ValueError):
        children[0] = 7
    with pytest.raises(ValueError):
        lows[0, 0] = 0.25
    with pytest.raises(ValueError):
        highs[1] = 0.5
    if buffer is bytearray:
        page[8:16] = bytes(8)  # the node does not see later page edits
        assert children.tolist() == [e.child for e in
                                     deserialize_node(0, data)[0].entries]


# ----------------------------------------------------------------------
# The mutation rule
# ----------------------------------------------------------------------
def test_entries_access_drops_the_arrays_of_a_decoded_node():
    data = serialize_node(make_node(False, 2, 5, seed=4), 2, PAGE)
    node, _ = deserialize_node(9, data)
    decoded = node.arrays()
    assert node.arrays() is decoded
    node.entries.pop()
    rebuilt = node.arrays()
    assert rebuilt is not decoded
    assert rebuilt[0].tolist() == decoded[0][:-1].tolist()
    assert not rebuilt[1].flags.writeable


def test_memory_node_caches_arrays_until_its_entries_are_touched():
    node = RTreeNode(1, 0, [Entry.for_object(i, (i / 10, 1 - i / 10))
                            for i in range(4)])
    cached = node.arrays()
    assert node.arrays() is cached
    node.entries.append(Entry.for_object(9, (0.95, 0.05)))
    appended = node.arrays()
    assert appended is not cached
    assert appended[0].tolist() == [0, 1, 2, 3, 9]
    assert appended[2][-1].tolist() == [0.95, 0.05]
    node.entries = node.entries[:2]
    assert node.arrays()[0].tolist() == [0, 1]
    assert RTreeNode(2, 1).arrays()[0].shape == (0,)


def visible_arrays(tree):
    """Walk the tree through arrays only: ``{node id: arrays}``."""
    seen = {}
    stack = [tree.root_id]
    while stack:
        node = tree.read_node(stack.pop())
        seen[node.node_id] = node.arrays()
        if node.level > 0:
            stack.extend(node.arrays()[0].tolist())
    return seen


def assert_arrays_match_entries(tree):
    """Every node's arrays equal its current entries (then drops them)."""
    stack = [tree.root_id]
    while stack:
        node = tree.read_node(stack.pop())
        children, lows, highs = node.arrays()
        entries = node.entries
        assert children.tolist() == [entry.child for entry in entries]
        assert [tuple(row) for row in lows.tolist()] == [
            entry.mbr.low for entry in entries]
        assert [tuple(row) for row in highs.tolist()] == [
            entry.mbr.high for entry in entries]
        if node.level > 0:
            stack.extend(entry.child for entry in entries)


def disk_tree(dims):
    # 168-byte pages: 6 points per leaf, 4 boxes per branch at D = 2.
    disk = DiskManager(page_size=8 + 4 * (8 + 16 * dims))
    store = DiskNodeStore(dims, disk, BufferPool(disk, capacity=4))
    return RTree(store, dims, forced_reinsert=True)


def memory_tree(dims):
    return RTree(MemoryNodeStore(fanout=4), dims, forced_reinsert=True)


@pytest.mark.parametrize("make_tree", [disk_tree, memory_tree],
                         ids=["disk", "memory"])
def test_skyline_stays_exact_through_rstar_churn(make_tree):
    dims = 2
    tree = make_tree(dims)
    rng = random.Random(17)
    live = {}
    heights = set()
    condensed = kept = 0
    next_id = 0
    for _ in range(160):
        # Cache arrays in every node (memory nodes keep them) so that a
        # node the next edit touches would have stale arrays to return.
        before = visible_arrays(tree)
        if live and (rng.random() < 0.4 or len(live) > 60):
            victim = rng.choice(sorted(live))
            tree.delete(victim, live.pop(victim))
            condensed += len(visible_arrays(tree)) < len(before)
        else:
            # A coarse grid: duplicate points and shared coordinates.
            point = (rng.randrange(8) / 7, rng.randrange(8) / 7)
            tree.insert(next_id, point)
            live[next_id] = point
            next_id += 1
        heights.add(tree.height)
        state = compute_skyline(tree)
        assert sorted(state.ids()) == [
            object_id for object_id, _ in bnl_skyline(sorted(live.items()))]
        after = visible_arrays(tree)
        kept += sum(after[node_id] is before.get(node_id) for node_id in after)
        assert_arrays_match_entries(tree)
    assert max(heights) >= 3  # splits grew the tree
    assert condensed  # deletes freed underfull nodes
    if make_tree is memory_tree:
        assert kept  # untouched memory nodes kept their cached arrays

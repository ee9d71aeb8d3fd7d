"""Hilbert curve index and Hilbert bulk loading."""

import itertools

import numpy as np
import pytest

from tests.conftest import check_rtree_invariants
from repro.data import generate_independent, generate_zillow
from repro.errors import RTreeError
from repro.rtree import (
    DiskNodeStore,
    MemoryNodeStore,
    RTree,
    hilbert_bulk_load,
    hilbert_index,
    hilbert_key_for_point,
    top1,
)
from repro.rtree.hilbert import hilbert_keys, hilbert_sort


def test_hilbert_is_a_bijection_2d():
    order = 3
    seen = {}
    for x, y in itertools.product(range(1 << order), repeat=2):
        seen[hilbert_index((x, y), order)] = (x, y)
    assert len(seen) == (1 << order) ** 2
    assert set(seen) == set(range((1 << order) ** 2))


def test_hilbert_is_a_bijection_3d():
    order = 2
    indices = {
        hilbert_index(coords, order)
        for coords in itertools.product(range(1 << order), repeat=3)
    }
    assert indices == set(range((1 << order) ** 3))


def test_hilbert_consecutive_cells_are_adjacent():
    # The defining locality property: consecutive curve positions are
    # lattice neighbors (L1 distance exactly 1).
    order = 4
    by_index = {}
    for x, y in itertools.product(range(1 << order), repeat=2):
        by_index[hilbert_index((x, y), order)] = (x, y)
    for i in range(len(by_index) - 1):
        ax, ay = by_index[i]
        bx, by = by_index[i + 1]
        assert abs(ax - bx) + abs(ay - by) == 1, i


def test_hilbert_validation():
    with pytest.raises(RTreeError):
        hilbert_index((), 4)
    with pytest.raises(RTreeError):
        hilbert_index((16,), 4)  # out of range for order 4
    with pytest.raises(RTreeError):
        hilbert_index((-1, 0), 4)


def test_key_for_point_clamps_and_discretizes():
    assert hilbert_key_for_point((0.0, 0.0)) == hilbert_key_for_point(
        (-0.5, -0.5)
    )
    assert hilbert_key_for_point((1.0, 1.0)) == hilbert_key_for_point(
        (2.0, 2.0)
    )
    # Distinct points get distinct keys at default precision.
    assert hilbert_key_for_point((0.1, 0.2)) != hilbert_key_for_point(
        (0.2, 0.1)
    )


def test_hilbert_bulk_load_contains_everything():
    dataset = generate_independent(1200, 3, seed=240)
    tree = hilbert_bulk_load(DiskNodeStore(3), 3, dataset.items())
    assert tree.num_objects == 1200
    assert sorted(oid for oid, _ in tree.iter_objects()) == dataset.ids
    check_rtree_invariants(tree)


def test_hilbert_bulk_load_empty_and_validation():
    tree = hilbert_bulk_load(MemoryNodeStore(8), 2, [])
    assert tree.num_objects == 0
    with pytest.raises(RTreeError):
        hilbert_bulk_load(MemoryNodeStore(8), 2, [(0, (0.1, 0.2))], fill=0.0)


def test_hilbert_tree_supports_queries_and_updates():
    dataset = generate_independent(800, 3, seed=241)
    tree = hilbert_bulk_load(MemoryNodeStore(16), 3, dataset.items())
    weights = (0.5, 0.3, 0.2)
    str_tree = RTree.bulk_load(MemoryNodeStore(16), 3, dataset.items())
    assert top1(tree, weights)[0] == top1(str_tree, weights)[0]
    points = dict(dataset.items())
    for object_id in dataset.ids[:50]:
        tree.delete(object_id, points[object_id])
    assert tree.num_objects == 750
    check_rtree_invariants(tree)


def test_hilbert_and_str_have_comparable_size():
    dataset = generate_zillow(3000, seed=242)
    str_store = DiskNodeStore(5)
    RTree.bulk_load(str_store, 5, dataset.items())
    hilbert_store = DiskNodeStore(5)
    hilbert_bulk_load(hilbert_store, 5, dataset.items())
    ratio = hilbert_store.disk.num_pages / str_store.disk.num_pages
    assert 0.8 <= ratio <= 1.25


# ----------------------------------------------------------------------
# Vectorized keys: exactly the scalar reference
# ----------------------------------------------------------------------
def _key_from_words(words):
    key = 0
    for word in words:
        key = (key << 64) | int(word)
    return key


def _awkward_points(dims, seed):
    """Random points plus the cube's corners, out-of-range coordinates
    (clamped) and several points sharing one lattice cell."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-0.25, 1.25, size=(160, dims))
    points[0] = 0.0
    points[1] = 1.0
    points[2] = -3.0
    points[3] = 7.5
    points[4, ::2] = 1.0
    points[5] = points[6] = points[7]          # identical points
    points[8] = points[9] + 1e-9               # same lattice cell
    points[10:20] = rng.integers(0, 3, size=(10, dims)) / 2
    return points


@pytest.mark.parametrize("dims", range(1, 9))
def test_vectorized_keys_equal_scalar_keys(dims):
    # Order 16 over 1-8 dimensions covers keys of 16 to 128 bits, i.e.
    # one and two 64-bit words.
    points = _awkward_points(dims, seed=250 + dims)
    words = hilbert_keys(points, 16)
    assert words.shape == (len(points), -(-16 * dims // 64))
    for point, row in zip(points, words):
        assert _key_from_words(row) == hilbert_key_for_point(point, 16)


@pytest.mark.parametrize("order", [1, 2, 5, 32])
def test_vectorized_keys_equal_scalar_keys_at_other_orders(order):
    points = _awkward_points(5, seed=260 + order)
    for point, row in zip(points, hilbert_keys(points, order)):
        assert _key_from_words(row) == hilbert_key_for_point(point, order)


def test_hilbert_sort_orders_by_key_then_id():
    points = _awkward_points(5, seed=270)
    ids = np.random.default_rng(271).permutation(len(points)) * 3
    reference = sorted(
        range(len(points)),
        key=lambda row: (hilbert_key_for_point(points[row]), ids[row]),
    )
    assert hilbert_sort(points, ids).tolist() == reference


def test_hilbert_keys_validation():
    with pytest.raises(RTreeError):
        hilbert_keys(np.zeros(4))
    with pytest.raises(RTreeError):
        hilbert_keys(np.zeros((4, 2)), order=33)


def _leaf_runs(tree):
    """Object ids leaf by leaf, in the order the leaves were packed."""
    leaves = []
    stack = [tree.root_id]
    while stack:
        node = tree.store.read(stack.pop())
        if node.is_leaf:
            leaves.append((node.node_id, [e.child for e in node.entries]))
        else:
            stack.extend(entry.child for entry in node.entries)
    return [ids for _, ids in sorted(leaves)]


def test_hilbert_bulk_load_packs_in_scalar_key_order():
    dataset = generate_zillow(1500, seed=243)
    items = list(dataset.items())
    tree = hilbert_bulk_load(DiskNodeStore(5), 5, items)
    packed = [oid for run in _leaf_runs(tree) for oid in run]
    expected = sorted(items, key=lambda item: (
        hilbert_key_for_point(item[1]), item[0]))
    assert packed == [object_id for object_id, _ in expected]

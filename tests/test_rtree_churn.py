"""Interleaved insert/delete churn: the dynamic session's tree workload.

A session compaction applies deletes and inserts back to back, over and
over, for the lifetime of the tree — a very different pattern from the
one-shot build + monotone-delete workload the static matchers exercise.
These tests drive long interleaved schedules and assert, throughout,
structural validity (``validate_tree``) and query correctness (``topk``
against brute force over the surviving pool).
"""

import random

import pytest

from repro.data import generate_clustered, generate_independent
from repro.prefs import canonical_score, generate_preferences
from repro.rtree import (
    DiskNodeStore,
    MemoryNodeStore,
    RTree,
    topk,
    validate_tree,
)


def brute_topk(pool, weights, k):
    ranked = sorted(
        pool.items(),
        key=lambda item: (-canonical_score(weights, item[1]), item[0]),
    )
    return [(oid, point) for oid, point in ranked[:k]]


@pytest.mark.parametrize("store_factory,fanout", [
    (lambda dims: MemoryNodeStore(8), 8),
    (lambda dims: DiskNodeStore(dims), None),
])
def test_interleaved_churn_preserves_validity_and_queries(store_factory,
                                                          fanout):
    dims = 3
    dataset = generate_independent(500, dims, seed=91)
    items = list(dataset.items())
    seed_items, arrivals = items[:300], items[300:]
    tree = RTree.bulk_load(store_factory(dims), dims, seed_items)
    pool = dict(seed_items)
    arrivals = list(arrivals)
    functions = generate_preferences(5, dims, seed=92)
    rng = random.Random(93)

    for step in range(220):
        if arrivals and (rng.random() < 0.5 or len(pool) < 20):
            object_id, point = arrivals.pop()
            tree.insert(object_id, point)
            pool[object_id] = point
        else:
            object_id = rng.choice(sorted(pool))
            tree.delete(object_id, pool.pop(object_id))
        if step % 20 == 0:
            assert validate_tree(tree) == len(pool)
            for function in functions:
                got = [
                    (oid, point)
                    for oid, point, _ in topk(tree, function.weights, 3)
                ]
                assert got == brute_topk(pool, function.weights, 3)
    assert validate_tree(tree) == len(pool)


def test_churn_to_empty_and_refill():
    dims = 2
    tree = RTree(MemoryNodeStore(6), dims=dims)
    rng = random.Random(94)
    pool = {}
    for object_id in range(60):
        point = (rng.random(), rng.random())
        tree.insert(object_id, point)
        pool[object_id] = point
    for object_id in sorted(pool):
        tree.delete(object_id, pool.pop(object_id))
    assert validate_tree(tree) == 0
    assert tree.height == 1
    for object_id in range(100, 180):
        point = (rng.random(), rng.random())
        tree.insert(object_id, point)
        pool[object_id] = point
    assert validate_tree(tree) == 80
    weights = (0.5, 0.5)
    got = [(oid, p) for oid, p, _ in topk(tree, weights, 5)]
    assert got == brute_topk(pool, weights, 5)


def test_clustered_churn_with_duplicates():
    # Clustered data with coarse coordinates: duplicate points and deep
    # overlap stress the delete path's leaf search and condensation.
    dims = 2
    dataset = generate_clustered(300, dims, clusters=4, seed=95,
                                 spread=0.02)
    coarse = [
        (round(x * 20) / 20, round(y * 20) / 20)
        for x, y in (point for _, point in dataset.items())
    ]
    tree = RTree(MemoryNodeStore(5), dims=dims)
    pool = {}
    rng = random.Random(96)
    next_id = 0
    for point in coarse[:150]:
        tree.insert(next_id, point)
        pool[next_id] = point
        next_id += 1
    for point in coarse[150:]:
        victim = rng.choice(sorted(pool))
        tree.delete(victim, pool.pop(victim))
        tree.insert(next_id, point)
        pool[next_id] = point
        next_id += 1
        if next_id % 25 == 0:
            assert validate_tree(tree) == len(pool)
    assert validate_tree(tree) == len(pool)
    weights = (0.7, 0.3)
    got = [(oid, p) for oid, p, _ in topk(tree, weights, 10)]
    assert got == brute_topk(pool, weights, 10)

"""Shared fixtures and invariant checkers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MatchPair
from repro.data import generate_independent
from repro.geometry import MBR
from repro.prefs import canonical_score, tight_threshold
from repro.prefs.index import TA_STOP_MARGIN
from repro.rtree import DiskNodeStore, RTree


def check_rtree_invariants(tree: RTree) -> None:
    """Structural invariants every R-tree must satisfy at all times.

    * levels decrease by exactly one from parent to child, leaves at 0;
    * the root is at level ``height - 1``;
    * every branch entry's MBR is exactly the union of its child's
      entries (the implementation maintains tight boxes);
    * no node exceeds its capacity; non-root nodes are non-empty;
    * object ids at the leaves are unique and count to ``num_objects``.
    """
    root = tree.read_root()
    assert root.level == tree.height - 1
    seen_objects = []

    def visit(node):
        assert len(node.entries) <= tree.capacity(node.level)
        if node.node_id != tree.root_id:
            assert node.entries, "non-root node must be non-empty"
        if node.is_leaf:
            for entry in node.entries:
                assert entry.mbr.is_point
                seen_objects.append(entry.child)
            return
        for entry in node.entries:
            child = tree.read_node(entry.child)
            assert child.level == node.level - 1
            assert entry.mbr == MBR.union_all(e.mbr for e in child.entries)
            visit(child)

    visit(root)
    assert len(seen_objects) == tree.num_objects
    assert len(set(seen_objects)) == len(seen_objects)


@pytest.fixture
def small_disk_tree():
    """A 300-object, 3-dimensional bulk-loaded disk tree (plus dataset)."""
    dataset = generate_independent(300, 3, seed=11)
    store = DiskNodeStore(3)
    tree = RTree.bulk_load(store, 3, dataset.items())
    return tree, dataset


def reference_reverse_top1(index, point, stats=None):
    """One row's reverse top-1 by the per-point TA scan.

    This is the scan :meth:`repro.prefs.FunctionIndex.reverse_top1`
    replaced with one lockstep pass over all rows: round-robin over the
    coefficient-sorted lists, scoring each newly seen alive function
    with :func:`canonical_score`, until the best score strictly exceeds
    the threshold (plus ``TA_STOP_MARGIN``), every alive function has
    been seen, or the lists run out. Returns ``(fid, score)``; an empty
    index answers ``(-1, -inf)``.
    """
    alive = index._alive
    if not alive:
        return -1, float("-inf")
    assert len(point) == index.dims
    lists = index._lists
    dims = index.dims
    positions = [0] * dims
    last_seen = [None] * dims
    seen = set()
    best_fid = -1
    best_score = float("-inf")
    order = sorted(range(dims), key=lambda d: -point[d])
    while True:
        progressed = False
        for d in range(dims):
            lst = lists[d]
            pos = positions[d]
            while pos < len(lst) and lst[pos][1] not in alive:
                pos += 1
            if pos >= len(lst):
                positions[d] = pos
                continue
            coefficient, fid = lst[pos]
            positions[d] = pos + 1
            last_seen[d] = coefficient
            progressed = True
            if fid not in seen:
                seen.add(fid)
                score = canonical_score(alive[fid].weights, point)
                if stats is not None:
                    stats.score_evaluations += 1
                if score > best_score or (
                    score == best_score and fid < best_fid
                ):
                    best_score = score
                    best_fid = fid
        if not progressed:
            break
        if len(seen) >= len(alive):
            break
        if None not in last_seen:
            if index.threshold == "naive":
                bound = 0.0
                for cap, x in zip(last_seen, point):
                    bound += cap * x
            else:
                bound = tight_threshold(point, last_seen, order)
            if stats is not None:
                stats.comparisons += 1
            if best_score > bound + TA_STOP_MARGIN:
                break
    return best_fid, best_score


def reference_greedy_pairs(scores, fids, object_ids):
    """The canonical greedy by a full lexsort of every cell.

    This is the greedy :func:`repro.engine.batch.greedy_pairs_from_scores`
    replaced with a sort of each row's top-``min(F, |O|)`` candidates:
    every one of the F x |O| cells is sorted by (score desc, fid asc,
    oid asc), and the cells are taken in that order whenever both their
    function and their object are still free. Returns the pairs as
    :class:`MatchPair` objects with ``round`` and ``rank`` equal to the
    emission index.
    """
    num_functions, num_objects = scores.shape
    limit = min(num_functions, num_objects)
    pairs = []
    if limit == 0:
        return pairs
    flat = scores.ravel()
    fid_keys = np.repeat(np.asarray(fids, dtype=np.int64), num_objects)
    oid_keys = np.tile(np.asarray(object_ids, dtype=np.int64),
                       num_functions)
    order = np.lexsort((oid_keys, fid_keys, -flat))
    function_taken = np.zeros(num_functions, dtype=bool)
    object_taken = np.zeros(num_objects, dtype=bool)
    for index in order:
        row, column = divmod(int(index), num_objects)
        if function_taken[row] or object_taken[column]:
            continue
        function_taken[row] = True
        object_taken[column] = True
        pairs.append(
            MatchPair(int(fid_keys[index]), int(oid_keys[index]),
                      float(flat[index]),
                      round=len(pairs), rank=len(pairs))
        )
        if len(pairs) == limit:
            break
    return pairs


def reference_score_matrix(weights, points):
    """Canonical scores by the full-width loop.

    This is the loop :func:`repro.prefs.canonical_score_matrix` replaced
    with row blocks: a zeroed ``(F, |O|)`` matrix, and for each dimension
    in order a full ``(F, |O|)`` product of the weight column and the
    strided point column, added in.
    """
    weights = np.asarray(weights, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    scores = np.zeros((weights.shape[0], points.shape[0]))
    for d in range(weights.shape[1] if points.shape[0] else 0):
        scores += weights[:, d, None] * points[None, :, d]
    return scores

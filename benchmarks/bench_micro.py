"""Micro-benchmarks of the substrates (regression tracking).

These do not correspond to a paper figure; they pin the performance of
the building blocks so a slow-down in any layer is visible in isolation.
"""

import pytest

from repro.core import MatchingProblem
from repro.data import generate_anticorrelated, generate_independent
from repro.engine import MatchingConfig, create_matcher, get_backend
from repro.prefs import FunctionIndex, generate_preferences
from repro.rtree import DiskNodeStore, RTree, top1
from repro.skyline import compute_skyline, update_after_removal

N_OBJECTS = 5000
N_FUNCTIONS = 250
DIMS = 4
SEED = 123


@pytest.fixture(scope="module")
def dataset():
    return generate_independent(N_OBJECTS, DIMS, seed=SEED)


@pytest.fixture(scope="module")
def anti_dataset():
    return generate_anticorrelated(N_OBJECTS, DIMS, seed=SEED)


def test_micro_bulk_load(benchmark, dataset):
    def build():
        store = DiskNodeStore(DIMS)
        return RTree.bulk_load(store, DIMS, dataset.items())

    tree = benchmark(build)
    assert tree.num_objects == N_OBJECTS


def test_micro_incremental_insert(benchmark, dataset):
    items = list(dataset.items())[:1000]

    def build():
        store = DiskNodeStore(DIMS)
        tree = RTree(store, DIMS)
        for object_id, point in items:
            tree.insert(object_id, point)
        return tree

    tree = benchmark(build)
    assert tree.num_objects == 1000


def test_micro_ranked_top1(benchmark, dataset):
    store = DiskNodeStore(DIMS)
    tree = RTree.bulk_load(store, DIMS, dataset.items())
    functions = generate_preferences(100, DIMS, seed=SEED + 1)

    def run():
        return [top1(tree, f.weights)[0] for f in functions]

    hits = benchmark(run)
    assert len(hits) == 100


def test_micro_bbs_skyline(benchmark, anti_dataset):
    store = DiskNodeStore(DIMS)
    tree = RTree.bulk_load(store, DIMS, anti_dataset.items())

    def run():
        return compute_skyline(tree)

    state = benchmark(run)
    assert len(state) > 10


def test_micro_skyline_maintenance(benchmark, anti_dataset):
    store = DiskNodeStore(DIMS)
    tree = RTree.bulk_load(store, DIMS, anti_dataset.items())

    def run():
        state = compute_skyline(tree)
        removed = 0
        while removed < 50 and len(state):
            victim = state.ids()[0]
            update_after_removal(tree, state, state.remove(victim))
            removed += 1
        return removed

    assert benchmark(run) == 50


def test_micro_reverse_top1(benchmark, dataset):
    functions = generate_preferences(N_FUNCTIONS * 4, DIMS, seed=SEED + 2)
    index = FunctionIndex(functions)
    points = [point for _, point in list(dataset.items())[:200]]

    def run():
        return index.reverse_top1(points)[0]

    assert len(benchmark(run)) == 200


def test_micro_problem_build(benchmark, dataset):
    functions = generate_preferences(N_FUNCTIONS, DIMS, seed=SEED + 3)

    def build():
        return MatchingProblem.build(dataset, functions)

    problem = benchmark(build)
    assert problem.tree.num_objects == N_OBJECTS


def _sb_backend_run(benchmark, dataset, backend):
    """SB hot path on one storage backend (staged once, matched per round).

    The disk backend pays page (de)serialization and buffer bookkeeping
    on every node touch; the memory backend pins how much of SB's cost
    is the simulated I/O layer rather than the algorithm itself.
    Anti-correlated data keeps the skyline (and hence the tree traffic)
    large — the hard case for the storage layer.
    """
    functions = generate_preferences(N_FUNCTIONS, DIMS, seed=SEED + 4)
    config = MatchingConfig(algorithm="sb", backend=backend)
    problem = get_backend(backend).build_problem(dataset, functions, config)

    def run():
        problem.reset_io()
        return create_matcher(config.algorithm, problem, config).run()

    matching = benchmark(run)
    assert len(matching) == N_FUNCTIONS
    return matching


def test_micro_sb_disk_backend(benchmark, anti_dataset):
    _sb_backend_run(benchmark, anti_dataset, "disk")


def test_micro_sb_memory_backend(benchmark, anti_dataset):
    _sb_backend_run(benchmark, anti_dataset, "memory")

"""The sharded parallel layer: partitioning, executors, plan plumbing."""

import gc
import multiprocessing
import threading
import warnings

import pytest

import repro
from repro import MatchingConfig, available_executors
from repro.data import generate_independent
from repro.engine import create_matcher, get_backend
from repro.errors import MatchingError
from repro.parallel import (
    ShardedMatcher,
    ShardWorkerPool,
    hilbert_ranges,
    is_sharded_algorithm,
    run_shard_tasks,
)
from repro.prefs import generate_preferences
from repro.rtree.hilbert import hilbert_key_for_point
from repro.storage import SearchStats


def tiny_workload(n_objects=300, n_functions=12, dims=3, seed=70):
    objects = generate_independent(n_objects, dims, seed=seed)
    functions = generate_preferences(n_functions, dims, seed=seed + 1)
    return objects, functions


def assignments(result):
    return sorted(
        (pair.function_id, pair.object_id, pair.score)
        for pair in result.pairs
    )


def memory_problem(objects, functions):
    config = MatchingConfig(backend="memory")
    return get_backend("memory").build_problem(objects, functions, config)


# ----------------------------------------------------------------------
# Hilbert partitioning
# ----------------------------------------------------------------------
def test_hilbert_ranges_partition_the_items():
    objects, _ = tiny_workload(n_objects=101)
    items = list(objects.items())
    parts = hilbert_ranges(items, 4)
    assert len(parts) == 4
    # Near-equal cardinalities and a complete, disjoint cover.
    sizes = [len(part) for part in parts]
    assert max(sizes) - min(sizes) <= 1
    flattened = [object_id for part in parts for object_id, _ in part]
    assert sorted(flattened) == sorted(object_id for object_id, _ in items)
    assert len(set(flattened)) == len(items)


def test_hilbert_ranges_are_contiguous_in_hilbert_order():
    objects, _ = tiny_workload(n_objects=64)
    parts = hilbert_ranges(list(objects.items()), 4)
    keys = [
        [hilbert_key_for_point(point) for _, point in part]
        for part in parts
    ]
    # Every shard's key range precedes the next shard's.
    for left, right in zip(keys, keys[1:]):
        if left and right:
            assert max(left) <= min(right)


def test_hilbert_ranges_more_shards_than_items():
    objects, _ = tiny_workload(n_objects=3)
    parts = hilbert_ranges(list(objects.items()), 10)
    assert len(parts) == 10
    assert sum(len(part) for part in parts) == 3
    assert all(len(part) <= 1 for part in parts)


def test_hilbert_ranges_deterministic_and_validating():
    objects, _ = tiny_workload(n_objects=40)
    items = list(objects.items())
    assert hilbert_ranges(items, 3) == hilbert_ranges(list(reversed(items)), 3)
    with pytest.raises(MatchingError, match="shards"):
        hilbert_ranges(items, 0)


# ----------------------------------------------------------------------
# Config + registry surface
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [
    dict(shards=0),
    dict(shards=-2),
    dict(executor="gpu"),
    dict(max_workers=0),
])
def test_parallel_config_validation(bad):
    with pytest.raises(MatchingError):
        MatchingConfig(**bad)


def test_available_executors():
    assert set(available_executors()) == {"process", "thread", "serial",
                                          "remote"}


def test_sharded_algorithm_registered():
    assert "sharded-sb" in repro.available_algorithms()
    assert is_sharded_algorithm("sharded-sb")
    assert is_sharded_algorithm("ssb")
    assert is_sharded_algorithm("parallel-sb")
    assert not is_sharded_algorithm("sb")


def test_run_shard_tasks_rejects_unknown_executor():
    with pytest.raises(MatchingError, match="executor"):
        run_shard_tasks([], executor="gpu")
    assert run_shard_tasks([], executor="serial") == []


# ----------------------------------------------------------------------
# Facade plumbing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_match_with_shards_equals_single_process(executor):
    objects, functions = tiny_workload(seed=71)
    single = repro.match(objects, functions, backend="memory")
    sharded = repro.match(
        objects, functions, backend="memory",
        shards=3, executor=executor,
    )
    assert assignments(sharded) == assignments(single)
    assert sharded.algorithm == "sharded-sb"
    assert sharded.stats["shards_used"] == 3


def test_match_by_sharded_algorithm_name():
    objects, functions = tiny_workload(seed=72)
    single = repro.match(objects, functions, backend="memory")
    named = repro.match(
        objects, functions, backend="memory",
        algorithm="sharded-sb", executor="serial",
    )
    # Selecting the algorithm by name opts into the default fan-out.
    assert named.stats["shards_used"] > 1
    assert assignments(named) == assignments(single)


def test_sharded_io_is_aggregated_across_shards():
    objects, functions = tiny_workload(seed=74)
    single = repro.match(objects, functions, algorithm="sb", backend="disk")
    sharded = repro.match(objects, functions, backend="disk",
                          shards=4, executor="serial")
    assert assignments(sharded) == assignments(single)
    # Workers simulate their own disks; the result must see their I/O.
    assert sharded.io_accesses > 0


def test_sharded_search_stats_are_aggregated():
    objects, functions = tiny_workload(seed=75)
    config = MatchingConfig(backend="memory", shards=3, executor="serial")
    stats = SearchStats()
    matcher = ShardedMatcher(memory_problem(objects, functions), config,
                             base_algorithm="sb", search_stats=stats)
    assert list(matcher.pairs())
    assert stats.dominance_checks > 0
    assert stats.score_evaluations > 0


def test_staged_reuse_survives_sharded_runs():
    objects, functions = tiny_workload(seed=76)
    other = generate_preferences(12, 3, seed=176)
    with repro.plan(backend="memory", shards=3,
                    executor="serial").prepare(objects) as prepared:
        first = prepared.run(functions)
        prepared.run(other)  # a true rerun, not a cache hit
        second = prepared.run(functions)
        assert prepared.stagings == 1  # the parent problem was reused
    assert assignments(first) == assignments(second)


def test_one_shot_sharded_match_closes_its_pool(monkeypatch):
    # repro.match owns the prepared state it builds, so it must release
    # the worker pool before returning rather than leave it to the GC.
    objects, functions = tiny_workload(n_objects=60, seed=69)
    closed = []
    close = ShardWorkerPool.close

    def spy(self):
        closed.append(self)
        close(self)

    monkeypatch.setattr(ShardWorkerPool, "close", spy)
    result = repro.match(objects, functions, backend="memory",
                         shards=2, executor="serial")
    assert len(closed) == 1
    assert result.stats["shards_used"] == 2


def test_one_shot_process_match_leaves_no_workers_behind():
    objects, functions = tiny_workload(n_objects=60, seed=69)
    threads_before = set(threading.enumerate())
    gc_was_enabled = gc.isenabled()
    gc.disable()  # whatever is reaped must be reaped by match() itself
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            repro.match(objects, functions, backend="memory",
                        shards=2, executor="process")
        children = multiprocessing.active_children()
        new_threads = set(threading.enumerate()) - threads_before
    finally:
        if gc_was_enabled:
            gc.enable()
    if any("process executor unavailable" in str(warning.message)
           for warning in caught):
        pytest.skip("process executor unavailable on this platform")
    assert children == []
    assert new_threads == set()


def test_sharded_stats_always_report_full_counter_set():
    # One object: the degenerate delegation path, where every sharded
    # counter is zero — the keys must exist anyway.
    objects, functions = tiny_workload(n_objects=1, seed=68)
    result = repro.match(objects, functions, backend="memory",
                         shards=4, executor="serial")
    assert result.stats["shards_used"] == 1
    assert result.stats["merge_displaced"] == 0
    assert result.stats["repair_chains"] == 0
    assert result.stats["repair_steals"] == 0


def test_open_session_rejects_sharded_configs():
    objects, functions = tiny_workload(seed=77)
    with pytest.raises(MatchingError, match="single-process"):
        repro.open_session(objects, functions, shards=4)
    with pytest.raises(MatchingError, match="repair"):
        repro.open_session(objects, functions, algorithm="sharded-sb")


# ----------------------------------------------------------------------
# Parent-problem bulk load is skipped on the sharded path
# ----------------------------------------------------------------------
def test_sharded_match_skips_parent_bulk_load(monkeypatch):
    # The merge/repair pass reads only problem.objects, so the serving
    # pipeline stages the parent problem *deferred*: only the K shard
    # trees are ever bulk-loaded — and the result stays pair-identical.
    objects, functions = tiny_workload(seed=66)
    single = repro.match(objects, functions, backend="memory")

    from repro.rtree import RTree

    loads = []
    original = RTree.bulk_load.__func__

    def counting_bulk_load(cls, store, dims, items, **kwargs):
        items = list(items)
        loads.append(len(items))
        return original(cls, store, dims, items, **kwargs)

    monkeypatch.setattr(RTree, "bulk_load",
                        classmethod(counting_bulk_load))
    sharded = repro.match(objects, functions, backend="memory",
                          shards=3, executor="serial")
    assert assignments(sharded) == assignments(single)
    # Three shard trees, no parent tree: 3 loads covering |O| once.
    assert len(loads) == 3
    assert sum(loads) == len(objects)


def test_engine_sharded_serving_reuses_pool_and_shard_trees():
    objects, _ = tiny_workload(seed=67)
    prefs = generate_preferences(10, 3, seed=400)
    reference = repro.match(objects, prefs, backend="memory")
    with repro.plan(backend="memory", shards=3,
                    executor="thread").prepare(objects) as prepared:
        for round_number in range(5):
            warm = prepared.run(prefs)
            assert assignments(warm) == assignments(reference)
        assert not prepared.parent_tree_built
        # One cold fan-out, then four cache hits — the pool spawned at
        # most once and the shard trees were staged exactly once.
        assert prepared.pool.spawn_count <= 1
        assert prepared.cache.info()["hits"] == 4


# ----------------------------------------------------------------------
# ShardedMatcher guards
# ----------------------------------------------------------------------
def test_sharded_matcher_rejects_non_canonical_base():
    objects, functions = tiny_workload(seed=78)
    problem = memory_problem(objects, functions)
    config = MatchingConfig(backend="memory")
    with pytest.raises(MatchingError, match="cannot run sharded"):
        ShardedMatcher(problem, config, base_algorithm="generic-sb")
    with pytest.raises(MatchingError, match="unknown base algorithm"):
        ShardedMatcher(problem, config, base_algorithm="oracle")
    with pytest.raises(MatchingError, match="itself sharded"):
        ShardedMatcher(problem, config, base_algorithm="sharded-sb")


def test_sharded_matcher_single_shard_delegates_exactly():
    objects, functions = tiny_workload(seed=79)
    problem = memory_problem(objects, functions)
    config = MatchingConfig(backend="memory")
    matcher = ShardedMatcher(problem, config, base_algorithm="sb", shards=1)
    sharded_pairs = [
        (p.function_id, p.object_id, p.score, p.round, p.rank)
        for p in matcher.pairs()
    ]
    fresh = memory_problem(objects, functions)
    direct = [
        (p.function_id, p.object_id, p.score, p.round, p.rank)
        for p in create_matcher("sb", fresh, config).pairs()
    ]
    # Pair-for-pair identical *including* round/rank provenance.
    assert sharded_pairs == direct
    assert matcher.shards_used == 1

"""The sharded request path's payloads and parent-side cost.

Shards travel as ``(ids, points)`` arrays cut by ``hilbert_shards``, the
cross-shard repair is seeded with the shard winners only, and a process
pool places shard ``i`` of run ``r`` on worker ``(i + r) mod W``. Each
piece is checked against what it replaced: the tuple partition of
``hilbert_ranges``, ``Dataset.from_mapping`` staging, and a repair
engine seeded with every object of the parent problem.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import MatchingConfig
from repro.core.capacity import expand_capacities
from repro.data import Dataset, generate_independent
from repro.dynamic import RepairEngine
from repro.engine.backends import get_backend
from repro.parallel import (
    ShardWorkerPool,
    cross_shard_repair,
    hilbert_ranges,
    merge_shard_pairs,
)
from repro.parallel.partition import hilbert_shards
from repro.parallel.shard import ShardTask, _staged_problem, run_shard_task
from repro.prefs import LinearPreference, generate_preferences
from repro.rtree.hilbert import hilbert_key_for_point
from repro.storage import SearchStats

coarse = st.integers(min_value=0, max_value=3).map(lambda v: v / 3)
fine = st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                 allow_infinity=False).map(lambda v: round(v, 6))
coordinate = st.one_of(coarse, fine)
positive = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)


def scalar_hilbert_ranges(items, shards):
    """The partition as it was computed before vectorized keys."""
    ordered = sorted(
        items, key=lambda item: (hilbert_key_for_point(item[1]), item[0])
    )
    base, extra = divmod(len(ordered), shards)
    parts, start = [], 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        parts.append(ordered[start:start + size])
        start += size
    return parts


def shuffled_dataset(points, seed):
    """A dataset whose ids are neither dense nor in row order."""
    ids = np.random.default_rng(seed).permutation(len(points)) * 7 + 3
    return Dataset([list(point) for point in points], ids=ids.tolist())


# ----------------------------------------------------------------------
# Partition: the same cut, now as arrays
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(coordinate, coordinate, coordinate),
                min_size=0, max_size=40),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**16))
def test_hilbert_ranges_unchanged(points, shards, seed):
    items = list(shuffled_dataset(points, seed).items()) if points else []
    assert hilbert_ranges(items, shards) == scalar_hilbert_ranges(
        items, shards)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(coordinate, coordinate), min_size=1,
                max_size=40),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**16))
def test_staged_shard_equals_from_mapping_of_the_old_items(points, shards,
                                                          seed):
    objects = shuffled_dataset(points, seed)
    old_parts = scalar_hilbert_ranges(list(objects.items()), shards)
    config = MatchingConfig(backend="memory")
    for index, ((ids, rows), old) in enumerate(
            zip(hilbert_shards(objects, shards), old_parts)):
        assert ids.dtype == np.int64 and rows.dtype == np.float64
        expected = Dataset.from_mapping(dict(old), objects.dims)
        if not old:
            assert len(ids) == 0 and rows.shape == (0, objects.dims)
            continue
        task = ShardTask(index=index, ids=ids, points=rows, functions=(),
                         config=config)
        staged, was_staged = _staged_problem(task)
        assert was_staged
        assert staged.objects.ids == expected.ids
        assert staged.objects.matrix.tobytes() == expected.matrix.tobytes()
        assert staged.objects.name == f"shard-{index}"


# ----------------------------------------------------------------------
# Repair: winners only, same work as an all-objects seed
# ----------------------------------------------------------------------
class _TreeGuard:
    """The parent problem minus its tree: touching ``tree`` fails."""

    def __init__(self, problem):
        self.objects = problem.objects
        self.functions = problem.functions

    @property
    def tree(self):
        raise AssertionError("the cross-shard repair resolved the tree")


def _all_objects_repair(problem, config, merged, displaced, stats):
    """The repair as it ran before: an engine over every object."""
    engine = RepairEngine(problem, config.replace(deletion_mode="filter"),
                          search_stats=stats)
    engine.seed_matching(merged)
    for object_id in displaced:
        engine.release_object(object_id)
    return engine


def _exact(engine):
    return [(pair.function_id, pair.object_id, pair.score.hex())
            for pair in engine.pairs()]


def assert_repairs_agree(objects, functions, shards):
    config = MatchingConfig(backend="memory")
    outcomes = [
        run_shard_task(ShardTask(index=index, ids=ids, points=points,
                                 functions=tuple(functions), config=config))
        for index, (ids, points) in enumerate(hilbert_shards(objects,
                                                             shards))
    ]
    merged, displaced = merge_shard_pairs(o.pairs for o in outcomes)
    problem = get_backend("memory").build_problem(objects, functions,
                                                  config)
    old_stats, new_stats = SearchStats(), SearchStats()
    old = _all_objects_repair(problem, config, merged, displaced, old_stats)
    new = cross_shard_repair(_TreeGuard(problem), config, merged, displaced,
                             search_stats=new_stats)
    assert _exact(new) == _exact(old)
    assert new.stats.chains == old.stats.chains == len(displaced)
    assert new.stats.steals == old.stats.steals
    assert new_stats.score_evaluations == old_stats.score_evaluations
    assert len(new.points) <= shards * len(functions)
    reference = repro.match(objects, functions, backend="memory")
    assert sorted(_exact(new)) == sorted(
        (p.function_id, p.object_id, p.score.hex()) for p in reference.pairs
    )


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(coordinate, coordinate), min_size=1,
                max_size=30),
       st.lists(st.tuples(positive, positive), min_size=1, max_size=9),
       st.integers(min_value=2, max_value=5),
       st.one_of(st.none(),
                 st.lists(st.integers(min_value=0, max_value=3),
                          min_size=1, max_size=8)))
def test_winners_only_repair_equals_all_objects_repair(points, raw_weights,
                                                       shards, raw_caps):
    # Coarse grids make exact score ties and duplicate points; short
    # point lists give shards fewer objects than functions, and with
    # K > |O| some shards are empty. Capacities expand objects into
    # virtual copies first, as the facade does before sharding.
    objects = Dataset([list(point) for point in points])
    if raw_caps is not None:
        objects, _ = expand_capacities(objects, {
            object_id: raw_caps[object_id % len(raw_caps)]
            for object_id in objects.ids
        })
        if not len(objects):
            return
    functions = [LinearPreference.normalized(fid, list(weights))
                 for fid, weights in enumerate(raw_weights)]
    assert_repairs_agree(objects, functions, shards)


@pytest.mark.parametrize("shards", [2, 3, 4, 5])
def test_winners_only_repair_on_a_denser_workload(shards):
    objects = generate_independent(250, 3, seed=280 + shards)
    functions = generate_preferences(16, 3, seed=290 + shards)
    assert_repairs_agree(objects, functions, shards)


# ----------------------------------------------------------------------
# Parent-side cost of a warm request
# ----------------------------------------------------------------------
def test_warm_sharded_run_does_no_per_object_work(monkeypatch):
    objects = generate_independent(400, 3, seed=300)
    prepared = repro.plan(backend="memory", shards=3,
                          executor="serial").prepare(objects)
    prepared.run(generate_preferences(6, 3, seed=301))  # stages shards
    functions = generate_preferences(12, 3, seed=302)
    tasks = []
    fan_out = ShardWorkerPool.run
    iterate = Dataset.__iter__
    # The repair's winners-only dataset (at most K·|F| rows) may be
    # iterated; anything larger is the object set.
    winners_bound = 3 * len(functions)
    assert len(objects) > winners_bound

    def spy(pool, batch):
        tasks.extend(batch)
        return fan_out(pool, batch)

    def no_full_iteration(dataset):
        if len(dataset) > winners_bound:
            raise AssertionError("a warm sharded run iterated the objects")
        return iterate(dataset)

    monkeypatch.setattr(ShardWorkerPool, "run", spy)
    monkeypatch.setattr(Dataset, "__iter__", no_full_iteration)
    result = prepared.run(functions)
    monkeypatch.undo()
    prepared.close()

    assert result.stats["shard_stagings"] == 0
    single = repro.match(objects, functions, backend="memory")
    assert result.as_set() == single.as_set()
    assert len(tasks) == 3
    for task in tasks:
        payload = task.ids.nbytes + task.points.nbytes
        assert len(pickle.dumps(task)) <= payload + 4096


def test_process_pool_rotates_shards_over_its_workers():
    # Run r sends shard i to worker (i + r) mod 2: runs 1 and 2 stage
    # both shards on a worker that has not seen them, later runs reuse.
    objects = generate_independent(300, 3, seed=310)
    prepared = repro.plan(backend="memory", shards=2, executor="process",
                          max_workers=2).prepare(objects)
    try:
        stagings = [
            prepared.run(generate_preferences(4, 3, seed=311 + run))
            .stats["shard_stagings"]
            for run in range(6)
        ]
        assert prepared.pool.executor == "process"
        assert prepared.pool.spawn_count == 1
    finally:
        prepared.close()
    assert stagings == [2, 2, 0, 0, 0, 0]

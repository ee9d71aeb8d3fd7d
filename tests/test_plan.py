"""The serving pipeline: plan compilation, prepared state, worker pool."""

import numpy as np
import pytest

import repro
from repro import MatchingConfig, MatchingPlan, PreparedMatching
from repro.data import generate_independent
from repro.engine import available_algorithms, available_backends
from repro.engine.backends import DiskBackend, MemoryBackend
from repro.engine.cache import config_fingerprint
from repro.errors import MatchingError
from repro.prefs import generate_preferences


def tiny_workload(n_objects=300, n_functions=12, dims=3, seed=90):
    objects = generate_independent(n_objects, dims, seed=seed)
    functions = generate_preferences(n_functions, dims, seed=seed + 1)
    return objects, functions


def assignments(result):
    return sorted(
        (pair.function_id, pair.object_id, pair.score)
        for pair in result.pairs
    )


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def test_plan_resolves_aliases_to_canonical_names():
    plan = repro.plan(algorithm="skyline", backend="mem")
    assert plan.algorithm == "sb"
    assert plan.backend_name == "memory"
    assert plan.shards == 1 and not plan.is_sharded


def test_plan_compile_rejects_unknown_algorithm_and_backend():
    with pytest.raises(MatchingError, match="unknown algorithm 'oracle'"):
        repro.plan(algorithm="oracle")
    with pytest.raises(MatchingError, match="unknown backend 'tape'"):
        repro.plan(backend="tape")


def test_plan_compile_rejects_unshardable_algorithm():
    # Late-binding used to surface this mid-request; the plan rejects it
    # before any data is staged.
    with pytest.raises(MatchingError, match="cannot run sharded"):
        repro.plan(algorithm="generic-sb", shards=4)


def test_sharding_is_a_shard_count_not_an_algorithm_name():
    for name in ("sharded-sb", "ssb", "parallel-sb"):
        with pytest.raises(MatchingError, match="unknown algorithm"):
            repro.plan(algorithm=name)
    plan = repro.plan(shards=4)
    assert plan.is_sharded and plan.shards == 4
    assert plan.algorithm == "sb"


def test_fingerprint_is_stable_and_config_sensitive():
    a = repro.plan(backend="memory").fingerprint
    assert a == repro.plan(backend="memory").fingerprint
    assert a == config_fingerprint(MatchingConfig(backend="memory"))
    assert a != repro.plan(backend="disk").fingerprint
    assert a != repro.plan(backend="memory", capacities={1: 2}).fingerprint


def test_plan_accepts_config_object_and_overrides():
    base = MatchingConfig(algorithm="chain", seed=7)
    plan = repro.plan(base, backend="memory")
    assert plan.algorithm == "chain"
    assert plan.config.seed == 7
    assert plan.config.backend == "memory"
    assert base.backend == "disk"  # the original is untouched


# ----------------------------------------------------------------------
# Prepare + run parity
# ----------------------------------------------------------------------
def test_prepared_run_matches_cold_match_everywhere():
    objects, functions = tiny_workload(seed=91)
    for algorithm in available_algorithms():
        for backend in available_backends():
            kwargs = dict(algorithm=algorithm, backend=backend)
            cold = repro.match(objects, functions, **kwargs)
            prepared = repro.plan(**kwargs).prepare(objects)
            warm = prepared.run(functions)
            assert assignments(warm) == assignments(cold), (
                algorithm, backend,
            )
            prepared.close()


def test_prepared_run_capacitated_parity():
    objects = generate_independent(40, 3, seed=92)
    functions = generate_preferences(25, 3, seed=93)
    capacities = {oid: (oid % 3) for oid, _ in objects.items()}
    cold = repro.match(objects, functions, capacities=capacities,
                       backend="memory")
    prepared = repro.plan(capacities=capacities,
                          backend="memory").prepare(objects)
    warm = prepared.run(functions)
    assert warm.is_capacitated
    assert warm.as_set() == cold.as_set()
    assert warm.capacities == cold.capacities


def test_prepared_restages_after_destructive_matcher():
    # Chain (deletion_mode="delete") consumes the warm tree; the next
    # cache-missing run must restage, not silently shrink.
    objects, functions = tiny_workload(seed=94)
    other = generate_preferences(12, 3, seed=96)
    prepared = repro.plan(algorithm="chain", backend="disk").prepare(objects)
    first = prepared.run(functions)
    assert prepared.stagings == 1
    second = prepared.run(other)  # different workload: a true rerun
    assert prepared.stagings == 2
    again = prepared.run(functions)  # cache hit, no third staging
    assert again is first
    assert prepared.stagings == 2
    assert assignments(second) == assignments(
        repro.match(objects, other, algorithm="chain")
    )


def test_prepared_run_with_no_functions():
    objects, _ = tiny_workload(n_objects=50, seed=96)
    prepared = repro.plan(backend="memory").prepare(objects)
    result = prepared.run([])
    assert len(result) == 0
    assert result.unmatched_functions == []


def test_prepared_close_stops_serving():
    objects, functions = tiny_workload(n_objects=50, seed=97)
    prepared = repro.plan(backend="memory").prepare(objects)
    prepared.close()
    with pytest.raises(MatchingError, match="closed"):
        prepared.run(functions)


# ----------------------------------------------------------------------
# Warm sharded serving: deferred parent, persistent pool, shard reuse
# ----------------------------------------------------------------------
def test_sharded_prepare_defers_the_parent_tree():
    objects, functions = tiny_workload(seed=98)
    prepared = repro.plan(backend="memory", shards=3,
                          executor="serial").prepare(objects)
    assert not prepared.parent_tree_built
    result = prepared.run(functions)
    assert not prepared.parent_tree_built  # merge/repair never needed it
    single = repro.match(objects, functions, backend="memory")
    assert assignments(result) == assignments(single)
    prepared.close()


def test_empty_workload_leaves_the_parent_tree_unbuilt():
    # prepared.run takes the plan's own (sharded) path; a service would
    # answer both workloads with the vectorized scorer.
    objects, functions = tiny_workload(seed=96)
    with repro.MatchingService(objects, backend="disk", shards=2,
                               executor="serial") as service:
        empty = service.prepared.run([])
        assert not service.prepared.parent_tree_built
        assert len(empty) == 0
        assert empty.algorithm == "sharded-sb"
        assert empty.stats == {
            "rounds": 0, "shards_used": 1, "merge_displaced": 0,
            "repair_chains": 0, "repair_steals": 0, "shard_stagings": 0,
        }
        assert empty.io_accesses == 0
        assert empty.unmatched_objects_count == len(objects)
        served = service.prepared.run(functions)
        assert not service.prepared.parent_tree_built
        assert served.algorithm == "sharded-sb"
    single = repro.match(objects, functions, backend="disk")
    assert assignments(served) == assignments(single)


def test_single_process_prepare_builds_the_tree():
    objects, _ = tiny_workload(n_objects=50, seed=99)
    prepared = repro.plan(backend="memory").prepare(objects)
    assert prepared.parent_tree_built


def test_persistent_pool_spawns_workers_once_across_runs():
    objects, _ = tiny_workload(seed=100)
    prepared = repro.plan(backend="memory", shards=3,
                          executor="thread").prepare(objects)
    for round_number in range(5):
        prefs = generate_preferences(10, 3, seed=200 + round_number)
        warm = prepared.run(prefs)
        cold = repro.match(objects, prefs, backend="memory")
        assert assignments(warm) == assignments(cold)
        # Every workload is new, so every run truly fanned out.
        assert warm.stats["shards_used"] == 3
        # The shard trees were bulk-loaded by the first run only.
        expected_stagings = 3 if round_number == 0 else 0
        assert warm.stats["shard_stagings"] == expected_stagings
    assert prepared.pool.spawn_count == 1
    assert prepared.pool.runs == 5
    prepared.close()


def test_pool_survives_destructive_base_algorithm():
    # A delete-mode base matcher consumes the worker-cached shard trees;
    # the workers must rebuild them (staged again) and stay exact.
    objects, _ = tiny_workload(seed=101)
    prepared = repro.plan(algorithm="chain", backend="memory", shards=3,
                          executor="serial").prepare(objects)
    for round_number in range(3):
        prefs = generate_preferences(8, 3, seed=300 + round_number)
        warm = prepared.run(prefs)
        cold = repro.match(objects, prefs, algorithm="chain",
                           backend="memory")
        assert assignments(warm) == assignments(cold)
        assert warm.stats["shard_stagings"] == 3  # rebuilt every run
    prepared.close()


def test_closed_pool_rejects_runs():
    from repro.parallel import ShardWorkerPool

    pool = ShardWorkerPool(executor="serial")
    assert pool.run([]) == []
    pool.close()
    with pytest.raises(MatchingError, match="closed"):
        pool.run([])


def test_pool_validates_executor():
    from repro.parallel import ShardWorkerPool

    with pytest.raises(MatchingError, match="executor"):
        ShardWorkerPool(executor="gpu")
    with pytest.raises(MatchingError, match="max_workers"):
        ShardWorkerPool(max_workers=0)


def test_concurrent_prepared_matchings_keep_their_warm_shards():
    # Two live prepared matchings sharing the in-process worker cache
    # (serial/thread executors) must not thrash each other's staged
    # shard trees.
    objects_a, _ = tiny_workload(seed=105)
    objects_b, _ = tiny_workload(seed=106)
    a = repro.plan(backend="memory", shards=3,
                   executor="serial").prepare(objects_a)
    b = repro.plan(backend="memory", shards=3,
                   executor="serial").prepare(objects_b)
    for round_number in range(3):
        prefs = generate_preferences(8, 3, seed=600 + round_number)
        warm_a = a.run(prefs)
        warm_b = b.run(prefs)
        expected = 3 if round_number == 0 else 0
        assert warm_a.stats["shard_stagings"] == expected
        assert warm_b.stats["shard_stagings"] == expected
    a.close()
    b.close()


def test_closing_prepared_purges_in_process_shard_cache():
    from repro.parallel.shard import _STAGED_SHARDS

    objects, functions = tiny_workload(seed=107)
    prepared = repro.plan(backend="memory", shards=3,
                          executor="serial").prepare(objects)
    prepared.run(functions)
    token = prepared._token
    assert any(key[0] == token for key in _STAGED_SHARDS)
    prepared.close()
    assert not any(key[0] == token for key in _STAGED_SHARDS)


def test_pool_propagates_task_errors_without_degrading():
    # A task-level error (bad input, a bug) must raise, not silently
    # flip the persistent pool to serial for its remaining life.
    from repro.parallel import ShardWorkerPool
    from repro.parallel.shard import ShardTask

    objects, functions = tiny_workload(n_objects=40, seed=108)
    config = MatchingConfig(backend="memory")
    ids, points = np.asarray(objects.ids), objects.matrix
    bad = ShardTask(
        index=0, ids=ids, points=points,
        functions=(repro.prefs.LinearPreference.normalized(0, [1.0, 1.0]),),
        config=config,  # 2-dim function vs 3-dim objects
    )
    pool = ShardWorkerPool(executor="process", max_workers=2)
    good = ShardTask(
        index=1, ids=ids, points=points,
        functions=tuple(functions), config=config,
    )
    try:
        with pytest.raises(Exception):
            pool.run([bad, good])
        assert pool.executor == "process"  # not degraded to serial
    finally:
        pool.close()


# ----------------------------------------------------------------------
# Plan-level sessions
# ----------------------------------------------------------------------
def test_plan_open_session_matches_facade_contract():
    objects, functions = tiny_workload(n_objects=80, seed=102)
    plan = repro.plan(backend="memory")
    session = plan.open_session(objects, functions)
    assert len(session.pairs) == len(functions)
    with pytest.raises(MatchingError, match="capacitated"):
        repro.plan(backend="memory", capacities={0: 2}).open_session(
            objects, functions
        )
    with pytest.raises(MatchingError, match="single-process"):
        repro.plan(backend="memory", shards=2).open_session(
            objects, functions
        )


# ----------------------------------------------------------------------
# Restage after session churn: the data now, the tree on first tree use
# ----------------------------------------------------------------------
BACKENDS = {"memory": MemoryBackend, "disk": DiskBackend}


def spy_on_tree_builds(monkeypatch, backend):
    """Count ``build_problem`` calls on one backend class from now on."""
    cls = BACKENDS[backend]
    calls = []
    real = cls.build_problem

    def counted(self, *args, **kwargs):
        calls.append(len(args[0]))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, "build_problem", counted)
    return calls


def churned_service(backend, seed):
    """A service whose bound session just deleted and inserted objects.

    The one ``submit`` before the churn is a lone linear miss: the
    vectorized scorer answers it unless a test lowers
    ``MAX_VECTOR_CELLS``."""
    objects, functions = tiny_workload(seed=seed)
    service = repro.MatchingService(objects, backend=backend,
                                    deletion_mode="filter")
    session = service.open_session(functions)
    service.submit(functions)
    session.delete_object(session.pairs[0].object_id)
    session.insert_object(10_000, (0.97, 0.95, 0.99))
    return service, session


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_churn_restage_builds_no_tree_for_a_vectorized_batch(monkeypatch,
                                                             backend):
    service, session = churned_service(backend, seed=110)
    workloads = [generate_preferences(10, 3, seed=s) for s in (111, 112)]
    with service:
        calls = spy_on_tree_builds(monkeypatch, backend)
        served = service.submit_many(workloads)
        assert calls == []
        assert not service.prepared.parent_tree_built
        stats = service.snapshot()
        assert stats.vectorized_requests == 3  # the pre-churn one too
        assert stats.fallback_requests == 0
        assert stats.stagings == 2
    monkeypatch.undo()
    survivors = session.objects()
    for result, functions in zip(served, workloads):
        cold = repro.match(survivors, functions, backend=backend)
        assert assignments(result) == assignments(cold)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_first_tree_miss_after_churn_builds_the_tree_once(monkeypatch,
                                                          backend):
    # With no cells allowed, every non-empty linear miss takes the tree.
    monkeypatch.setattr("repro.engine.plan.MAX_VECTOR_CELLS", 0)
    service, session = churned_service(backend, seed=113)
    workloads = [generate_preferences(10, 3, seed=s) for s in (114, 115)]
    with service:
        calls = spy_on_tree_builds(monkeypatch, backend)
        served = [service.submit(functions) for functions in workloads]
        survivors = session.objects()
        assert calls == [len(survivors)]  # the second miss reuses it
        assert service.prepared.parent_tree_built
        stats = service.snapshot()
        assert (stats.fallback_requests, stats.stagings) == (3, 2)
    monkeypatch.undo()
    for result, functions in zip(served, workloads):
        cold = repro.match(survivors, functions, backend=backend)
        assert assignments(result) == assignments(cold)


def test_a_consumed_tree_is_rebuilt_by_the_next_tree_miss(monkeypatch):
    # Chain (deletion_mode="delete") consumes the tree; a vectorized
    # batch or lone miss after it needs none, so only the next tree-path
    # run (prepared.run, the plan's own matcher) rebuilds.
    objects, functions = tiny_workload(seed=119)
    workloads = [generate_preferences(10, 3, seed=s) for s in (120, 121)]
    lone = generate_preferences(10, 3, seed=122)
    with repro.MatchingService(objects, algorithm="chain",
                               backend="memory") as service:
        service.prepared.run(functions)
        calls = spy_on_tree_builds(monkeypatch, "memory")
        served = service.submit_many(workloads[:1])
        served += service.submit_many(workloads[1:])
        assert calls == []
        assert not service.prepared.parent_tree_built
        assert service.snapshot().vectorized_requests == 2
        served.append(service.prepared.run(lone))
        assert calls == [len(objects)]
        assert service.snapshot().stagings == 2
    monkeypatch.undo()
    for result, workload in zip(served, workloads + [lone]):
        assert assignments(result) == assignments(repro.match(
            objects, workload, algorithm="chain", backend="memory"))


def test_rewound_version_serves_the_next_tree_miss_correctly():
    objects, functions = tiny_workload(seed=116)
    prepared = repro.plan(backend="memory",
                          deletion_mode="filter").prepare(objects)
    session = prepared.open_session(functions)
    genesis = session.checkpoint()
    version = prepared.objects_version
    session.delete_object(session.pairs[0].object_id)
    churned = generate_preferences(10, 3, seed=117)
    assert assignments(prepared.run(churned)) == assignments(
        repro.match(session.objects(), churned, backend="memory"))
    session.restore(genesis)
    prepared.restore_version(version)
    rewound = generate_preferences(10, 3, seed=118)
    assert assignments(prepared.run(rewound)) == assignments(
        repro.match(objects, rewound, backend="memory"))
    assert prepared.parent_tree_built
    assert prepared.stagings == 3


# ----------------------------------------------------------------------
# Front-door integration
# ----------------------------------------------------------------------
def test_plan_submodule_is_not_shadowed():
    # repro.plan is the factory; repro.engine.plan stays the module.
    import repro.engine.plan

    assert repro.engine.plan.MatchingPlan is MatchingPlan
    assert callable(repro.plan)


def test_engine_match_stays_warm_across_workloads():
    # The prepared state depends only on the object set: a stream of
    # different workloads through one prepared state reuses the staging
    # (and the result cache serves exact repeats).
    objects, functions = tiny_workload(n_objects=80, seed=109)
    other = generate_preferences(12, 3, seed=700)
    prepared = repro.plan(backend="memory").prepare(objects)
    first = prepared.run(functions)
    prepared.run(other)
    assert prepared.run(functions) is first  # cache, not rerun
    assert prepared.stagings == 1


def test_engine_compiles_at_construction():
    objects, functions = tiny_workload(n_objects=50, seed=103)
    with pytest.raises(MatchingError, match="unknown algorithm"):
        MatchingPlan(algorithm="oracle")
    # The one-shot front door compiles before it touches any data.
    with pytest.raises(MatchingError, match="unknown algorithm"):
        repro.match(objects, functions, algorithm="oracle")


def test_prepared_is_a_context_manager():
    objects, functions = tiny_workload(n_objects=50, seed=104)
    with repro.plan(backend="memory").prepare(objects) as prepared:
        assert isinstance(prepared, PreparedMatching)
        assert len(prepared.run(functions)) == len(functions)
    with pytest.raises(MatchingError, match="closed"):
        prepared.run(functions)

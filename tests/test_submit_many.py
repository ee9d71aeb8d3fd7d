"""Batched serving: ``submit_many`` is element-wise pair-identical to
sequential ``submit``, across algorithms × backends, with batches mixing
duplicate, cached, linear, and non-linear workloads — plus the
vectorized-vs-tree agreement property on tie-heavy grids, admission
control, the thread-safe result cache, and deterministic close()."""

import copy
import pickle
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.result import MatchPair
from repro.data import Dataset
from repro.engine.cache import ResultCache
from repro.engine.request import MatchingRequest
from repro.engine.result import MatchResult
from repro.errors import MatchingError, ServiceOverloadedError
from repro.prefs import LinearPreference, MinPreference, generate_preferences

# Coarse grids maximize exact score ties and duplicate points (see
# tests/test_prop_parallel.py for the general-position rationale).
coarse = st.integers(min_value=0, max_value=3).map(lambda v: v / 3)
fine = st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                 allow_infinity=False).map(lambda v: round(v, 6))
coordinate = st.one_of(coarse, fine)
positive = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)


def triples(result):
    return sorted(
        (pair.function_id, pair.object_id, pair.score)
        for pair in result.pairs
    )


def assert_pair_identical(one, other):
    assert triples(one) == triples(other)
    assert sorted(one.unmatched_functions) == sorted(
        other.unmatched_functions
    )


# ----------------------------------------------------------------------
# The acceptance property: submit_many == sequential submit
# ----------------------------------------------------------------------
instances = st.tuples(
    st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=24),
    st.lists(                                   # several raw workloads
        st.lists(st.tuples(positive, positive), min_size=0, max_size=6),
        min_size=1, max_size=5,
    ),
    st.sampled_from(["sb", "bf", "chain", "gs"]),
    st.sampled_from(["memory", "disk"]),
    st.randoms(use_true_random=False),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances)
def test_submit_many_equals_sequential_submit(instance):
    points, raw_workloads, algorithm, backend, rng = instance
    objects = Dataset([list(point) for point in points])
    workloads = [
        [LinearPreference.normalized(fid, list(weights))
         for fid, weights in enumerate(raw)]
        for raw in raw_workloads
    ]
    # A batch mixing fresh, duplicate, and (after the warm-up below)
    # cached workloads, plus a non-linear one on the fallback path.
    batch = list(workloads)
    batch.append(list(workloads[0]))                     # duplicate
    batch.append([MinPreference(0, (1.0, 0.5))])         # non-linear
    rng.shuffle(batch)

    sequential = repro.MatchingService(
        objects, algorithm=algorithm, backend=backend,
        deletion_mode="filter",
    )
    batched = repro.MatchingService(
        objects, algorithm=algorithm, backend=backend,
        deletion_mode="filter",
    )
    try:
        expected = [sequential.submit(functions) for functions in batch]
        batched.submit(batch[0])                         # pre-warm one key
        results = batched.submit_many(batch)
        assert len(results) == len(batch)
        for result, reference in zip(results, expected):
            assert_pair_identical(result, reference)
    finally:
        sequential.close()
        batched.close()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.tuples(coarse, coarse), min_size=1, max_size=20),
    st.lists(
        st.lists(st.tuples(positive, positive), min_size=1, max_size=6),
        min_size=2, max_size=4,
    ),
)
def test_vectorized_path_agrees_with_tree_path_on_tie_heavy_grids(
        points, raw_workloads):
    """The linear batch scorer and the tree matchers emit identical
    triples — bitwise-equal scores — on grids dense with exact ties."""
    objects = Dataset([list(point) for point in points])
    workloads = [
        [LinearPreference.normalized(fid, list(weights))
         for fid, weights in enumerate(raw)]
        for raw in raw_workloads
    ]
    prepared = repro.plan(algorithm="sb", backend="memory").prepare(objects)
    try:
        vectorized = prepared.run_vectorized_batch(workloads)
        for result, functions in zip(vectorized, workloads):
            tree = prepared.run(functions)
            assert_pair_identical(result, tree)
            assert result.algorithm == "batched-sb"
    finally:
        prepared.close()


def test_submit_many_partitions_hits_duplicates_and_misses():
    objects = repro.generate_independent(n=150, dims=3, seed=70)
    a = generate_preferences(5, 3, seed=71)
    b = generate_preferences(5, 3, seed=72)
    c = generate_preferences(5, 3, seed=73)
    d = [MinPreference(0, (1.0, 0.5, 0.25))]           # scorer refuses it
    with repro.MatchingService(objects, algorithm="sb",
                               backend="memory") as service:
        warmed = service.submit(a)                     # a is now cached
        results = service.submit_many([a, b, c, b, list(b), d])
        assert results[0] is warmed                    # cache hit
        assert results[1] is results[3] is results[4]  # fanned-out dups
        snap = service.snapshot()
        assert snap.cache_hits == 1
        assert snap.duplicate_hits == 2
        assert snap.misses == 4                        # warm-up a, b, c, d
        assert snap.vectorized_requests == 3           # a (alone), b, c
        assert snap.fallback_requests == 1             # the non-linear d
        assert snap.vectorized_requests + snap.fallback_requests \
            == snap.misses
        assert snap.cache_hits + snap.duplicate_hits + snap.misses \
            == snap.requests
        assert snap.requests == 7
        assert snap.batches == 2
        assert snap.latency_p95_ms >= snap.latency_p50_ms >= 0.0
        # Batched results enter the shared cache: submit() now hits.
        assert service.submit(c) is results[2]


def test_small_vectorized_batches_run_inline_and_large_ones_split():
    """Up to 16 distinct linear misses (churn-serve sends 8) are one
    chunk on the calling thread; 32 are two chunks of 16 on the pool."""
    objects = repro.generate_independent(n=200, dims=3, seed=77)
    workloads = [generate_preferences(4, 3, seed=900 + s)
                 for s in range(8 + 16 + 32)]
    calls = []
    with repro.MatchingService(objects, algorithm="sb", backend="memory",
                               max_workers=2) as service:
        run_chunk = service.prepared.run_vectorized_batch

        def recording(chunk):
            calls.append((threading.get_ident(), len(chunk)))
            return run_chunk(chunk)

        service.prepared.run_vectorized_batch = recording
        service.submit_many(workloads[:8])
        service.submit_many(workloads[8:24])
        assert calls == [(threading.get_ident(), 8),
                         (threading.get_ident(), 16)]
        calls.clear()
        service.submit_many(workloads[24:])
        assert [size for _, size in calls] == [16, 16]
        assert threading.get_ident() not in {ident for ident, _ in calls}
        assert service.snapshot().vectorized_requests == len(workloads)


def test_submit_many_respects_use_cache_and_priority():
    objects = repro.generate_independent(n=100, dims=2, seed=74)
    prefs = generate_preferences(4, 2, seed=75)
    with repro.MatchingService(objects, algorithm="sb",
                               backend="memory") as service:
        first = service.submit(prefs)
        fresh = service.submit_many(
            [MatchingRequest(prefs, use_cache=False, priority=5)]
        )[0]
        assert fresh is not first                      # forced recompute
        assert_pair_identical(fresh, first)
        assert service.submit(prefs) is fresh          # cache refreshed


def test_capacitated_plans_fold_vectorized_pairs_back_to_their_owners():
    objects = repro.generate_independent(n=60, dims=2, seed=76)
    capacities = {objects.ids[0]: 3, objects.ids[1]: 0}
    workloads = [generate_preferences(6, 2, seed=s) for s in (77, 78, 79)]
    with repro.MatchingService(objects, algorithm="sb", backend="memory",
                               capacities=capacities,
                               deletion_mode="filter") as service:
        results = service.submit_many(workloads)
        assert service.snapshot().vectorized_requests == len(workloads)
        assert service.snapshot().fallback_requests == 0
        for result, functions in zip(results, workloads):
            cold = repro.match(objects, functions, backend="memory",
                               capacities=capacities)
            assert triples(result) == triples(cold)
            assert result.capacities == cold.capacities
            assert result.unmatched_objects_count \
                == cold.unmatched_objects_count
            assert result.algorithm == "batched-sb"
        # One staging's results share one read-only capacity map, and
        # still pickle and copy as plain results.
        assert all(result.capacities is results[0].capacities
                   for result in results)
        with pytest.raises(TypeError):
            results[0].capacities[objects.ids[0]] = 1
        for clone in (pickle.loads(pickle.dumps(results[0])),
                      copy.deepcopy(results[0])):
            assert triples(clone) == triples(results[0])
            assert clone.capacities == dict(results[0].capacities)
            assert type(clone.capacities) is dict


def test_a_result_copies_a_capacity_dict_it_is_given():
    capacities = {7: 2}
    result = MatchResult([MatchPair(0, 7, 0.5), MatchPair(1, 7, 0.25)],
                         capacities=capacities)
    capacities[7] = 1
    assert result.capacities == {7: 2}
    assert result.capacities is not capacities


def test_vectorized_path_rejects_what_the_tree_path_rejects():
    objects = repro.generate_independent(n=30, dims=2, seed=80)
    prepared = repro.plan(algorithm="sb", backend="memory").prepare(objects)
    try:
        duplicate_fids = [LinearPreference(1, (0.5, 0.5)),
                          LinearPreference(1, (0.25, 0.75))]
        with pytest.raises(MatchingError):
            prepared.run_vectorized_batch([duplicate_fids])
        with pytest.raises(repro.ReproError):
            prepared.run_vectorized_batch(
                [[LinearPreference(0, (0.2, 0.3, 0.5))]]   # wrong dims
            )
    finally:
        prepared.close()


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_reject_policy_raises_service_overloaded():
    objects = repro.generate_independent(n=800, dims=3, seed=81)
    workloads = [generate_preferences(8, 3, seed=s) for s in range(12)]
    service = repro.MatchingService(
        objects, algorithm="sb", backend="memory",
        max_inflight=1, admission="reject", deletion_mode="filter",
    )
    rejected = []
    served = []

    def worker(functions):
        try:
            served.append(service.submit(functions))
        except ServiceOverloadedError:
            rejected.append(functions)

    try:
        threads = [threading.Thread(target=worker, args=(functions,))
                   for functions in workloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert served                         # someone got through
        assert len(served) + len(rejected) == len(workloads)
        assert service.snapshot().rejected == len(rejected)
    finally:
        service.close()


def test_block_policy_timeout_raises_and_counts():
    objects = repro.generate_independent(n=100, dims=2, seed=82)
    prefs = generate_preferences(3, 2, seed=83)
    service = repro.MatchingService(
        objects, algorithm="sb", backend="memory",
        max_inflight=1, admission="block",
    )
    try:
        release = threading.Event()
        entered = threading.Event()

        def hog():
            with service._state_cv:
                service._inflight += 1        # simulate a stuck batch
            entered.set()
            release.wait()
            service._release(1)

        hogger = threading.Thread(target=hog)
        hogger.start()
        entered.wait()
        with pytest.raises(ServiceOverloadedError):
            service.submit(MatchingRequest(prefs, timeout=0.05))
        release.set()
        hogger.join()
        assert service.submit(prefs).as_set() == repro.match(
            objects, prefs, backend="memory").as_set()
    finally:
        service.close()


def test_oversized_batch_is_admitted_when_idle():
    objects = repro.generate_independent(n=80, dims=2, seed=84)
    workloads = [generate_preferences(3, 2, seed=s) for s in range(5)]
    with repro.MatchingService(objects, algorithm="sb", backend="memory",
                               max_inflight=2) as service:
        results = service.submit_many(workloads)   # 5 > max_inflight
        assert len(results) == 5


def test_admission_knobs_validate():
    with pytest.raises(MatchingError):
        repro.MatchingConfig(max_inflight=0)
    with pytest.raises(MatchingError):
        repro.MatchingConfig(admission="drop")


# ----------------------------------------------------------------------
# Thread safety: the result cache and concurrent submission
# ----------------------------------------------------------------------
def test_result_cache_survives_multithreaded_stress():
    """get/put/clear from many threads: no lost updates, no corruption,
    and the bookkeeping invariant hits+misses == gets holds exactly."""
    cache = ResultCache(maxsize=16)
    gets_per_worker = 400
    workers = 8
    errors = []

    def worker(worker_id):
        try:
            for i in range(gets_per_worker):
                key = (worker_id * 31 + i) % 48
                value = cache.get(key)
                if value is not None and value != key * 2:
                    errors.append((key, value))
                cache.put(key, key * 2)
                if i % 97 == 0:
                    cache.clear()
                cache.keys()
                len(cache)
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(w,))
               for w in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    info = cache.info()
    assert info["hits"] + info["misses"] == workers * gets_per_worker
    assert len(cache) <= 16


def test_concurrent_submit_many_is_pair_identical():
    objects = repro.generate_independent(n=300, dims=3, seed=85)
    workloads = [generate_preferences(6, 3, seed=s) for s in range(12)]
    expected = {
        index: repro.match(objects, functions, backend="memory")
        for index, functions in enumerate(workloads)
    }
    service = repro.MatchingService(objects, algorithm="sb",
                                    backend="memory",
                                    deletion_mode="filter")
    outcomes = {}

    def worker(offset):
        batch = workloads[offset:offset + 4]
        for index, result in enumerate(service.submit_many(batch)):
            outcomes[offset + index] = result

    try:
        threads = [threading.Thread(target=worker, args=(offset,))
                   for offset in range(0, 12, 4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(outcomes) == 12
        for index, result in outcomes.items():
            assert result.as_set() == expected[index].as_set()
    finally:
        service.close()


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_service_close_is_idempotent_and_final():
    objects = repro.generate_independent(n=60, dims=2, seed=86)
    prefs = generate_preferences(3, 2, seed=87)
    service = repro.MatchingService(objects, algorithm="sb",
                                    backend="memory")
    service.submit_many([prefs, generate_preferences(3, 2, seed=88)])
    service.close()
    service.close()                                    # idempotent
    with pytest.raises(MatchingError):
        service.submit(prefs)
    with pytest.raises(MatchingError):
        service.submit_many([prefs])


def test_service_context_manager_closes():
    objects = repro.generate_independent(n=60, dims=2, seed=89)
    with repro.MatchingService(objects, algorithm="sb",
                               backend="memory") as service:
        service.submit(generate_preferences(3, 2, seed=90))
    with pytest.raises(MatchingError):
        service.submit(generate_preferences(3, 2, seed=90))


def test_matching_request_coercion_and_validation():
    prefs = generate_preferences(2, 2, seed=91)
    request = MatchingRequest.of(prefs)
    assert request.functions == tuple(prefs)
    assert MatchingRequest.of(request) is request
    assert len(request) == 2
    with pytest.raises(MatchingError):
        MatchingRequest(prefs, timeout=0.0)
    with pytest.raises(MatchingError):
        MatchingRequest(prefs, priority="high")
    tagged = MatchingRequest(prefs, tags=["tenant", 7])
    assert tagged.tags == ("tenant", "7")

"""Serving-cache correctness: cached results equal cold runs, and
invalidation hits exactly the affected keys."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import MatchingError
from repro.data import generate_independent
from repro.engine.cache import ResultCache, config_fingerprint, prefs_digest
from repro.prefs import LinearPreference, generate_preferences


def assignments(result):
    return sorted(
        (pair.function_id, pair.object_id, pair.score)
        for pair in result.pairs
    )


# ----------------------------------------------------------------------
# The LRU itself
# ----------------------------------------------------------------------
def test_lru_counts_hits_misses_and_evicts_in_order():
    cache = ResultCache(maxsize=2)
    assert cache.get("a") is None
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1       # refreshes a: b is now LRU
    cache.put("c", 3)                # evicts b
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    info = cache.info()
    assert info == {"hits": 3, "misses": 2, "evictions": 1,
                    "size": 2, "maxsize": 2}
    assert set(cache.keys()) == {"a", "c"}


def test_lru_size_zero_disables_caching():
    cache = ResultCache(maxsize=0)
    cache.put("a", 1)
    assert cache.get("a") is None
    assert len(cache) == 0
    with pytest.raises(MatchingError):
        ResultCache(maxsize=-1)


def test_prefs_digest_is_content_based_for_linear_functions():
    a = [LinearPreference.normalized(0, [1.0, 2.0]),
         LinearPreference.normalized(1, [3.0, 1.0])]
    rebuilt = [LinearPreference.normalized(0, [1.0, 2.0]),
               LinearPreference.normalized(1, [3.0, 1.0])]
    assert prefs_digest(a) == prefs_digest(rebuilt)
    different = [LinearPreference.normalized(0, [2.0, 1.0]),
                 LinearPreference.normalized(1, [3.0, 1.0])]
    assert prefs_digest(a) != prefs_digest(different)
    assert prefs_digest(a) != prefs_digest(a[:1])


def test_prefs_digest_trusts_only_exact_linear_preferences():
    # A LinearPreference *subclass* may score with state beyond its
    # weight vector, and generic functions may carry a weights
    # attribute incidentally — content-addressing either would let two
    # different workloads collide on a key. Only the exact class is
    # content-keyed; everything else goes by identity.
    class Tweaked(LinearPreference):
        def __init__(self, fid, weights, power):
            super().__init__(fid, weights)
            self.power = power

    a = Tweaked(0, [0.5, 0.5], power=1.0)
    b = Tweaked(0, [0.5, 0.5], power=4.0)
    assert prefs_digest([a]) != prefs_digest([b])
    plain = LinearPreference(0, (0.5, 0.5))
    assert prefs_digest([plain]) == prefs_digest(
        [LinearPreference(0, (0.5, 0.5))]
    )
    assert prefs_digest([plain]) != prefs_digest([a])


def test_prefs_digest_pins_non_linear_functions_by_live_reference():
    # Generic (weight-less) functions digest by identity — and the key
    # must hold the object itself, not a bare id(): a live cache entry
    # then keeps the function alive, so its identity can never be
    # recycled onto a different function (which would serve a stale,
    # wrong matching).
    class Opaque:
        def __init__(self, fid):
            self.fid = fid

    function = Opaque(3)
    digest = prefs_digest([function])
    assert digest == prefs_digest([function])      # same object hits
    assert digest != prefs_digest([Opaque(3)])     # fresh object misses
    assert any(part[1].obj is function for part in digest)  # ref held


def test_unhashable_functions_cache_by_identity():
    # The identity wrapper makes even unhashable / content-equal
    # function objects safely cacheable: same object hits, fresh
    # object (however equal) misses.
    class Unhashable:
        __hash__ = None

        def __init__(self, fid):
            self.fid = fid

        def __eq__(self, other):
            return True  # pathologically equal to everything

    cache = ResultCache(maxsize=4)
    function = Unhashable(0)
    cache.put(prefs_digest([function]), "value")
    assert cache.get(prefs_digest([function])) == "value"
    assert cache.get(prefs_digest([Unhashable(0)])) is None


def test_config_fingerprint_depends_on_every_field():
    base = repro.MatchingConfig(backend="memory")
    assert config_fingerprint(base) == config_fingerprint(
        repro.MatchingConfig(backend="memory")
    )
    for overrides in (dict(algorithm="chain"), dict(shards=2),
                      dict(capacities={0: 2}), dict(cache_size=16),
                      dict(seed=1)):
        assert config_fingerprint(base) != config_fingerprint(
            base.replace(**overrides)
        ), overrides


# ----------------------------------------------------------------------
# Cached results are pair-identical to cold runs (property)
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    n_objects=st.integers(min_value=5, max_value=120),
    n_functions=st.integers(min_value=1, max_value=20),
    dims=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_cached_runs_equal_cold_runs(n_objects, n_functions, dims, seed):
    objects = generate_independent(n_objects, dims, seed=seed)
    prefs = generate_preferences(n_functions, dims, seed=seed + 1)
    cold = repro.match(objects, prefs, backend="memory")
    with repro.plan(backend="memory").prepare(objects) as prepared:
        warm = prepared.run(prefs)
        hit = prepared.run(prefs)
        assert hit is warm                       # served from cache
        assert assignments(warm) == assignments(cold)
        rebuilt = generate_preferences(n_functions, dims, seed=seed + 1)
        assert prepared.run(rebuilt) is warm     # content-keyed, not id


# ----------------------------------------------------------------------
# Invalidation: session events hit exactly the affected keys
# ----------------------------------------------------------------------
def workload(seed=110, n_objects=120, n_functions=8, dims=3):
    objects = generate_independent(n_objects, dims, seed=seed)
    prefs = generate_preferences(n_functions, dims, seed=seed + 1)
    return objects, prefs


def test_object_events_invalidate_and_serving_follows_the_session():
    objects, prefs = workload(seed=111)
    prepared = repro.plan(backend="memory").prepare(objects)
    before = prepared.run(prefs)
    session = prepared.open_session(prefs)

    # Deleting a matched object changes the served matching.
    victim = before.pairs[0].object_id
    session.delete_object(victim)
    assert prepared.objects_version == 1
    after = prepared.run(prefs)
    assert after is not before
    survivors = session.objects()
    cold = repro.match(survivors, prefs, backend="memory")
    assert assignments(after) == assignments(cold)
    assert victim not in {pair.object_id for pair in after.pairs}

    # Inserting invalidates again; serving tracks the insertion.
    session.insert_object(5_000, (0.99,) * objects.dims)
    assert prepared.objects_version == 2
    inserted = prepared.run(prefs)
    cold = repro.match(session.objects(), prefs, backend="memory")
    assert assignments(inserted) == assignments(cold)
    prepared.close()


def test_function_only_events_leave_the_cache_warm():
    # add/remove_function changes the session's own matching but not
    # what run(prefs) depends on: served results stay valid.
    objects, prefs = workload(seed=112)
    prepared = repro.plan(backend="memory").prepare(objects)
    session = prepared.open_session(prefs)
    before = prepared.run(prefs)
    session.add_function(
        LinearPreference.normalized(900, [1.0] * objects.dims)
    )
    session.remove_function(900)
    assert prepared.objects_version == 0
    assert prepared.run(prefs) is before  # still a cache hit


def test_invalidation_does_not_cross_prepared_instances():
    # Events on one prepared matching must not disturb another one
    # serving the same objects under another (or the same) plan.
    objects, prefs = workload(seed=113)
    touched = repro.plan(backend="memory").prepare(objects)
    untouched = repro.plan(backend="memory").prepare(objects)
    baseline = untouched.run(prefs)
    session = touched.open_session(prefs)
    session.delete_object(baseline.pairs[0].object_id)
    assert untouched.objects_version == 0
    assert untouched.run(prefs) is baseline  # still served from cache
    touched.close()
    untouched.close()


def test_capacity_change_lands_in_a_disjoint_key_space():
    # A config change is a new plan with a new fingerprint: results can
    # never be served across the change.
    objects, prefs = workload(seed=114)
    plain = repro.plan(backend="memory")
    capacitated = repro.plan(backend="memory", capacities={1: 2})
    assert plain.fingerprint != capacitated.fingerprint
    a = plain.prepare(objects).run(prefs)
    b = capacitated.prepare(objects).run(prefs)
    assert not a.is_capacitated and b.is_capacitated


def test_manual_invalidate_forces_a_recompute():
    objects, prefs = workload(seed=115)
    with repro.plan(backend="memory").prepare(objects) as prepared:
        first = prepared.run(prefs)
        prepared.invalidate()
        second = prepared.run(prefs)
        assert second is not first
        assert assignments(second) == assignments(first)


def test_cache_size_zero_serves_cold_every_time():
    objects, prefs = workload(seed=116)
    with repro.plan(backend="memory",
                    cache_size=0).prepare(objects) as prepared:
        first = prepared.run(prefs)
        second = prepared.run(prefs)
        assert second is not first
        assert assignments(second) == assignments(first)
        assert prepared.cache.info()["hits"] == 0


# ----------------------------------------------------------------------
# Service-level accounting
# ----------------------------------------------------------------------
def test_service_counts_hits_and_cold_runs():
    objects, prefs = workload(seed=117)
    other = generate_preferences(8, 3, seed=500)
    with repro.MatchingService(objects, backend="memory") as service:
        service.submit(prefs)
        service.submit(prefs)
        service.submit(other)
        stats = service.snapshot()
        assert stats.requests == 3
        assert stats.cache["hits"] == 1
        assert stats.cache["misses"] == 2
        assert stats.stagings == 1


def test_service_rejects_plan_plus_config():
    objects, _ = workload(seed=118)
    with pytest.raises(MatchingError, match="not both"):
        repro.MatchingService(
            objects, plan=repro.plan(backend="memory"), backend="memory",
        )


def test_service_session_churn_is_served_correctly():
    objects, prefs = workload(seed=119)
    with repro.MatchingService(objects, backend="memory") as service:
        before = service.submit(prefs)
        session = service.open_session(prefs)
        session.delete_object(before.pairs[0].object_id)
        after = service.submit(prefs)
        cold = repro.match(session.objects(), prefs, backend="memory")
        assert assignments(after) == assignments(cold)
        stats = service.snapshot()
        assert stats.objects_version == 1
        assert stats.stagings == 2

"""The engine's front door: config, registry, and repro.match()."""

import pytest

import repro
from repro import (
    Dataset,
    MatchingConfig,
    MatchingProblem,
    SkylineMatcher,
    available_algorithms,
    available_backends,
    register_matcher,
)
from repro.core import Matcher, RoundRecorder
from repro.engine import (
    algorithm_aliases,
    create_matcher,
    get_backend,
    unregister_matcher,
)
from repro.errors import MatchingError
from repro.data import generate_independent
from repro.prefs import generate_preferences


def tiny_workload(n_objects=400, n_functions=15, dims=3, seed=50):
    objects = generate_independent(n_objects, dims, seed=seed)
    functions = generate_preferences(n_functions, dims, seed=seed + 1)
    return objects, functions


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
def test_config_defaults_are_the_papers():
    config = MatchingConfig()
    assert config.algorithm == "sb"
    assert config.backend == "disk"
    assert config.buffer_fraction == 0.02
    assert config.buffer_policy == "lru"
    assert config.deletion_mode == "delete"


def test_config_replace_returns_new_frozen_instance():
    config = MatchingConfig()
    derived = config.replace(algorithm="chain", seed=9)
    assert derived.algorithm == "chain" and derived.seed == 9
    assert config.algorithm == "sb"
    with pytest.raises(Exception):
        config.algorithm = "bf"  # frozen


@pytest.mark.parametrize("bad", [
    dict(buffer_policy="mru"),
    dict(deletion_mode="vanish"),
    dict(page_size=16),
    dict(buffer_fraction=0.0),
    dict(buffer_fraction=1.5),
    dict(buffer_capacity=0),
    dict(memory_fanout=2),
])
def test_config_validation(bad):
    with pytest.raises(MatchingError):
        MatchingConfig(**bad)


@pytest.mark.parametrize("bad", [
    dict(threshold="bogus"),
    dict(maintenance="bogus"),
])
def test_sb_switches_rejected_at_construction(bad):
    """A bad SB switch fails when the config is built, not mid-request
    (a batch of misses never reads it on the vectorized path)."""
    objects = generate_independent(50, 2, seed=30)
    functions = generate_preferences(3, 2, seed=31)
    with pytest.raises(MatchingError, match="must be one of"):
        MatchingConfig(**bad)
    with pytest.raises(MatchingError):
        repro.plan(algorithm="sb", backend="memory", **bad)
    with pytest.raises(MatchingError):
        repro.match(objects, functions, backend="memory", **bad)
    with pytest.raises(MatchingError):
        repro.MatchingService(objects, algorithm="sb", backend="memory",
                              **bad)


# ----------------------------------------------------------------------
# Algorithm registry
# ----------------------------------------------------------------------
def test_builtin_algorithms_registered():
    assert {"sb", "bf", "chain", "gs", "generic-sb"} <= set(
        available_algorithms()
    )


def test_aliases_resolve_to_canonical_names():
    aliases = algorithm_aliases()
    assert aliases["skyline"] == "sb"
    assert aliases["brute-force"] == "bf"
    assert aliases["gale-shapley"] == "gs"


def test_registry_round_trip():
    @register_matcher("test-trivial", aliases=("tt",))
    class TrivialMatcher(Matcher):
        """Yields nothing: every function stays unmatched."""

        name = "test-trivial"

        def pairs(self):
            return iter(())

    try:
        assert "test-trivial" in available_algorithms()
        objects, functions = tiny_workload()
        result = repro.match(objects, functions, algorithm="tt")
        assert len(result) == 0
        assert sorted(result.unmatched_functions) == sorted(
            f.fid for f in functions
        )
    finally:
        unregister_matcher("test-trivial")
    assert "test-trivial" not in available_algorithms()
    assert "tt" not in algorithm_aliases()


def test_duplicate_registration_rejected():
    with pytest.raises(MatchingError, match="already registered"):
        register_matcher("sb")(SkylineMatcher)


def test_non_matcher_class_rejected():
    with pytest.raises(MatchingError, match="must subclass Matcher"):
        register_matcher("test-bogus")(object)


def test_unknown_algorithm_error_lists_available():
    objects, functions = tiny_workload()
    with pytest.raises(MatchingError, match="unknown algorithm 'oracle'"):
        repro.match(objects, functions, algorithm="oracle")
    with pytest.raises(MatchingError, match="available algorithms: .*sb"):
        repro.match(objects, functions, algorithm="oracle")


def test_unknown_backend_error_lists_available():
    objects, functions = tiny_workload()
    with pytest.raises(MatchingError, match="unknown backend 'tape'"):
        repro.match(objects, functions, backend="tape")
    with pytest.raises(MatchingError, match="available backends: disk, memory"):
        repro.match(objects, functions, backend="tape")


# ----------------------------------------------------------------------
# match() parity
# ----------------------------------------------------------------------
def test_match_parity_with_direct_skyline_matcher():
    objects, functions = tiny_workload(seed=60)
    direct = SkylineMatcher(MatchingProblem.build(objects, functions)).run()
    via_facade = repro.match(objects, functions, algorithm="sb",
                             backend="disk")
    assert via_facade.as_set() == direct.as_set()
    assert via_facade.as_dict() == direct.as_dict()
    # Scores and emission order are preserved pair for pair.
    assert [
        (p.function_id, p.object_id, p.score) for p in via_facade.pairs
    ] == [(p.function_id, p.object_id, p.score) for p in direct.pairs]


def test_every_algorithm_and_backend_agrees():
    objects, functions = tiny_workload(seed=61)
    reference = None
    for algorithm in available_algorithms():
        for backend in available_backends():
            result = repro.match(objects, functions, algorithm=algorithm,
                                 backend=backend)
            assert len(result) == len(functions), (algorithm, backend)
            if reference is None:
                reference = result.as_set()
            assert result.as_set() == reference, (algorithm, backend)


def test_memory_backend_reports_zero_io():
    objects, functions = tiny_workload(seed=62)
    result = repro.match(objects, functions, backend="memory")
    assert result.io_accesses == 0
    disk = repro.match(objects, functions, backend="disk")
    assert disk.io_accesses > 0
    assert result.as_set() == disk.as_set()


def test_match_capacitated_parity_with_legacy_api():
    # The reference duplicates each object by hand (capacity-many
    # copies, zero drops it) and folds the 1-1 SB matching back.
    objects = generate_independent(40, 3, seed=63)
    functions = generate_preferences(25, 3, seed=64)
    capacities = {oid: (oid % 3) for oid, _ in objects.items()}
    owner = [oid for oid, _ in objects.items()
             for _ in range(capacities[oid])]
    duplicated = Dataset([objects.vector(oid) for oid in owner])
    flat = SkylineMatcher(MatchingProblem.build(duplicated, functions)).run()
    unified = repro.match(objects, functions, capacities=capacities)
    assert unified.is_capacitated
    assert {(p.function_id, owner[p.object_id]) for p in flat.pairs} == \
        unified.as_set()
    assert sorted(flat.unmatched_functions) == \
        sorted(unified.unmatched_functions)
    for oid, _ in objects.items():
        assert unified.usage.get(oid, 0) <= max(1, capacities[oid])
    memory = repro.match(objects, functions, capacities=capacities,
                         backend="memory")
    assert memory.as_set() == unified.as_set()


def test_match_config_and_keyword_overrides():
    objects, functions = tiny_workload(seed=65)
    base = MatchingConfig(algorithm="bf", seed=123)
    result = repro.match(objects, functions, config=base, algorithm="sb",
                         maintenance="retraversal")
    assert result.algorithm == "skyline"
    assert result.seed == 123


def test_match_does_not_clobber_config_fields_with_defaults():
    # Regression: algorithm/backend/capacities of a passed config= must
    # survive when the corresponding keywords are not given.
    objects, functions = tiny_workload(n_objects=60, seed=69)
    config = MatchingConfig(algorithm="chain", backend="memory",
                            capacities={0: 2})
    result = repro.match(objects, functions, config=config)
    assert result.algorithm == "chain"
    assert result.backend == "memory"
    assert result.is_capacitated


def test_gale_shapley_is_a_single_round():
    objects, functions = tiny_workload(n_objects=60, seed=72)
    result = repro.match(objects, functions, algorithm="gs")
    assert result.num_rounds == 1
    assert result.stats["rounds"] == 1


def test_match_records_provenance_and_stats():
    objects, functions = tiny_workload(seed=66)
    result = repro.match(objects, functions, algorithm="sb", seed=77)
    assert result.backend == "disk"
    assert result.seed == 77
    assert result.stats["rounds"] >= 1
    assert result.stats["reverse_top1_queries"] > 0
    assert result.cpu_seconds > 0
    assert result.io is not None
    assert result.io.io_accesses == result.io_accesses


# ----------------------------------------------------------------------
# One level down: backend staging + registry matcher
# ----------------------------------------------------------------------
def staged_matcher(objects, functions, config, **overrides):
    problem = get_backend(config.backend).build_problem(
        objects, functions, config
    )
    return create_matcher(config.algorithm, problem, config, **overrides)


def test_engine_create_matcher_forwards_overrides():
    objects, functions = tiny_workload(seed=67)
    recorder = RoundRecorder()
    matcher = staged_matcher(objects, functions,
                             MatchingConfig(algorithm="sb"),
                             on_round=recorder)
    matching = matcher.run()
    assert len(matching) == len(functions)
    assert len(recorder.rounds) == matcher.rounds


def test_engine_config_switches_reach_the_matcher():
    objects, functions = tiny_workload(seed=68)
    config = MatchingConfig(algorithm="sb", maintenance="retraversal",
                            multi_pair=False, threshold="naive")
    matcher = staged_matcher(objects, functions, config)
    assert matcher.maintenance == "retraversal"
    assert matcher.multi_pair is False
    assert matcher.threshold == "naive"


def test_engine_is_reusable_across_workloads():
    plan = repro.plan(algorithm="sb", backend="memory")
    for seed in (70, 71):
        objects, functions = tiny_workload(seed=seed)
        with plan.prepare(objects) as prepared:
            result = prepared.run(functions)
        assert len(result) == len(functions)


# ----------------------------------------------------------------------
# Staged-state reuse across repeated runs of one prepared object set
# ----------------------------------------------------------------------
def test_repeated_match_reuses_staged_problem():
    objects, functions = tiny_workload(seed=80)
    prepared = repro.plan(algorithm="sb", backend="disk").prepare(objects)
    first = prepared.run(functions)
    second = prepared.run(functions)
    assert prepared.stagings == 1  # the dataset was indexed exactly once
    assert [(p.function_id, p.object_id, p.score) for p in first.pairs] == \
           [(p.function_id, p.object_id, p.score) for p in second.pairs]


def test_staged_reuse_rebuilds_after_destructive_matcher():
    # Chain physically deletes assigned objects; the staged problem must
    # be rebuilt before the next run or results would silently shrink.
    # With the result cache off, the second run truly reruns.
    objects, functions = tiny_workload(seed=81)
    prepared = repro.plan(algorithm="chain", backend="disk",
                          cache_size=0).prepare(objects)
    first = prepared.run(functions)
    second = prepared.run(functions)
    assert prepared.stagings == 2  # staged once, rebuilt once
    assert [(p.function_id, p.object_id, p.score) for p in first.pairs] == \
           [(p.function_id, p.object_id, p.score) for p in second.pairs]


def test_staged_reuse_distinguishes_workloads():
    plan = repro.plan(algorithm="sb", backend="memory")
    objects_a, functions_a = tiny_workload(seed=82)
    objects_b, functions_b = tiny_workload(seed=83)
    prepared_a = plan.prepare(objects_a)
    prepared_b = plan.prepare(objects_b)
    result_a = prepared_a.run(functions_a)
    result_b = prepared_b.run(functions_b)
    assert prepared_a.stagings == prepared_b.stagings == 1
    fresh = repro.match(objects_b, functions_b, backend="memory")
    assert [(p.function_id, p.object_id) for p in result_b.pairs] == \
           [(p.function_id, p.object_id) for p in fresh.pairs]
    assert result_a.pairs != result_b.pairs


def test_staged_reuse_with_capacities_keeps_expansion():
    objects, functions = tiny_workload(n_objects=10, n_functions=8, seed=84)
    capacities = {object_id: 2 for object_id, _ in objects.items()}
    prepared = repro.plan(algorithm="sb", backend="memory",
                          capacities=capacities).prepare(objects)
    first = prepared.run(functions)
    second = prepared.run(functions)
    assert prepared.stagings == 1
    assert first.capacities == second.capacities
    assert [(p.function_id, p.object_id) for p in first.pairs] == \
           [(p.function_id, p.object_id) for p in second.pairs]


def test_staged_cache_detects_in_place_function_replacement():
    # Regression: prepared state must not serve a stale result when the
    # caller mutates the functions list between calls. The prepared
    # result cache keys workloads by function *content*, so the staging
    # is reused (objects unchanged) while the changed workload runs
    # fresh.
    objects, functions = tiny_workload(seed=85)
    functions = list(functions)
    prepared = repro.plan(algorithm="sb", backend="memory").prepare(objects)
    prepared.run(functions)
    replacement = repro.prefs.LinearPreference.normalized(
        999, [1.0] * objects.dims
    )
    functions[0] = replacement
    result = prepared.run(functions)
    assert prepared.stagings == 1  # same objects: staged exactly once
    matched = {pair.function_id for pair in result.pairs}
    assert 999 in matched

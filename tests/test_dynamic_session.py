"""Unit tests of the DynamicMatcher session API (validation, batching,
lifecycle, statistics) and of open_session gating."""

import pytest

import repro
from repro.dynamic import DeleteObject, DynamicMatcher, InsertObject
from repro.engine import MatchingConfig, get_backend
from repro.errors import (
    DimensionalityError,
    MatchingError,
    ReproError,
    SessionError,
)
from repro.rtree import validate_tree


@pytest.fixture()
def session():
    objects = repro.generate_independent(60, 3, seed=1)
    functions = repro.generate_preferences(10, 3, seed=2)
    return repro.open_session(objects, functions, backend="memory")


def test_open_session_initial_matching_is_scratch(session):
    objects = repro.generate_independent(60, 3, seed=1)
    functions = repro.generate_preferences(10, 3, seed=2)
    scratch = repro.match(objects, functions, backend="memory")
    assert sorted((p.function_id, p.object_id, p.score)
                  for p in session.pairs) == \
           sorted((p.function_id, p.object_id, p.score)
                  for p in scratch.pairs)
    assert session.num_objects == 60
    assert session.num_functions == 10


def test_insert_validation(session):
    with pytest.raises(SessionError):
        session.insert_object(0, (0.1, 0.2, 0.3))       # id taken
    with pytest.raises(DimensionalityError):
        session.insert_object(1000, (0.1, 0.2))         # wrong arity
    with pytest.raises(SessionError):
        session.insert_object(1000, (0.1, 0.2, 1.5))    # out of range
    with pytest.raises(SessionError):
        session.insert_object(-3, (0.1, 0.2, 0.3))      # negative id


def test_deleted_id_not_reusable_before_compaction(session):
    session.delete_object(5)
    with pytest.raises(SessionError):
        session.insert_object(5, (0.5, 0.5, 0.5))
    with pytest.raises(SessionError):
        session.delete_object(5)  # already gone


def test_function_validation(session):
    with pytest.raises(SessionError):
        session.add_function(repro.generate_preferences(1, 3, seed=9)[0])
    with pytest.raises(DimensionalityError):
        session.add_function(repro.LinearPreference(99, (0.5, 0.5)))
    with pytest.raises(SessionError):
        session.add_function("not a function")
    with pytest.raises(SessionError):
        session.remove_function(12345)


def test_unmatched_object_churn_is_cheap(session):
    # |O| >> |F|: a random unmatched object's deletion repairs nothing.
    before = session.stats["chain_steps"]
    matched = {pair.object_id for pair in session.pairs}
    victim = next(i for i in range(60) if i not in matched)
    session.delete_object(victim)
    assert session.stats["chain_steps"] == before
    assert len(session.pairs) == 10


def test_partner_of_and_pairs_flush_pending_events(session):
    pairs = {p.function_id: p.object_id for p in session.pairs}
    fid, object_id = next(iter(pairs.items()))
    session.delete_object(object_id)
    partner = session.partner_of(fid)
    assert partner != object_id  # repair already applied
    assert partner is None or partner in range(60)


def test_batching_defers_application():
    objects = repro.generate_independent(50, 3, seed=3)
    functions = repro.generate_preferences(8, 3, seed=4)
    session = repro.open_session(objects, functions, backend="memory",
                                 batch_size=10, repair_threshold=1e9)
    for object_id in range(5):
        session.delete_object(object_id)
    assert len(session.log) == 5           # staged, not applied
    assert session.num_objects == 45       # projected view updates eagerly
    applied = session.flush()
    assert applied == 5
    assert len(session.log) == 0
    assert session.flush() == 0


def test_batch_size_triggers_automatic_flush():
    objects = repro.generate_independent(50, 3, seed=5)
    functions = repro.generate_preferences(8, 3, seed=6)
    session = repro.open_session(objects, functions, backend="memory",
                                 batch_size=3, repair_threshold=1e9)
    session.delete_object(0)
    session.delete_object(1)
    assert len(session.log) == 2
    session.delete_object(2)
    assert len(session.log) == 0  # third event filled the batch


def test_submit_accepts_event_objects(session):
    session.submit(InsertObject(777, (0.9, 0.1, 0.4)))
    session.submit(DeleteObject(777))
    with pytest.raises(SessionError):
        session.submit(object())
    assert session.num_objects == 60


def test_close_and_context_manager():
    objects = repro.generate_independent(40, 2, seed=7)
    functions = repro.generate_preferences(5, 2, seed=8)
    with repro.open_session(objects, functions, backend="memory") as session:
        session.delete_object(0)
    with pytest.raises(SessionError):
        session.delete_object(1)

    session = repro.open_session(objects, functions, backend="memory")
    result = session.close()
    assert result.algorithm == "dynamic-sb"
    assert len(result.pairs) == 5
    with pytest.raises(SessionError):
        session.insert_object(999, (0.5, 0.5))


def test_matching_result_provenance_and_stats():
    objects = repro.generate_independent(70, 3, seed=9)
    functions = repro.generate_preferences(12, 3, seed=10)
    session = repro.open_session(objects, functions, algorithm="chain",
                                 backend="disk")
    session.delete_object(session.pairs[0].object_id)
    result = session.matching()
    assert result.algorithm == "dynamic-chain"
    assert result.backend == "disk"
    assert result.stats["events_applied"] == 1
    assert result.stats["delete_object"] == 1
    assert result.io is not None and result.io.io_accesses > 0
    assert result.cpu_seconds > 0


def test_session_tree_stays_valid_under_heavy_churn():
    objects = repro.generate_independent(120, 3, seed=11)
    functions = repro.generate_preferences(15, 3, seed=12)
    session = repro.open_session(objects, functions, backend="disk",
                                 compact_fraction=0.03)
    events = repro.generate_events(objects, functions, 150, seed=13)
    for event in events:
        session.submit(event)
    repair = session._repair
    assert repair.stats.compactions > 0
    # Physically-applied churn must leave a structurally valid tree
    # whose content is surviving ∪ tombstoned-pending ∖ buffered-pending.
    stored = dict(repair.tree.iter_objects())
    expected = dict(repair.points)
    expected.update(repair.tombstones)
    for object_id in repair.pending:
        expected.pop(object_id)
    assert stored == expected
    validate_tree(repair.tree)


def test_open_session_rejects_capacities_and_nonrepairable():
    objects = repro.generate_independent(30, 2, seed=14)
    functions = repro.generate_preferences(5, 2, seed=15)
    with pytest.raises(MatchingError):
        repro.plan(capacities={0: 2}).open_session(objects, functions)
    with pytest.raises(MatchingError):
        repro.open_session(objects, functions, algorithm="generic-sb")


def test_session_requires_filter_deletion_mode():
    objects = repro.generate_independent(30, 2, seed=16)
    functions = repro.generate_preferences(5, 2, seed=17)
    config = MatchingConfig(backend="memory")
    problem = get_backend("memory").build_problem(objects, functions, config)
    with pytest.raises(SessionError):
        DynamicMatcher(problem, config)  # deletion_mode="delete"


def test_dynamic_config_knobs_validated():
    with pytest.raises(MatchingError):
        repro.MatchingConfig(batch_size=0)
    with pytest.raises(MatchingError):
        repro.MatchingConfig(repair_threshold=0)
    with pytest.raises(MatchingError):
        repro.MatchingConfig(compact_fraction=-0.1)


def test_session_error_is_a_repro_error():
    assert issubclass(SessionError, ReproError)


def test_deleted_id_blocked_uniformly_across_batch_sizes():
    # Reuse of a physically-rooted deleted id must be rejected no matter
    # whether the delete has been flushed yet (regression: queued deletes
    # used to slip past validation and lose the reinserted object).
    for batch_size in (1, 3, 10):
        objects = repro.generate_independent(30, 2, seed=20)
        functions = repro.generate_preferences(5, 2, seed=21)
        session = repro.open_session(objects, functions, backend="memory",
                                     batch_size=batch_size)
        session.delete_object(7)
        with pytest.raises(SessionError):
            session.insert_object(7, (0.5, 0.5))
        session.flush()
        assert session.num_objects == 29


def test_insert_then_delete_same_id_in_one_batch():
    objects = repro.generate_independent(30, 2, seed=22)
    functions = repro.generate_preferences(5, 2, seed=23)
    for threshold in (1e9, 0.01):  # chain-repair path and recompute path
        session = repro.open_session(objects, functions, backend="memory",
                                     batch_size=8,
                                     repair_threshold=threshold)
        session.insert_object(500, (0.9, 0.9))
        session.delete_object(500)
        session.insert_object(500, (0.1, 0.1))  # fresh queued id: reusable
        session.flush()
        assert session.objects().vector(500) == (0.1, 0.1)
        assert session.num_objects == 31


def test_remove_then_readd_function_in_one_recompute_batch():
    # Regression: the recompute path used to aggregate adds before
    # removes, deleting the re-added function.
    objects = repro.generate_independent(40, 2, seed=24)
    functions = repro.generate_preferences(6, 2, seed=25)
    session = repro.open_session(objects, functions, backend="memory",
                                 batch_size=4, repair_threshold=0.01)
    replacement = repro.LinearPreference.normalized(0, (9.0, 1.0))
    session.remove_function(0)
    session.add_function(replacement)
    session.remove_function(1)
    session.delete_object(3)
    session.flush()
    assert session.stats["full_rematches"] >= 2
    assert [f.fid for f in session.functions()] == [0, 2, 3, 4, 5]
    assert session.functions()[0].weights == replacement.weights
    assert session.num_functions == 5


def test_recompute_session_validates_queued_events():
    objects = repro.generate_independent(20, 2, seed=26)
    functions = repro.generate_preferences(4, 2, seed=27)
    config = repro.MatchingConfig(backend="memory", batch_size=10)
    baseline = repro.RecomputeSession(objects, functions, config)
    baseline.delete_object(3)
    with pytest.raises(SessionError):
        baseline.delete_object(3)       # duplicate queued delete
    baseline.insert_object(900, (0.4, 0.6))
    with pytest.raises(SessionError):
        baseline.insert_object(900, (0.1, 0.1))  # duplicate queued insert
    result = baseline.matching()
    assert len(result.pairs) == 4


def test_within_batch_reinsert_does_not_resurrect_stale_point():
    # Regression: insert/delete/reinsert of one id inside a batch left a
    # ghost entry of the first point parked in the available-skyline;
    # once the id's exclusion was lifted, later plist resurfacing
    # re-admitted the deleted point (crash or silently wrong matching).
    objects = repro.generate_independent(40, 2, seed=30)
    functions = repro.generate_preferences(5, 2, seed=31)
    session = repro.open_session(objects, functions, backend="memory",
                                 batch_size=1, repair_threshold=1e9,
                                 compact_fraction=100.0)  # never compact
    session.delete_object(session.pairs[0].object_id)  # builds the skyline
    session.config = session.config.replace(batch_size=8)
    session.insert_object(100, (0.01, 0.30))  # parked, then stale
    session.delete_object(100)
    session.insert_object(100, (0.30, 0.01))  # incomparable live point
    session.flush()
    for object_id in list(objects.ids):
        if object_id in session._repair.points:
            session.delete_object(object_id)  # force plist resurfacing
    got = sorted((p.function_id, p.object_id, p.score)
                 for p in session.pairs)
    scratch = repro.match(session.objects(), session.functions(),
                          backend="memory")
    want = sorted((p.function_id, p.object_id, p.score)
                  for p in scratch.pairs)
    assert got == want


def test_pending_deleted_id_is_reusable_before_compaction():
    # An id whose object only ever lived in the insert buffer (never
    # compacted into the tree) frees up immediately on deletion, even
    # across flushes — only tree-rooted deletions wait for compaction.
    objects = repro.generate_independent(30, 2, seed=40)
    functions = repro.generate_preferences(5, 2, seed=41)
    session = repro.open_session(objects, functions, backend="memory",
                                 compact_fraction=100.0)
    session.delete_object(session.pairs[0].object_id)  # builds the skyline
    session.insert_object(600, (0.2, 0.7))
    session.flush()
    session.delete_object(600)
    session.insert_object(600, (0.7, 0.2))   # allowed: never tree-rooted
    for object_id in list(objects.ids):
        if object_id in session._repair.points:
            session.delete_object(object_id)
    got = sorted((p.function_id, p.object_id, p.score)
                 for p in session.pairs)
    scratch = repro.match(session.objects(), session.functions(),
                          backend="memory")
    assert got == sorted((p.function_id, p.object_id, p.score)
                         for p in scratch.pairs)

"""A session restage applies the cycle's changes, bit for bit.

``RepairEngine.dataset()`` builds its first snapshot from the surviving
points and then applies the net object changes since the last snapshot
to its id array and matrix. Every snapshot must equal
``Dataset.from_mapping(engine.points)``: the same ids in the same
(ascending) order and the same matrix bytes. A bound session is driven
through the cases that break a wrong merge (an id deleted and inserted
again inside one batch, inserted and deleted inside one batch, new ids
below the minimum and between existing ids, a pool drained to zero and
refilled, the recompute path, ``restore()`` and a catalog whose ids are
not ascending), and what the service serves after each restage must
equal a cold ``repro.match`` on the surviving objects.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.data import Dataset
from repro.dynamic import OBJECT_CHURN, generate_events
from repro.errors import SessionError

#: Few distinct coordinates (ties, and both signed zeros' neighbour 0.0).
COORDS = (0.0, 0.25, 0.5, 0.75, 1.0, 0.1, 1.0 / 3.0)


def assert_snapshot_exact(session):
    """``session.objects()`` against a rebuild from the engine's points."""
    engine = session._repair
    got = session.objects()
    want = Dataset.from_mapping(engine.points, engine.dims)
    assert got.ids == want.ids
    assert got.id_array.dtype == np.int64
    assert got.matrix.shape == want.matrix.shape
    assert got.matrix.tobytes() == want.matrix.tobytes()
    return want


def assert_serves_cold(service, workloads, objects):
    for result, functions in zip(service.submit_many(workloads), workloads):
        cold = repro.match(objects, functions, backend="memory")
        assert result.as_set() == cold.as_set()


class Churner:
    """A bound session plus a model of which ids it holds."""

    def __init__(self, data, session, service, workloads, dims):
        self.data = data
        self.session = session
        self.service = service
        self.workloads = workloads
        self.dims = dims
        self.present = set(session._repair.points)
        self.inserted = {}   # id -> point, for ids this churner inserted
        self.flushes = 0

    def point(self, unlike=None):
        first = COORDS if unlike is None else \
            [value for value in COORDS if value != unlike[0]]
        return (self.data.draw(st.sampled_from(first)),) + tuple(
            self.data.draw(st.sampled_from(COORDS))
            for _ in range(self.dims - 1))

    def insert(self, object_id, unlike=None):
        point = self.point(unlike)
        try:
            self.session.insert_object(object_id, point)
        except SessionError:   # deleted while rooted: not reusable yet
            return False
        self.present.add(object_id)
        self.inserted[object_id] = point
        self._after_event()
        return True

    def delete(self, object_id):
        self.session.delete_object(object_id)
        self.present.discard(object_id)
        self._after_event()

    def _after_event(self):
        if len(self.session.log) == 0:   # the event closed a batch
            self.check()

    def check(self):
        want = assert_snapshot_exact(self.session)
        self.flushes += 1
        if self.flushes % 3 == 0:
            assert_serves_cold(self.service, self.workloads, want)

    def new_id(self):
        """A fresh id below the minimum, between ids or above the max."""
        live = sorted(self.present)
        where = self.data.draw(st.sampled_from(("below", "between", "above")))
        if where == "below" and live and live[0] > 0:
            return self.data.draw(st.integers(0, live[0] - 1))
        if where == "between":
            gaps = [(a, b) for a, b in zip(live, live[1:]) if b - a > 1]
            if gaps:
                a, b = self.data.draw(st.sampled_from(gaps))
                return self.data.draw(st.integers(a + 1, b - 1))
        return (live[-1] if live else 0) + self.data.draw(st.integers(1, 9))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.data())
def test_every_restage_equals_a_rebuild(data):
    dims = data.draw(st.integers(1, 3))
    size = data.draw(st.integers(0, 16))
    ids = data.draw(st.permutations(range(20, 20 + 7 * size, 7)))
    points = [[data.draw(st.sampled_from(COORDS)) for _ in range(dims)]
              for _ in range(size)]
    objects = Dataset(np.array(points, dtype=np.float64).reshape(size, dims),
                      ids=list(ids))
    service = repro.MatchingService(
        objects, backend="memory", deletion_mode="filter",
        # Hypothesis leans on the first choice: batches of several events
        # repaired in place, with compaction rare, so that a flushed id
        # can still be deleted and inserted again inside one batch.
        batch_size=data.draw(st.sampled_from((3, 2, 5, 1))),
        # 0.3 x 3 functions: every batch recomputes (apply_structural).
        repair_threshold=data.draw(st.sampled_from((100.0, 0.3))),
        compact_fraction=data.draw(st.sampled_from((100.0, 0.25))),
    )
    functions = repro.generate_preferences(3, dims, seed=5)
    workloads = [repro.generate_preferences(2, dims, seed=s)
                 for s in (11, 12)]
    with service:
        session = service.open_session(functions)
        churner = Churner(data, session, service, workloads, dims)
        checkpoint = None
        for _ in range(data.draw(st.integers(6, 30))):
            op = data.draw(st.sampled_from((
                "insert", "insert", "delete", "reinsert", "reinsert",
                "insert-delete", "drain", "checkpoint", "restore")))
            live = sorted(churner.present)
            if op == "insert":
                churner.insert(churner.new_id())
            elif op == "delete" and live:
                churner.delete(data.draw(st.sampled_from(live)))
            elif op == "reinsert" and live:
                # Delete then insert the same id with a new point; with
                # batch_size > 1 both can land in one batch. Only an id
                # not yet compacted into the tree may come back at once:
                # prefer one the last snapshot holds, then a queued one.
                flushed = sorted(set(session._repair.pending) & churner.present)
                queued = sorted(set(churner.inserted) & churner.present)
                object_id = data.draw(st.sampled_from(flushed or queued
                                                      or live))
                old = churner.inserted.get(object_id)
                churner.delete(object_id)
                churner.insert(object_id, unlike=old)
            elif op == "insert-delete":
                object_id = churner.new_id()
                if churner.insert(object_id):
                    churner.delete(object_id)
            elif op == "drain":
                for object_id in live:
                    churner.delete(object_id)
            elif op == "checkpoint":
                checkpoint = session.checkpoint()
                churner.check()
            elif op == "restore" and checkpoint is not None:
                session.restore(checkpoint)
                prepared = service.prepared
                prepared.restore_version(prepared.objects_version + 1)
                churner.present = {oid for oid, _ in checkpoint.points}
                churner.check()
        churner.check()


def test_an_id_deleted_and_inserted_again_in_one_batch_takes_its_new_point():
    objects = Dataset([[0.5, 0.5], [0.25, 0.75]], ids=[30, 10])
    with repro.MatchingService(objects, backend="memory",
                               deletion_mode="filter", batch_size=3,
                               repair_threshold=100.0,
                               compact_fraction=100.0) as service:
        session = service.open_session(repro.generate_preferences(2, 2))
        session.insert_object(20, (0.1, 0.1))
        session.insert_object(5, (0.9, 0.9))
        session.insert_object(40, (0.3, 0.3))   # closes the first batch
        assert session.objects().ids == [5, 10, 20, 30, 40]
        session.delete_object(20)                # still pending: reusable
        session.insert_object(20, (0.7, 0.2))
        session.insert_object(15, (0.6, 0.6))   # closes the second batch
        want = assert_snapshot_exact(session)
        assert want.vector(20) == (0.7, 0.2)
        assert_serves_cold(service, [repro.generate_preferences(2, 2, seed=s)
                                     for s in (1, 2)], want)


def test_a_long_churn_run_matches_a_rebuild_after_every_cycle():
    """Churn-serve's shape: a few object events per cycle, then a serve."""
    objects = repro.generate_independent(600, 4, seed=3)
    functions = repro.generate_preferences(8, 4, seed=4)
    events = generate_events(objects, functions, 4 * 300, mix=OBJECT_CHURN,
                             seed=9)
    workloads = [repro.generate_preferences(4, 4, seed=s) for s in (1, 2)]
    with repro.MatchingService(objects, backend="memory",
                               deletion_mode="filter") as service:
        session = service.open_session(functions)
        for cycle in range(300):
            for event in events[4 * cycle:4 * cycle + 4]:
                session.submit(event)
            want = assert_snapshot_exact(session)
            if cycle % 50 == 0:
                assert_serves_cold(service, workloads, want)


def test_changes_kept_between_snapshots_never_outnumber_the_objects():
    objects = repro.generate_independent(20, 2, seed=1)
    session = repro.open_session(objects, repro.generate_preferences(3, 2),
                                 backend="memory")
    engine = session._repair
    for object_id in range(100, 160):
        session.insert_object(object_id, (0.5, 0.5))
        session.delete_object(object_id)
        assert len(engine._changes) <= len(engine.points)
    assert_snapshot_exact(session)

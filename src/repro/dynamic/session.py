"""The long-lived dynamic matching session.

:class:`DynamicMatcher` is the workload-level API of the dynamic
subsystem: open it once (via :func:`repro.open_session` or
:meth:`repro.MatchingPlan.open_session`) and feed it a stream of
``insert_object`` / ``delete_object`` / ``add_function`` /
``remove_function`` events; it keeps the canonical stable matching
valid at every read.

Events are validated eagerly, staged in an :class:`~repro.dynamic.events.EventLog`,
and applied in batches of ``config.batch_size`` (1 = immediately).
Applying a batch chooses between two strategies:

* **localized repair** (the default): each event runs one displacement
  chain in the :class:`~repro.dynamic.repair.RepairEngine` — work
  proportional to the disruption the event actually caused;
* **full recompute**: when a single batch carries at least
  ``config.repair_threshold × |F|`` events, per-event chains stop paying
  off and the session re-runs the configured matcher from scratch.

Reads (:meth:`matching`, :attr:`pairs`, :meth:`partner_of`) flush
pending events first, so results always reflect every submitted event.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.problem import MatchingProblem
from ..core.result import MatchPair
from ..engine.config import MatchingConfig
from ..engine.result import MatchResult
from ..errors import DimensionalityError, SessionError
from ..prefs import LinearPreference
from ..storage.stats import SearchStats
from .events import (
    AddFunction,
    DeleteObject,
    Event,
    EventLog,
    EventSubmitter,
    InsertObject,
    RemoveFunction,
)
from .repair import RepairEngine


@dataclass(frozen=True)
class SessionCheckpoint:
    """The complete logical state of a :class:`DynamicMatcher`, frozen.

    Captures everything the canonical matching is a function of — the
    surviving points and preference functions, the matched triples with
    their exact scores, the id-reuse blocklist — plus the event-log
    totals, so a restored session reports the same ``events_applied``
    counters it did at capture time. Physical state (tree layout,
    tombstone/pending buffers, skyline caches) is deliberately *not*
    captured: the matching is determined by logical state alone (the
    canonical greedy matching is unique), so :meth:`DynamicMatcher.restore`
    may rebuild physical state from scratch and still reproduce
    bit-identical pairs.
    """

    points: Tuple[Tuple[int, Tuple[float, ...]], ...]
    functions: Tuple[LinearPreference, ...]
    pairs: Tuple[Tuple[int, int, float], ...]
    blocked: Tuple[int, ...]
    events_applied: int
    event_counts: Tuple[Tuple[str, int], ...]


class DynamicMatcher(EventSubmitter):
    """A streaming matching session with incremental repair.

    Construct through :func:`repro.open_session`::

        session = repro.open_session(objects, prefs, backend="memory")
        session.insert_object(9001, (0.7, 0.4, 0.9))
        session.delete_object(17)
        session.add_function(repro.LinearPreference(500, (0.5, 0.3, 0.2)))
        result = session.matching()   # equals repro.match() on the
                                      # surviving data, at a fraction of
                                      # the cost

    The constructor itself expects an already-staged
    :class:`~repro.core.problem.MatchingProblem` whose config uses
    tree-preserving ``deletion_mode="filter"``.
    """

    def __init__(self, problem: MatchingProblem, config: MatchingConfig,
                 backend_name: str = "",
                 search_stats: Optional[SearchStats] = None,
                 on_change=None) -> None:
        for function in problem.functions:
            if not isinstance(function, LinearPreference):
                raise SessionError(
                    "dynamic sessions require linear preference functions; "
                    f"got {type(function).__name__}"
                )
        if config.deletion_mode != "filter":
            raise SessionError(
                "dynamic sessions require deletion_mode='filter' (the "
                "session owns all physical tree churn)"
            )
        self.config = config
        self.backend_name = backend_name
        self.search_stats = search_stats
        #: Optional observer called with each accepted event *before* it
        #: is queued — the hook a :class:`~repro.engine.plan.PreparedMatching`
        #: uses to invalidate its served-result cache the moment the
        #: session's object set starts diverging.
        self.on_change = on_change
        self.log = EventLog()
        self._repair = RepairEngine(problem, config, search_stats=search_stats)
        self._closed = False
        self._cpu_seconds = 0.0
        # Projected membership for eager validation of queued events.
        self._projected_objects = set(self._repair.points)
        self._projected_functions = set(self._repair.functions)
        # Ids blocked for reuse (deleted while physically rooted in the
        # tree; freed again by compaction) and ids inserted by events
        # still queued in the current batch.
        self._projected_blocked = set()
        self._queued_new = set()
        start = time.perf_counter()
        self._repair.full_rematch()
        self._cpu_seconds += time.perf_counter() - start

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dims(self) -> int:
        return self._repair.dims

    @property
    def num_objects(self) -> int:
        """Surviving objects, including queued (validated) events."""
        return len(self._projected_objects)

    @property
    def num_functions(self) -> int:
        return len(self._projected_functions)

    @property
    def pairs(self) -> List[MatchPair]:
        """Current stable pairs in canonical order (flushes first)."""
        self.flush()
        return self._repair.pairs()

    def partner_of(self, function_id: int) -> Optional[int]:
        """The object currently assigned to a function (or ``None``)."""
        self.flush()
        return self._repair.matched_function.get(function_id)

    def assigned_to(self, object_id: int) -> Optional[int]:
        """The function currently holding an object (or ``None``)."""
        self.flush()
        return self._repair.matched_object.get(object_id)

    def objects(self):
        """The surviving objects as a :class:`~repro.data.Dataset`."""
        self.flush()
        return self._repair.dataset()

    def functions(self) -> List[LinearPreference]:
        """The surviving preference functions, sorted by id."""
        self.flush()
        return self._repair.function_list()

    def io_snapshot(self):
        """Cumulative simulated I/O of the session's storage stack."""
        return self._repair.problem.io_stats.snapshot()

    @property
    def stats(self) -> Dict[str, int]:
        """Repair counters plus per-kind event totals."""
        counters = self._repair.stats.as_dict()
        counters.update(self.log.counts)
        counters["events_applied"] = self.log.applied
        return counters

    # ------------------------------------------------------------------
    # Event submission
    # ------------------------------------------------------------------
    def insert_object(self, object_id: int,
                      point: Iterable[float]) -> None:
        """Queue the arrival of a new object."""
        point = tuple(float(value) for value in point)
        self._check_open()
        if len(point) != self.dims:
            raise DimensionalityError(self.dims, len(point), "point")
        if any(not np.isfinite(v) or not 0.0 <= v <= 1.0 for v in point):
            raise SessionError(
                f"object {object_id} coordinates must be finite and in "
                f"[0, 1]; normalize raw data with Dataset.from_raw"
            )
        if object_id < 0:
            raise SessionError(f"object ids must be non-negative, got {object_id}")
        if object_id in self._projected_objects:
            raise SessionError(f"object id {object_id} is already present")
        if object_id in self._projected_blocked:
            raise SessionError(
                f"object id {object_id} was deleted and is not reusable "
                f"until the next compaction"
            )
        self._projected_objects.add(object_id)
        self._queued_new.add(object_id)
        self._submit(InsertObject(object_id, point))

    def delete_object(self, object_id: int) -> None:
        """Queue the departure of an existing object."""
        self._check_open()
        if object_id not in self._projected_objects:
            raise SessionError(f"unknown object id {object_id}")
        self._projected_objects.discard(object_id)
        # Only a *physically rooted* deleted id is blocked for reuse (its
        # old point sits in the tree until compaction). Deleting a
        # buffered insert — whether still queued or already applied but
        # pending compaction — frees the id immediately; the repair layer
        # drops its skyline cache on such reuse.
        if (
            object_id not in self._queued_new
            and object_id not in self._repair.pending
        ):
            self._projected_blocked.add(object_id)
        self._submit(DeleteObject(object_id))

    def add_function(self, function: LinearPreference) -> None:
        """Queue the arrival of a new preference function."""
        self._check_open()
        if not isinstance(function, LinearPreference):
            raise SessionError(
                "add_function expects a LinearPreference, got "
                f"{type(function).__name__}"
            )
        if function.dims != self.dims:
            raise DimensionalityError(self.dims, function.dims, "weights")
        if function.fid in self._projected_functions:
            raise SessionError(
                f"function id {function.fid} is already present"
            )
        self._projected_functions.add(function.fid)
        self._submit(AddFunction(function))

    def remove_function(self, function_id: int) -> None:
        """Queue the departure of an existing preference function."""
        self._check_open()
        if function_id not in self._projected_functions:
            raise SessionError(f"unknown function id {function_id}")
        self._projected_functions.discard(function_id)
        self._submit(RemoveFunction(function_id))

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError("session is closed")

    def _submit(self, event: Event) -> None:
        # Observers run first: a validated event is about to change the
        # session's world, so bound caches must go stale *before* any
        # flush this submission may trigger.
        if self.on_change is not None:
            self.on_change(event)
        super()._submit(event)

    # ------------------------------------------------------------------
    # Batch application
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Apply every queued event now; returns how many were applied."""
        events = self.log.drain()
        if not events:
            return 0
        start = time.perf_counter()
        threshold = self.config.repair_threshold * max(
            1, len(self._repair.functions)
        )
        if len(events) >= threshold:
            self._apply_recompute(events)
        else:
            for event in events:
                self._apply_repair(event)
            self._repair.compact()
        # Re-derive the reuse blocklist from what is actually still
        # rooted in the tree (compaction may have freed ids).
        self._queued_new.clear()
        self._projected_blocked = set(self._repair.tombstones)
        self._cpu_seconds += time.perf_counter() - start
        return len(events)

    def _apply_repair(self, event: Event) -> None:
        if isinstance(event, InsertObject):
            self._repair.insert_object(event.object_id, event.point)
        elif isinstance(event, DeleteObject):
            self._repair.delete_object(event.object_id)
        elif isinstance(event, AddFunction):
            self._repair.add_function(event.function)
        else:
            self._repair.remove_function(event.function_id)

    def _apply_recompute(self, events: Sequence[Event]) -> None:
        """High-churn batch: apply structurally (in order), then rematch."""
        self._repair.apply_structural(events)
        self._repair.full_rematch()

    # ------------------------------------------------------------------
    # Checkpoint / restore (the repro.replay rewind hooks)
    # ------------------------------------------------------------------
    def checkpoint(self) -> SessionCheckpoint:
        """Capture the session's logical state (flushes first).

        The returned :class:`SessionCheckpoint` is immutable and holds
        no references to the session's mutable internals; it stays valid
        however far the session advances afterwards.
        """
        self._check_open()
        self.flush()
        repair = self._repair
        return SessionCheckpoint(
            points=tuple(sorted(repair.points.items())),
            functions=tuple(repair.function_list()),
            pairs=tuple(
                (fid, object_id, repair.pair_score[fid])
                for fid, object_id in sorted(repair.matched_function.items())
            ),
            blocked=tuple(sorted(self._projected_blocked)),
            events_applied=self.log.applied,
            event_counts=tuple(sorted(self.log.counts.items())),
        )

    def restore(self, checkpoint: SessionCheckpoint) -> None:
        """Return the session, in place, to a captured checkpoint.

        Rebuilds a fresh physical staging (backend problem + repair
        engine) from the checkpoint's logical state and installs the
        recorded matching wholesale via
        :meth:`~repro.dynamic.repair.RepairEngine.seed_matching`. Because
        the canonical matching and every repair chain depend only on the
        logical point/function state (unique greedy matching, canonical
        tie rules) — never on physical tree layout or tombstone
        placement — replaying the same event stream from the restored
        state reproduces bit-identical pairs and scores.

        Two deliberate non-goals: the restored physical tree is compact
        (the original's tombstone backlog is not reproduced, so the
        id-reuse blocklist can free ids *earlier* after the next flush),
        and ``on_change`` observers are not notified — a restore is a
        rewind, not churn; callers owning derived state (the serving
        cache, ``objects_version``) rewind it through their own
        snapshots (see :mod:`repro.replay`).
        """
        from ..engine.backends import get_backend

        self._check_open()
        # Pending-but-unflushed events would be silently lost otherwise;
        # apply them so the discard below is explicit state replacement.
        self.flush()
        from ..data import Dataset

        points = dict(checkpoint.points)
        functions = list(checkpoint.functions)
        dataset = Dataset.from_mapping(points, self.dims, name="session")
        problem = get_backend(self.config.backend).build_problem(
            dataset, functions, self.config
        )
        start = time.perf_counter()
        self._repair = RepairEngine(
            problem, self.config, search_stats=self.search_stats
        )
        self._repair.seed_matching(checkpoint.pairs)
        self._cpu_seconds += time.perf_counter() - start
        self.log = EventLog()
        self.log.applied = checkpoint.events_applied
        self.log.counts.update(dict(checkpoint.event_counts))
        self._projected_objects = set(points)
        self._projected_functions = {f.fid for f in functions}
        self._projected_blocked = set(checkpoint.blocked)
        self._queued_new = set()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def matching(self) -> MatchResult:
        """A :class:`~repro.engine.result.MatchResult` snapshot.

        Equal, pair for pair, to ``repro.match()`` on the surviving
        objects and functions with the session's configuration.
        """
        self.flush()
        repair = self._repair
        pairs = repair.pairs()
        matched = {pair.function_id for pair in pairs}
        unmatched = [
            fid for fid in sorted(repair.functions) if fid not in matched
        ]
        return MatchResult(
            pairs,
            unmatched_functions=unmatched,
            unmatched_objects_count=len(repair.points) - len(pairs),
            algorithm=f"dynamic-{self.config.algorithm}",
            backend=self.backend_name,
            io=self.io_snapshot(),
            cpu_seconds=self._cpu_seconds,
            seed=self.config.seed,
            stats={key: float(value) for key, value in self.stats.items()},
        )

    def close(self) -> "MatchResult":
        """Flush, snapshot, and refuse further events."""
        result = self.matching()
        self._closed = True
        return result

    def __enter__(self) -> "DynamicMatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicMatcher(|O|={self.num_objects}, "
            f"|F|={self.num_functions}, matched={len(self._repair.matched_function)}, "
            f"algorithm={self.config.algorithm!r}, pending={len(self.log)})"
        )

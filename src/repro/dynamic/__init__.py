"""Dynamic matching: incremental repair over streaming updates.

The static pipeline answers "what is the stable matching of this
snapshot"; this package answers it *continuously* while the snapshot
churns. A :class:`DynamicMatcher` session (opened through
:func:`repro.open_session` or :meth:`repro.MatchingPlan.open_session`)
consumes insert/delete/add/remove events and keeps the canonical stable
matching valid by localized displacement chains — the matching after any
event sequence equals a from-scratch ``repro.match()`` on the surviving
data:

    >>> import repro
    >>> objects = repro.generate_independent(n=90, dims=2, seed=3)
    >>> prefs = repro.generate_preferences(n=6, dims=2, seed=4)
    >>> session = repro.open_session(objects, prefs, backend="memory")
    >>> session.insert_object(1000, (0.99, 0.98))   # a dominant arrival
    >>> session.delete_object(session.pairs[-1].object_id)
    >>> session.remove_function(prefs[0].fid)
    >>> scratch = repro.match(session.objects(), session.functions(),
    ...                       backend="memory")
    >>> session.matching().as_set() == scratch.as_set()
    True

The same displacement-chain machinery (exposed as
:meth:`RepairEngine.seed_matching` / :meth:`RepairEngine.release_object`)
drives the exact cross-shard merge of :mod:`repro.parallel`.

Modules
-------
``events``
    Event dataclasses and the batched :class:`EventLog`.
``session``
    The :class:`DynamicMatcher` workload API (validation, batching,
    repair-vs-recompute decision).
``repair``
    The :class:`RepairEngine`: displacement chains, the maintained
    available-pool skyline, tombstoned/buffered physical tree churn.
``baseline``
    :class:`RecomputeSession`, the rebuild-everything-per-flush baseline.
``workload``
    Deterministic event-stream generators and the replay oracle.
"""

from .baseline import RecomputeSession
from .events import (
    AddFunction,
    DeleteObject,
    Event,
    EventLog,
    InsertObject,
    RemoveFunction,
    replay_events,
)
from .repair import RepairEngine, RepairStats
from .session import DynamicMatcher, SessionCheckpoint
from .workload import (
    MIXED_CHURN,
    OBJECT_CHURN,
    PREFERENCE_CHURN,
    UpdateMix,
    apply_events,
    events_for_ratio,
    generate_events,
)

__all__ = [
    "AddFunction",
    "DeleteObject",
    "DynamicMatcher",
    "Event",
    "EventLog",
    "InsertObject",
    "MIXED_CHURN",
    "OBJECT_CHURN",
    "PREFERENCE_CHURN",
    "RecomputeSession",
    "RemoveFunction",
    "RepairEngine",
    "RepairStats",
    "SessionCheckpoint",
    "UpdateMix",
    "apply_events",
    "events_for_ratio",
    "generate_events",
    "replay_events",
]

"""The per-shard unit of work, picklable for process pools.

A :class:`ShardTask` carries everything a worker needs to stage and
match one shard — the shard's ``(ids, points)`` numpy arrays,
:class:`~repro.prefs.LinearPreference` objects, and a (frozen,
capacity-free) :class:`~repro.engine.MatchingConfig` — so it crosses a
process boundary with the default pickler, the arrays as raw buffers.
:func:`run_shard_task` is the module-level worker entry point (process
pools resolve it by qualified name).

A :class:`ShardOutcome` ships the results back: the shard-local stable
pairs as bare ``(function_id, object_id, score)`` triples plus the
shard's cost counters (I/O snapshot, :class:`~repro.storage.SearchStats`,
matcher counters, wall seconds), which the
:class:`~repro.parallel.ShardedMatcher` aggregates into the global
result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..data import Dataset
from ..engine.config import MatchingConfig
from ..prefs import LinearPreference
from ..storage.stats import IOSnapshot, SearchStats


@dataclass(frozen=True, eq=False)
class ShardTask:  # lint: pickled
    """One shard's staging-and-matching assignment (picklable).

    ``ids`` (int64, ascending) and ``points`` (float64, one row per id)
    are the shard's objects as
    :func:`~repro.parallel.partition.hilbert_shards` cuts them; a worker
    turns them into a :class:`~repro.data.Dataset` only when it stages,
    so a warm worker does no per-object work.

    ``staging_key`` (optional) is a ``(staging token, shard index)``
    pair identifying one staging epoch of one prepared matching. Workers
    keep the shard problem they staged for a key and reuse it — tree
    bulk-loaded once, matched many times — until a task arrives with a
    different token (the prepared matching restaged: its objects
    changed), at which point stale entries are dropped. ``None`` keeps
    the classic stage-per-call behaviour.
    """

    index: int
    ids: np.ndarray
    points: np.ndarray
    functions: Tuple[LinearPreference, ...]
    config: MatchingConfig
    staging_key: Optional[Tuple[int, int]] = None


@dataclass
class ShardOutcome:  # lint: pickled
    """One shard's matching and cost counters (picklable)."""

    index: int
    #: Shard-local stable pairs as ``(function_id, object_id, score)``.
    pairs: List[Tuple[int, int, float]] = field(default_factory=list)
    io: Optional[IOSnapshot] = None
    search: SearchStats = field(default_factory=SearchStats)
    rounds: int = 0
    top1_searches: int = 0
    reverse_top1_queries: int = 0
    seconds: float = 0.0
    #: Whether this run bulk-loaded the shard tree (False: a warm,
    #: worker-cached staging was reused).
    staged: bool = True


#: Worker-resident staging cache: ``staging_key -> staged problem``.
#: Lives for the worker's lifetime (the persistent pool's point).
#: Entries are grouped by staging token (one token per prepared
#: matching per staging epoch); the most recently *used* tokens are
#: kept, so several live prepared matchings sharing one process
#: (serial/thread executors) do not thrash each other's warm trees.
#: Memory: one token's shards partition one dataset, so a token costs
#: about one staged copy of its dataset per process; the token LRU
#: bounds the total at :data:`_MAX_STAGED_TOKENS` datasets. (A process
#: pool rotates shards over its workers run by run — see
#: :class:`~repro.parallel.ShardWorkerPool` — so with at least as many
#: workers as shards every worker has staged every shard after one
#: rotation; serial/thread reuse is total from the second run.)
_STAGED_SHARDS: dict = {}

#: Recently-used staging tokens, oldest first (values unused). Bounds
#: how many prepared matchings' shard trees one worker keeps warm.
_STAGED_TOKENS: dict = {}
_MAX_STAGED_TOKENS = 4


def _touch_token(token: int) -> None:
    """Mark a token used; evict entire stale token generations."""
    _STAGED_TOKENS.pop(token, None)
    _STAGED_TOKENS[token] = None
    while len(_STAGED_TOKENS) > _MAX_STAGED_TOKENS:
        # next(iter(...)) under the GIL; tolerate a concurrent pop.
        try:
            stale = next(iter(_STAGED_TOKENS))
        except StopIteration:  # pragma: no cover - concurrent drain
            break
        purge_staged_shards(stale)


def purge_staged_shards(token: int) -> None:
    """Drop one token's cached shard problems from *this* process.

    Called on token eviction and by ``PreparedMatching.close()`` (where
    it frees the serial/thread executors' in-process cache; process
    workers free theirs when the pool shuts down). Snapshot + pop so
    concurrent thread-pool workers can insert or evict safely.
    """
    _STAGED_TOKENS.pop(token, None)
    for key in [k for k in list(_STAGED_SHARDS) if k[0] == token]:
        _STAGED_SHARDS.pop(key, None)


def _staged_problem(task: ShardTask):
    """The shard's staged problem: worker-cached when the task has a
    staging key, freshly built otherwise. Returns ``(problem, staged)``
    where ``staged`` says whether a bulk load was paid."""
    from ..engine.backends import get_backend

    if task.staging_key is not None:
        _touch_token(task.staging_key[0])
        cached = _STAGED_SHARDS.get(task.staging_key)
        if cached is not None:
            if cached.tree.num_objects != len(cached.objects):
                # A deletion_mode="delete" base matcher consumed the
                # warm tree on the previous run; restore it.
                cached = cached.rebuild()
                _STAGED_SHARDS[task.staging_key] = cached
                return cached, True
            return cached, False
    dataset = Dataset(task.points, ids=task.ids,
                      name=f"shard-{task.index}")
    problem = get_backend(task.config.backend).build_problem(
        dataset, list(task.functions), task.config
    )
    if task.staging_key is not None:
        _STAGED_SHARDS[task.staging_key] = problem
    return problem, True


def run_shard_task(task: ShardTask) -> ShardOutcome:
    """Stage (or reuse) one shard on its backend and run the matcher.

    Empty shards (no objects) and empty function sets short-circuit to
    an empty outcome without touching the storage layer.
    """
    # Imported here (not at module top) to keep the worker import
    # footprint honest under spawn-style pools.
    from ..engine.registry import create_matcher

    outcome = ShardOutcome(index=task.index)
    if not len(task.ids) or not task.functions:
        return outcome

    start = time.perf_counter()
    staged, outcome.staged = _staged_problem(task)
    problem = staged.with_functions(list(task.functions))
    problem.reset_io()
    matcher = create_matcher(
        task.config.algorithm, problem, task.config,
        search_stats=outcome.search,
    )
    outcome.pairs = [
        (pair.function_id, pair.object_id, pair.score)
        for pair in matcher.pairs()
    ]
    outcome.io = problem.io_stats.snapshot()
    outcome.rounds = getattr(matcher, "rounds", 0)
    outcome.top1_searches = getattr(matcher, "top1_searches", 0)
    outcome.reverse_top1_queries = getattr(matcher, "reverse_top1_queries", 0)
    outcome.seconds = time.perf_counter() - start
    return outcome

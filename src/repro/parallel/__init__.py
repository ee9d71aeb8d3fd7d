"""Sharded parallel matching: partition, match per shard, merge, repair.

The paper's skyline-based matching decomposes over disjoint regions of
object space: the stable matching of ``(F, O)`` can be recovered from
the per-shard stable matchings of ``(F, O_1), ..., (F, O_K)`` for any
partition ``O = O_1 ∪ ... ∪ O_K``. This package exploits that:

1. **partition** — objects are sorted by Hilbert key and cut into ``K``
   contiguous spatial ranges (:func:`hilbert_ranges`), so every shard is
   a compact region with its own small R-tree;
2. **match** — each shard bulk-loads its tree on the configured storage
   backend and runs the configured base algorithm against *all*
   functions, concurrently on a process pool (thread/serial executors
   exist for fallback and deterministic testing);
3. **merge** — each function keeps its best shard-local partner
   (provably a stable sub-matching; see
   :func:`repro.parallel.merge.merge_shard_pairs`);
4. **repair** — every displaced shard-local winner re-enters through one
   displacement chain of the dynamic subsystem's
   :class:`~repro.dynamic.repair.RepairEngine`
   (:meth:`~repro.dynamic.repair.RepairEngine.release_object`), exactly
   like an insertion event, which restores the canonical global
   matching.

The result is pair-for-pair identical to the single-process
``repro.match()`` for every linear-preference algorithm and storage
backend; only the wall clock changes. Use it through ``repro.match``
or, to keep the worker pool warm across workloads, a prepared plan::

    result = repro.match(objects, prefs, shards=4)              # wrap sb
    result = repro.match(objects, prefs, algorithm="sharded-sb")
    with repro.plan(shards=8, executor="process").prepare(objects) as prepared:
        result = prepared.run(prefs)
"""

from .executors import (
    BoundedThreadPool,
    ShardWorkerPool,
    available_executors,
    run_shard_tasks,
)
from .matcher import DEFAULT_SHARDS, ShardedMatcher, is_sharded_algorithm
from .merge import cross_shard_repair, merge_shard_pairs
from .partition import hilbert_ranges
from .shard import ShardOutcome, ShardTask, run_shard_task

__all__ = [
    "BoundedThreadPool",
    "DEFAULT_SHARDS",
    "ShardOutcome",
    "ShardTask",
    "ShardWorkerPool",
    "ShardedMatcher",
    "available_executors",
    "cross_shard_repair",
    "hilbert_ranges",
    "is_sharded_algorithm",
    "merge_shard_pairs",
    "run_shard_task",
    "run_shard_tasks",
]

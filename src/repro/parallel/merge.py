"""Cross-shard merge: shard-local matchings to the global matching.

:func:`merge_shard_pairs` keeps each function's best shard-local
partner; :func:`cross_shard_repair` re-introduces the shard winners
that lost the merge, one displacement chain each, and so restores the
canonical global matching — pair-for-pair identical to single-process
``repro.match()``. Why that is exact, and why objects left unmatched in
their own shard never need to be looked at, is argued in the parallel
guide (``docs/guides/parallel.md``, "Why the merge is exact").

The repair runs a :class:`~repro.dynamic.repair.RepairEngine` seeded
with the shard winners only — the objects in some shard's pairs, at
most ``K * |F|`` of them — so its cost does not grow with ``|O|``: it
reads neither the parent's full object set nor its tree.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import (
    Dict, Iterable, List, Optional, Sequence, Set, Tuple, cast,
)

from ..core.problem import MatchingProblem
from ..dynamic.repair import RepairEngine
from ..engine.config import MatchingConfig
from ..storage.stats import SearchStats

Triple = Tuple[int, int, float]


def merge_shard_pairs(shard_pairs: Iterable[Sequence[Triple]],
                      ) -> Tuple[List[Triple], List[int]]:
    """Keep each function's best shard-local partner.

    ``shard_pairs`` yields one sequence of ``(function_id, object_id,
    score)`` triples per shard. Returns ``(merged, displaced)`` where
    ``merged`` is the stable sub-matching (each function's best
    shard-local pair, ties broken toward the lower object id — the
    library-wide canonical discipline) and ``displaced`` are the
    object ids that were matched in their own shard but lost the merge,
    sorted ascending. Only those objects can still enter the global
    matching; they are re-introduced by repair chains.
    """
    best: Dict[int, Tuple[float, int]] = {}
    matched_somewhere: Set[int] = set()
    for pairs in shard_pairs:
        for fid, object_id, score in pairs:
            matched_somewhere.add(object_id)
            current = best.get(fid)
            if (
                current is None
                or score > current[0]
                or (score == current[0] and object_id < current[1])
            ):
                best[fid] = (score, object_id)
    merged = [
        (fid, object_id, score)
        for fid, (score, object_id) in sorted(best.items())
    ]
    kept = {object_id for _, object_id, _ in merged}
    displaced = sorted(matched_somewhere - kept)
    return merged, displaced


def cross_shard_repair(problem: MatchingProblem, config: MatchingConfig,
                       merged: Sequence[Triple],
                       displaced: Sequence[int],
                       search_stats: Optional[SearchStats] = None,
                       ) -> RepairEngine:
    """Restore the canonical global matching from a merged sub-matching.

    Seeds a :class:`~repro.dynamic.repair.RepairEngine` over the
    problem's functions and the shard winners (the merged and displaced
    objects) with the merged matching, then runs one displacement chain
    per displaced shard winner. Returns the engine, whose
    :meth:`~repro.dynamic.repair.RepairEngine.pairs` is the canonical
    matching and whose ``stats`` count the repair work (chains, steps,
    steals).
    """
    winners = sorted({object_id for _, object_id, _ in merged}
                     | set(displaced))
    # The view has no tree, so the repair can neither resolve nor
    # mutate the parent's. Filter mode, and neither compact() nor
    # full_rematch() is invoked.
    view = SimpleNamespace(objects=problem.objects.subset(winners),
                           functions=problem.functions)
    engine = RepairEngine(
        cast(MatchingProblem, view), config.replace(deletion_mode="filter"),
        search_stats=search_stats,
    )
    engine.seed_matching(merged)
    for object_id in displaced:
        engine.release_object(object_id)
    return engine

"""SB: Skyline-Based stable assignment — the paper's algorithm.

The core observation: with monotone preference functions, the top-1 object
of *every* function lies in the skyline of the remaining objects. SB
therefore (Algorithm 1 of the paper):

1. computes the skyline of ``O`` once with BBS, recording every pruned
   R-tree entry in the pruned list of exactly one skyline member;
2. finds the best function for each skyline object with the reverse top-1
   threshold algorithm over per-coefficient sorted lists (Section IV-A,
   tight threshold) — one lockstep pass per round answers every object
   that needs it, each exactly as a scan of its own would;
3. emits *all* mutual-best pairs at once (Section IV-C): each object's
   best function whose own best skyline object points back at it — at
   least one pair (the global maximum) is always emitted;
4. removes the assigned objects from the skyline and refreshes it by
   re-examining only their pruned lists (Section IV-B) — the R-tree is
   never re-traversed from the root;
5. repeats until functions (or objects) run out.

Implementation notes:

* ``o.fbest`` results are cached across rounds and recomputed only when
  the cached function was assigned (removals can never promote a
  different function to the top); ``cache_best=False`` disables this for
  the ablation benchmark.
* ``f.obest`` is computed as an argmax over the skyline; a vectorized
  numpy pass shortlists candidates within a safety margin, then the
  canonical score arithmetic picks the exact winner, keeping SB's
  comparisons bitwise-consistent with the other matchers.
* ``maintenance="retraversal"`` swaps step 4 for the re-traversal
  baseline (ablation of the plist design).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..errors import MatchingError
from ..prefs import FunctionIndex, LinearPreference
from ..prefs.index import THRESHOLDS
from ..skyline import (
    SkylineState,
    compute_skyline,
    recompute_with_pruning,
    update_after_removal,
)
from ..storage.stats import SearchStats
from .base import Matcher
from .problem import MatchingProblem
from .result import MatchPair

#: Skyline maintenance between rounds: pruned lists (Section IV-B) or
#: the re-traversal baseline.
MAINTENANCE_MODES = ("plist", "retraversal")

#: Safety margin for the vectorized argmax shortlist; must exceed the
#: worst-case difference between a BLAS dot product and the canonical
#: left-to-right sum (~D ulps on unit-scale data).
_ARGMAX_MARGIN = 1e-9


class SkylineMatcher(Matcher):
    """The paper's SB algorithm.

    Parameters
    ----------
    problem:
        The matching problem to solve (SB never mutates its R-tree).
    multi_pair:
        Emit every mutual-best pair per round (Section IV-C, default) or
        only the single global best pair (ablation).
    maintenance:
        ``"plist"`` (Section IV-B, default) or ``"retraversal"``.
    threshold:
        ``"tight"`` (Section IV-A, default) or ``"naive"`` TA threshold.
    cache_best:
        Reuse ``o.fbest`` across rounds while it stays valid (default) or
        recompute it every round (ablation).
    on_round:
        Optional callback invoked with a :class:`~repro.core.RoundTrace`
        after every loop; :class:`~repro.core.RoundRecorder` keeps them.
    """

    name = "skyline"
    supports_repair = True

    def __init__(self, problem: MatchingProblem,
                 multi_pair: bool = True,
                 maintenance: str = "plist",
                 threshold: str = "tight",
                 cache_best: bool = True,
                 search_stats: Optional[SearchStats] = None,
                 on_round=None) -> None:
        super().__init__(problem, search_stats)
        #: Optional callback invoked with a RoundTrace after every loop.
        self.on_round = on_round
        if maintenance not in MAINTENANCE_MODES:
            raise MatchingError(
                f"maintenance must be one of {MAINTENANCE_MODES}, "
                f"got {maintenance!r}"
            )
        if threshold not in THRESHOLDS:
            raise MatchingError(
                f"threshold must be one of {THRESHOLDS}, got {threshold!r}"
            )
        self.multi_pair = multi_pair
        self.maintenance = maintenance
        self.threshold = threshold
        self.cache_best = cache_best
        #: Rounds executed (== skyline maintenance calls + 1).
        self.rounds = 0
        #: Reverse top-1 queries issued.
        self.reverse_top1_queries = 0

    def pairs(self) -> Iterator[MatchPair]:
        tree = self.problem.tree
        index = FunctionIndex(self.problem.functions, threshold=self.threshold)
        state: Optional[SkylineState] = None
        excluded: Set[int] = set()
        pending_orphans: List = []
        # o.fbest cache: object id -> (score, function id).
        fbest: Dict[int, Tuple[float, int]] = {}
        rank = 0

        while len(index) > 0:
            if state is None:
                state = compute_skyline(tree, stats=self.search_stats)
            elif self.maintenance == "plist":
                update_after_removal(
                    tree, state, pending_orphans, stats=self.search_stats
                )
                pending_orphans = []
            else:
                recompute_with_pruning(
                    tree, state, excluded, stats=self.search_stats
                )
            if len(state) == 0:
                break  # objects exhausted; remaining functions unmatched

            if not self.cache_best:
                fbest.clear()
            sky_ids = state.ids()
            sky_matrix = state.matrix()
            stale = [row for row, object_id in enumerate(sky_ids)
                     if object_id not in fbest
                     or fbest[object_id][1] not in index]
            if stale:
                fids, scores = index.reverse_top1(
                    sky_matrix[stale], stats=self.search_stats)
                self.reverse_top1_queries += len(stale)
                for row, fid, score in zip(stale, fids.tolist(),
                                           scores.tolist()):
                    fbest[sky_ids[row]] = (score, fid)

            skyline_size = len(state)
            emitted = self._mutual_pairs(index, state, fbest, sky_ids,
                                         sky_matrix)
            if not self.multi_pair:
                emitted = emitted[:1]
            if not emitted:
                raise MatchingError(
                    "SB round produced no stable pair; Property 1 violated"
                )
            for score, fid, object_id in emitted:
                yield MatchPair(
                    fid, object_id, score, round=self.rounds, rank=rank
                )
                rank += 1
                index.remove(fid)
                pending_orphans.extend(state.remove(object_id))
                excluded.add(object_id)
                fbest.pop(object_id, None)
            if self.on_round is not None:
                from .trace import RoundTrace

                self.on_round(RoundTrace(
                    round=self.rounds,
                    skyline_size=skyline_size,
                    pairs=tuple(
                        (fid, object_id, score)
                        for score, fid, object_id in emitted
                    ),
                    functions_remaining=len(index),
                    reverse_top1_queries=self.reverse_top1_queries,
                ))
            self.rounds += 1

    # ------------------------------------------------------------------
    # One round's mutual-best pairs
    # ------------------------------------------------------------------
    def _mutual_pairs(self, index: FunctionIndex, state: SkylineState,
                      fbest: Dict[int, Tuple[float, int]],
                      sky_ids: List[int], sky_matrix: np.ndarray,
                      ) -> List[Tuple[float, int, int]]:
        """All (score, fid, oid) with o.fbest = f and f.obest = o, sorted
        by the canonical (score desc, fid asc, oid asc) order."""
        candidate_fids = sorted({fbest[object_id][1] for object_id in sky_ids})
        emitted: List[Tuple[float, int, int]] = []
        for fid in candidate_fids:
            function = index.function(fid)
            obest = self._argmax_object(function, sky_ids, sky_matrix, state)
            if fbest[obest][1] != fid:
                continue
            emitted.append((function.score(state.point(obest)), fid, obest))
        emitted.sort(key=lambda item: (-item[0], item[1], item[2]))
        return emitted

    def _argmax_object(self, function: LinearPreference, sky_ids: List[int],
                       sky_matrix: np.ndarray, state: SkylineState) -> int:
        """``f.obest``: the skyline object maximizing ``f`` (ties: lowest
        id), exact under the canonical arithmetic."""
        scores = sky_matrix @ np.asarray(function.weights)
        shortlist = np.nonzero(scores >= scores.max() - _ARGMAX_MARGIN)[0]
        best_score = float("-inf")
        best_oid = -1
        for row in shortlist:
            object_id = sky_ids[row]
            score = function.score(state.point(object_id))
            if self.search_stats is not None:
                self.search_stats.score_evaluations += 1
            if score > best_score or (
                score == best_score and object_id < best_oid
            ):
                best_score = score
                best_oid = object_id
        return best_oid

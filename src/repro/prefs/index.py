"""Sorted-list function index and reverse top-1 threshold algorithm.

Section IV-A of the paper: to find, for a skyline object ``o``, the best
*function* (a "reverse top-1" query, roles of objects and functions
swapped), the function set ``F`` is organized as ``D`` lists — list ``i``
holds ``(alpha_i, f)`` for every function, sorted descending by the i-th
coefficient. Fagin's threshold algorithm (TA) walks the lists round-robin,
fully scoring each newly seen function, until the best score found beats a
threshold bounding every unseen function.

The paper's twist is the **tight threshold**: the naive TA threshold
``T = sum_i l_i * o_i`` (``l_i`` = last coefficient seen in list ``i``)
ignores that weights must sum to 1, and ``sum_i l_i`` is usually > 1. The
tight threshold distributes a unit budget over the dimensions in
decreasing order of ``o``'s values, capping each share at ``l_i``:
``T_tight = sum_i beta_i * o_i`` with ``beta_i <= l_i`` and
``sum beta_i = 1``. Both variants are implemented; the ablation benchmark
measures the gap.

SB asks for the reverse top-1 of many objects at once: every skyline
object whose cached best function was assigned in the last round.
:meth:`FunctionIndex.reverse_top1` answers all of them in one lockstep TA
pass. Which list entries a sweep passes, which functions it sees first and
which caps it leaves depend only on the lists and the alive set, never on
the point, so every row walks the same sweeps and rows differ only in the
sweep at which they stop. Scores and thresholds repeat the scalar float
operations in the scalar order (``canonical_score``, ``tight_threshold``),
so each row gets the winner, score bits and counters of a scan of its own.

Functions are removed as the matcher assigns them; removal uses tombstones
with periodic compaction, so one removal per matching round stays cheap.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import DimensionalityError, PreferenceError
from ..storage.stats import SearchStats
from .functions import WEIGHT_SUM_TOLERANCE, LinearPreference

#: The TA stop thresholds: the paper's tight bound and the naive one.
THRESHOLDS = ("tight", "naive")

#: Compact the sorted lists when dead entries exceed this fraction.
_COMPACT_FRACTION = 0.5

#: Safety margin added to the TA stop test. The threshold is admissible in
#: exact arithmetic, but a computed score can exceed the computed bound by
#: a few ulps (e.g. two 0.9-coordinates summing to 0.9000000000000001
#: against a bound that rounds to 0.8999999999999999). Requiring
#: ``best > bound + margin`` keeps the scan going through such ties, so
#: the returned winner — and its lowest-id tie-break — is exact.
TA_STOP_MARGIN = 1e-12


class FunctionIndex:
    """The TA index over a set of preference functions.

    Parameters
    ----------
    functions:
        The initial function set (all must share one dimensionality; ids
        must be unique).
    threshold:
        ``"tight"`` (the paper's bound, default) or ``"naive"``.
    """

    def __init__(self, functions: Sequence[LinearPreference],
                 threshold: str = "tight") -> None:
        if threshold not in THRESHOLDS:
            raise PreferenceError(
                f"threshold must be one of {THRESHOLDS}, got {threshold!r}"
            )
        self.threshold = threshold
        self._functions: Dict[int, LinearPreference] = {}
        for function in functions:
            if function.fid in self._functions:
                raise PreferenceError(f"duplicate function id {function.fid}")
            self._functions[function.fid] = function
        if self._functions:
            dims = next(iter(self._functions.values())).dims
            for function in self._functions.values():
                if function.dims != dims:
                    raise DimensionalityError(dims, function.dims, "weights")
            self.dims = dims
        else:
            self.dims = 0
        self._alive: Dict[int, LinearPreference] = dict(self._functions)
        self._dead = 0
        self._lists: List[List[Tuple[float, int]]] = [
            sorted(
                ((f.weights[d], f.fid) for f in self._functions.values()),
                key=lambda pair: (-pair[0], pair[1]),
            )
            for d in range(self.dims)
        ]

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._alive)

    def __contains__(self, fid: int) -> bool:
        return fid in self._alive

    def function(self, fid: int) -> LinearPreference:
        """Look up an alive function by id."""
        try:
            return self._alive[fid]
        except KeyError:
            raise PreferenceError(f"function {fid} is not in the index") from None

    def alive_functions(self) -> Iterator[LinearPreference]:
        """Iterate the remaining (unassigned) functions."""
        return iter(self._alive.values())

    def alive_ids(self) -> List[int]:
        return list(self._alive)

    def remove(self, fid: int) -> None:
        """Remove an assigned function (tombstone + lazy compaction)."""
        if fid not in self._alive:
            raise PreferenceError(f"function {fid} is not in the index")
        del self._alive[fid]
        self._dead += 1
        if (
            self._dead >= 32
            and self._dead > _COMPACT_FRACTION * len(self._functions)
        ):
            self._compact()

    def _compact(self) -> None:
        self._functions = dict(self._alive)
        self._dead = 0
        self._lists = [
            [pair for pair in lst if pair[1] in self._alive]
            for lst in self._lists
        ]

    # ------------------------------------------------------------------
    # Reverse top-1 (threshold algorithm)
    # ------------------------------------------------------------------
    def reverse_top1(self, points: Sequence[Sequence[float]],
                     stats: Optional[SearchStats] = None,
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Every row's best alive function (ties: lowest id), in one pass.

        ``points`` is an ``(n, dims)`` array (or a list of points).
        Returns ``(fids, scores)``: an int64 and a float64 array of ``n``
        entries. An empty index answers fid ``-1`` and score ``-inf`` for
        every row.

        The rows walk the lists in lockstep (see the module docstring). A
        row stops as soon as its best complete score strictly exceeds its
        threshold (strictness preserves the lowest-id tie-break), and all
        rows stop when every alive function has been seen or the lists
        are exhausted. ``stats`` counts each row's scored functions and
        threshold tests, as one scan per row would.
        """
        rows = np.asarray(points, dtype=np.float64)
        if rows.ndim == 1 and not rows.size:
            rows = rows.reshape(0, self.dims)
        if rows.ndim != 2:
            raise PreferenceError(
                f"points must be an (n, dims) array, got shape {rows.shape}"
            )
        fids = np.full(len(rows), -1, dtype=np.int64)
        scores = np.full(len(rows), float("-inf"))
        alive = self._alive
        if not alive or not len(rows):
            return fids, scores
        if rows.shape[1] != self.dims:
            raise DimensionalityError(self.dims, rows.shape[1], "point")

        lists = self._lists
        dims = self.dims
        positions = [0] * dims
        last_seen: List[Optional[float]] = [None] * dims
        seen: Set[int] = set()
        tight = self.threshold == "tight"
        # One column per open row: its slot in the answer, its point, its
        # best so far and, for the tight bound, its dimensions in
        # decreasing value order (stable) with the values in that order.
        slot = np.arange(len(rows))
        cols = np.ascontiguousarray(rows.T)
        best_fid = fids.copy()
        best_score = scores.copy()
        if tight:
            order = np.argsort(-cols, axis=0, kind="stable")
            ranked = np.take_along_axis(cols, order, axis=0)
        evaluations = comparisons = 0

        while len(slot):
            progressed = False
            new: List[int] = []
            for d in range(dims):
                lst = lists[d]
                pos = positions[d]
                while pos < len(lst) and lst[pos][1] not in alive:
                    pos += 1
                if pos >= len(lst):
                    positions[d] = pos
                    continue
                coefficient, fid = lst[pos]
                positions[d] = pos + 1
                last_seen[d] = coefficient
                progressed = True
                if fid not in seen:
                    seen.add(fid)
                    new.append(fid)
            if new:
                new.sort()  # argmax keeps the first, lowest-id, maximum
                weights = np.array([alive[fid].weights for fid in new])
                sweep = np.zeros((len(new), len(slot)))
                for d in range(dims):  # canonical_score's order
                    sweep += weights[:, d, None] * cols[d]
                top = sweep.argmax(axis=0)
                top_score = sweep.max(axis=0)
                top_fid = np.take(new, top)
                better = (top_score > best_score) | (
                    (top_score == best_score) & (top_fid < best_fid))
                np.copyto(best_score, top_score, where=better)
                np.copyto(best_fid, top_fid, where=better)
                evaluations += len(new) * len(slot)
            if not progressed or len(seen) >= len(alive):
                break
            if None in last_seen:
                continue
            bound = np.zeros(len(slot))
            if tight:
                # tight_threshold's steps; once a budget is spent, the
                # later shares are 0.0 and leave its bound unchanged (but
                # for the sign of a zero bound, which the stop test's
                # + TA_STOP_MARGIN cannot see).
                budget = np.ones(len(slot))
                for cap, x in zip(np.take(last_seen, order), ranked):
                    share = np.minimum(cap, budget)
                    bound += share * x
                    budget -= share
                bound += budget * ranked[0]
            else:
                for cap, x in zip(last_seen, cols):
                    bound += cap * x
            comparisons += len(slot)
            bound += TA_STOP_MARGIN
            stop = best_score > bound
            if stop.any():
                fids[slot[stop]] = best_fid[stop]
                scores[slot[stop]] = best_score[stop]
                keep = ~stop
                slot, cols = slot[keep], cols[:, keep]
                best_fid, best_score = best_fid[keep], best_score[keep]
                if tight:
                    order, ranked = order[:, keep], ranked[:, keep]
        fids[slot] = best_fid
        scores[slot] = best_score
        if stats is not None:
            stats.score_evaluations += evaluations
            stats.comparisons += comparisons
        return fids, scores

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FunctionIndex(alive={len(self._alive)}, dims={self.dims}, "
            f"threshold={self.threshold!r})"
        )


def tight_threshold(point: Sequence[float], last_seen: Sequence[float],
                    order: Optional[Sequence[int]] = None) -> float:
    """The paper's ``T_tight``: best score of any *unseen normalized*
    function given per-list coefficient caps ``last_seen``.

    A unit budget is spent greedily on the dimensions in decreasing order
    of ``point``'s values, each share capped by ``l_i``. If the caps sum
    to less than 1 (no exactly-normalized unseen function can exist), the
    leftover budget is bounded by placing it on the most valuable
    dimension — a slight overestimate that keeps the bound admissible for
    functions normalized within :data:`WEIGHT_SUM_TOLERANCE`.
    """
    if order is None:
        order = sorted(range(len(point)), key=lambda d: -point[d])
    budget = 1.0
    bound = 0.0
    for d in order:
        share = last_seen[d] if last_seen[d] < budget else budget
        bound += share * point[d]
        budget -= share
        if budget <= 0.0:
            return bound
    # Caps sum below 1: infeasible for exactly normalized functions. Pad
    # with the leftover budget on the best dimension so the bound stays
    # valid even for weights normalized within WEIGHT_SUM_TOLERANCE.
    return bound + budget * point[order[0]]


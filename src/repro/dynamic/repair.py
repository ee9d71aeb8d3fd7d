"""Localized matching repair under streaming updates.

The canonical stable matching of this library is the greedy one: pairs
taken in decreasing ``(score, -function id, -object id)`` order (see
:func:`~repro.core.gale_shapley.greedy_reference_matching`; every
registered matcher produces it). Because preferences on both sides rank
a pair by the *same* score, the stable matching is unique — which is
what makes cheap repair possible: after an object or function arrives or
leaves, the new canonical matching differs from the old one along a
single displacement chain, exactly as in incremental deferred
acceptance.

:class:`RepairEngine` maintains that matching event by event:

* **object deletion** — the displaced partner function re-enters as a
  free agent and walks a *function chain*: it takes the best object that
  accepts it (an unmatched object, or a matched one that prefers it);
  each steal frees another function, which continues the chain;
* **object insertion** — the new object walks an *object chain*: a
  vectorized probe over the matched pairs asks whether any function
  prefers the newcomer to its current partner (geometrically: whether
  the newcomer dominates its way past a currently-matched partner); each
  steal frees another object;
* **function arrival / removal** — a function chain / object chain
  respectively.

Free functions find their best *available* object on a maintained
skyline of the unmatched pool: assignments shrink it through the paper's
:func:`~repro.skyline.maintenance.update_after_removal` (plists, never a
root re-traversal) and freed or inserted objects rejoin it through
:func:`~repro.skyline.maintenance.update_after_insertion`.

Physical R-tree churn is decoupled from logical churn: deletions are
tombstoned and insertions buffered, then applied to the tree in bulk
when they exceed ``compact_fraction`` of the surviving objects — at
which point the skyline cache is rebuilt lazily (its pruned lists
reference pre-compaction tree nodes).

Score ties between *distinct* points are assumed not to occur (general
position, as everywhere else in the library); duplicate points follow
the canonical lowest-id rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.problem import MatchingProblem
from ..core.result import MatchPair
from ..core.skyline_matching import _ARGMAX_MARGIN
from ..data import Dataset
from ..engine.config import MatchingConfig
from ..engine.registry import create_matcher
from ..errors import MatchingError
from ..prefs import LinearPreference
from ..prefs.functions import canonical_score
from ..skyline import (
    SkylineState,
    compute_skyline,
    update_after_insertion,
    update_after_removal,
)
from ..storage.stats import SearchStats

Point = Tuple[float, ...]


@dataclass
class RepairStats:
    """Counters describing how the session maintained its matching."""

    events: int = 0
    chains: int = 0
    chain_steps: int = 0
    steals: int = 0
    full_rematches: int = 0
    skyline_rebuilds: int = 0
    compactions: int = 0
    tree_inserts: int = 0
    tree_deletes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class MatchedPairsIndex:
    """Incrementally maintained arrays over the matched pairs.

    The steal probe needs, per chain step, every matched partner's point
    and its held pair score as dense arrays. Pairs change by one row per
    assignment, so the arrays are maintained with swap-remove and
    capacity doubling (cf. :class:`~repro.skyline.state.SkylineState`'s
    dominance index) instead of being re-stacked from Python dicts on
    every step.
    """

    def __init__(self, dims: int) -> None:
        self.dims = dims
        self._points = np.empty((64, dims), dtype=np.float64)
        self._held = np.empty(64, dtype=np.float64)
        self._ids: List[int] = []          # row -> object id
        self._row: Dict[int, int] = {}     # object id -> row

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._row

    def add(self, object_id: int, point: Sequence[float],
            held_score: float) -> None:
        row = len(self._ids)
        if row == self._points.shape[0]:
            capacity = row * 2
            points = np.empty((capacity, self.dims), dtype=np.float64)
            held = np.empty(capacity, dtype=np.float64)
            points[:row] = self._points
            held[:row] = self._held
            self._points = points
            self._held = held
        self._points[row] = point
        self._held[row] = held_score
        self._ids.append(object_id)
        self._row[object_id] = row

    def discard(self, object_id: int) -> None:
        row = self._row.pop(object_id, None)
        if row is None:
            return
        last = len(self._ids) - 1
        if row != last:
            moved = self._ids[last]
            self._ids[row] = moved
            self._row[moved] = row
            self._points[row] = self._points[last]
            self._held[row] = self._held[last]
        self._ids.pop()

    def clear(self) -> None:
        self._ids.clear()
        self._row.clear()

    def arrays(self) -> Tuple[List[int], np.ndarray, np.ndarray]:
        """(object ids, points, held scores), rows aligned."""
        size = len(self._ids)
        return self._ids, self._points[:size], self._held[:size]


def _search(ids: np.ndarray, keys: np.ndarray,
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Each key's row in the ascending ``ids`` (its insertion point when
    absent), and whether ``ids`` holds it there."""
    rows = np.searchsorted(ids, keys)
    held = rows < len(ids)
    held[held] = ids[rows[held]] == keys[held]
    return rows, held


class RepairEngine:
    """Event-at-a-time maintenance of the canonical stable matching."""

    def __init__(self, problem: MatchingProblem, config: MatchingConfig,
                 search_stats: Optional[SearchStats] = None) -> None:
        self.problem = problem
        self.config = config
        self.search_stats = search_stats
        self.stats = RepairStats()
        #: Surviving objects (logical truth; the tree may lag behind).
        self.points: Dict[int, Point] = dict(problem.objects.items())
        # The last dataset() snapshot, and the net object changes since:
        # id -> its new point, or None once deleted.
        self._snapshot: Optional[Dataset] = None
        self._changes: Dict[int, Optional[Point]] = {}
        #: Surviving preference functions.
        self.functions: Dict[int, LinearPreference] = {
            function.fid: function for function in problem.functions
        }
        self.matched_object: Dict[int, int] = {}    # object id -> function id
        self.matched_function: Dict[int, int] = {}  # function id -> object id
        self.pair_score: Dict[int, float] = {}      # function id -> score
        #: Deleted objects still physically present in the tree.
        self.tombstones: Dict[int, Point] = {}
        #: Inserted objects not yet physically present in the tree.
        self.pending: Dict[int, Point] = {}
        #: Object ids the available-skyline must ignore (matched or
        #: tombstoned); membership is kept in lockstep with the maps above.
        self._consumed: Set[int] = set()
        self._sky: Optional[SkylineState] = None
        # (sorted fids, stacked weight rows, fid -> row, held-score
        # thresholds): rebuilt only on function churn, and the threshold
        # rows updated in place per assignment — so chain steps pay one
        # matvec instead of re-stacking |F| tuples per step.
        self._weights_cache: Optional[
            Tuple[List[int], np.ndarray, Dict[int, int], np.ndarray]
        ] = None
        # Matched partner points + held scores, maintained row-wise in
        # lockstep with the matching maps (same rationale).
        self._matched = MatchedPairsIndex(self.dims)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tree(self):
        """The problem's object R-tree, resolved lazily.

        Lazy on purpose: the cross-shard repair (seed + release chains)
        never touches the tree, which lets the sharded layer hand the
        engine a tree-less view of the shard winners alone (see
        :func:`~repro.parallel.merge.cross_shard_repair`). Sessions
        (compaction, skyline rebuilds, full rematches) resolve it on
        first use.
        """
        return self.problem.tree

    @property
    def dims(self) -> int:
        return self.problem.objects.dims

    def pairs(self) -> List[MatchPair]:
        """The current matching in canonical order."""
        ordered = sorted(
            (
                (-self.pair_score[fid], fid, object_id)
                for fid, object_id in self.matched_function.items()
            ),
        )
        return [
            MatchPair(fid, object_id, -neg_score, round=0, rank=rank)
            for rank, (neg_score, fid, object_id) in enumerate(ordered)
        ]

    def dataset(self) -> Dataset:
        """The surviving objects as an immutable :class:`Dataset`.

        Ids ascend, exactly as ``Dataset.from_mapping(self.points)``
        gives them. The first call builds from the mapping; later calls
        apply the net changes since the last snapshot to its id array and
        matrix, so a restage costs Python work per event, not per object.
        """
        if self._snapshot is None:
            self._snapshot = Dataset.from_mapping(self.points, self.dims,
                                                  name="session")
        elif self._changes:
            self._snapshot = self._apply_changes(self._snapshot)
        self._changes.clear()
        return self._snapshot

    def _record(self, object_id: int, point: Optional[Point]) -> None:
        """Note an object change for the next :meth:`dataset` call."""
        self._changes[object_id] = point
        if len(self._changes) > len(self.points):
            # Applying more changes than there are objects costs more
            # than a rebuild; this also bounds what an engine that is
            # never snapshotted keeps.
            self._snapshot = None
            self._changes.clear()

    def _apply_changes(self, snapshot: Dataset) -> Dataset:
        ids, matrix = snapshot.id_array, snapshot.matrix
        gone = np.array(sorted(object_id for object_id, point
                               in self._changes.items() if point is None),
                        dtype=np.int64)
        rows, held = _search(ids, gone)
        ids = np.delete(ids, rows[held])
        matrix = np.delete(matrix, rows[held], axis=0)  # a writable copy
        arrived = sorted((object_id, point) for object_id, point
                         in self._changes.items() if point is not None)
        new_ids = np.array([object_id for object_id, _ in arrived],
                           dtype=np.int64)
        points = np.array([point for _, point in arrived],
                          dtype=np.float64).reshape(len(arrived), self.dims)
        rows, held = _search(ids, new_ids)
        # An id deleted and inserted again keeps its row, with its new
        # point; the others go in at their sorted positions.
        matrix[rows[held]] = points[held]
        ids = np.insert(ids, rows[~held], new_ids[~held])
        matrix = np.insert(matrix, rows[~held], points[~held], axis=0)
        return Dataset(matrix, ids=ids, name="session")

    def function_list(self) -> List[LinearPreference]:
        return [self.functions[fid] for fid in sorted(self.functions)]

    # ------------------------------------------------------------------
    # Event application (one event at a time, chain repair)
    # ------------------------------------------------------------------
    def insert_object(self, object_id: int, point: Point) -> None:
        self.stats.events += 1
        point = tuple(float(value) for value in point)
        if object_id in self._consumed:
            # The id is being reused while a ghost entry under its old
            # point may still sit in a live plist (inserted and deleted
            # within one batch). Excluding it forever would also exclude
            # the new object, so drop the skyline cache wholesale — the
            # lazy rebuild re-derives the exclusion set and re-adds the
            # new point from the pending buffer.
            self._sky = None
        self.points[object_id] = point
        self._record(object_id, point)
        self.pending[object_id] = point
        self._free_object(object_id)

    def delete_object(self, object_id: int) -> None:
        self.stats.events += 1
        point = self.points.pop(object_id)
        self._record(object_id, None)
        if object_id in self.pending:
            del self.pending[object_id]
        else:
            self.tombstones[object_id] = point
        # Exclude the id even when it was a pending insert: it may be
        # parked in a live plist and must never resurface. The set is
        # re-derived from matched + tombstoned ids at each rebuild.
        self._consumed.add(object_id)
        fid = self.matched_object.pop(object_id, None)
        if fid is not None:
            del self.matched_function[fid]
            del self.pair_score[fid]
            self._matched.discard(object_id)
            self._set_threshold(fid, float("-inf"))
            self._place_function(fid)
        else:
            self._drop_available(object_id)

    def add_function(self, function: LinearPreference) -> None:
        self.stats.events += 1
        self.functions[function.fid] = function
        self._weights_cache = None
        self._place_function(function.fid)

    def remove_function(self, function_id: int) -> None:
        self.stats.events += 1
        del self.functions[function_id]
        self._weights_cache = None
        object_id = self.matched_function.pop(function_id, None)
        if object_id is None:
            return
        del self.matched_object[object_id]
        del self.pair_score[function_id]
        self._matched.discard(object_id)
        self._free_object(object_id)

    # ------------------------------------------------------------------
    # External seeding (used by the sharded merge in ``repro.parallel``)
    # ------------------------------------------------------------------
    def seed_matching(self, pairs: Sequence[Tuple[int, int, float]]) -> None:
        """Install an externally computed partial matching wholesale.

        ``pairs`` is an iterable of ``(function_id, object_id, score)``
        triples over the engine's surviving functions and objects. The
        previous matching (and every derived cache) is discarded.

        The caller guarantees the seeded matching is *stable for its own
        instance* — the functions plus exactly the matched objects. The
        cross-shard merge of :mod:`repro.parallel` is the canonical user:
        it seeds each function's best shard-local partner (stable by the
        shard-local stability of every per-shard matching) and then
        re-introduces the displaced shard winners one
        :meth:`release_object` chain at a time, which restores the
        canonical global matching exactly like a stream of insertions.
        """
        self.matched_object.clear()
        self.matched_function.clear()
        self.pair_score.clear()
        self._matched.clear()
        self._weights_cache = None
        self._sky = None
        for fid, object_id, score in pairs:
            if fid not in self.functions:
                raise MatchingError(
                    f"seed_matching: unknown function id {fid}"
                )
            if object_id not in self.points:
                raise MatchingError(
                    f"seed_matching: unknown object id {object_id}"
                )
            if fid in self.matched_function:
                raise MatchingError(
                    f"seed_matching: function {fid} seeded twice"
                )
            if object_id in self.matched_object:
                raise MatchingError(
                    f"seed_matching: object {object_id} seeded twice"
                )
            self.matched_object[object_id] = fid
            self.matched_function[fid] = object_id
            self.pair_score[fid] = float(score)
            self._matched.add(object_id, self.points[object_id],
                              float(score))
        self._consumed = set(self.matched_object)
        self._consumed.update(self.tombstones)

    def release_object(self, object_id: int) -> None:
        """Let an already-present free object compete for a partner.

        Public wrapper over the object displacement chain: the object
        takes the best function that accepts it, each steal frees
        another object, and the chain runs until an object ends
        unmatched. Unlike :meth:`insert_object` the object is already in
        ``points`` (and physically in the tree); only the matching is
        touched. This is the cross-shard repair hook: a shard-local
        winner displaced by the merge re-enters exactly like an
        insertion event.
        """
        if object_id not in self.points:
            raise MatchingError(
                f"release_object: unknown object id {object_id}"
            )
        if object_id in self.matched_object:
            raise MatchingError(
                f"release_object: object {object_id} is currently matched"
            )
        self._free_object(object_id)

    # ------------------------------------------------------------------
    # Structural-only application (used by the full-recompute path)
    # ------------------------------------------------------------------
    def apply_structural(self, events: Sequence) -> None:
        """Update the surviving sets without repairing the matching.

        Events are replayed strictly in arrival order — an insert
        following a delete of the same id (or vice versa) must land
        exactly as submitted. The caller is expected to follow up with
        :meth:`full_rematch`, which rebuilds the matching maps and the
        exclusion set wholesale.
        """
        from .events import AddFunction, DeleteObject, InsertObject

        self.stats.events += len(events)
        for event in events:
            if isinstance(event, InsertObject):
                point = tuple(float(value) for value in event.point)
                self.points[event.object_id] = point
                self._record(event.object_id, point)
                self.pending[event.object_id] = point
            elif isinstance(event, DeleteObject):
                point = self.points.pop(event.object_id)
                self._record(event.object_id, None)
                if event.object_id in self.pending:
                    del self.pending[event.object_id]
                else:
                    self.tombstones[event.object_id] = point
            elif isinstance(event, AddFunction):
                self.functions[event.function.fid] = event.function
            else:
                del self.functions[event.function_id]
        self._weights_cache = None

    # ------------------------------------------------------------------
    # Full recompute (initial match, and the high-churn fallback)
    # ------------------------------------------------------------------
    def full_rematch(self) -> None:
        """Recompute the matching from scratch with the configured matcher.

        Forces a compaction first so the tree is exact, then runs the
        session's algorithm (in tree-preserving ``filter`` mode) over the
        surviving data and replaces the matching wholesale.
        """
        self.compact(force=True)
        objects = self.dataset()
        functions = self.function_list()
        problem = type(self.problem)(
            objects, functions, self.tree, self.problem.disk,
            self.problem.buffer,
        )
        self.problem = problem
        self.matched_object.clear()
        self.matched_function.clear()
        self.pair_score.clear()
        self._matched.clear()
        self._weights_cache = None
        self._sky = None
        if functions and len(objects):
            matcher = create_matcher(
                self.config.algorithm, problem, self.config,
                search_stats=self.search_stats,
            )
            for pair in matcher.pairs():
                self.matched_object[pair.object_id] = pair.function_id
                self.matched_function[pair.function_id] = pair.object_id
                self.pair_score[pair.function_id] = pair.score
                self._matched.add(pair.object_id,
                                  self.points[pair.object_id], pair.score)
        self._consumed = set(self.matched_object)
        self._consumed.update(self.tombstones)
        self.stats.full_rematches += 1

    # ------------------------------------------------------------------
    # Physical tree maintenance
    # ------------------------------------------------------------------
    def needs_compaction(self) -> bool:
        backlog = len(self.tombstones) + len(self.pending)
        return backlog > self.config.compact_fraction * max(1, len(self.points))

    def compact(self, force: bool = False) -> None:
        """Apply buffered physical churn (deletes then inserts) to the tree.

        Invalidates the skyline cache: its pruned lists reference
        pre-compaction nodes. Rebuilt lazily on the next repair that
        needs it.
        """
        if not force and not self.needs_compaction():
            return
        if not self.tombstones and not self.pending:
            return
        for object_id, point in self.tombstones.items():
            self.tree.delete(object_id, point)
            self.stats.tree_deletes += 1
            self._consumed.discard(object_id)
        for object_id, point in self.pending.items():
            self.tree.insert(object_id, point)
            self.stats.tree_inserts += 1
        self.tombstones.clear()
        self.pending.clear()
        self._sky = None
        self.stats.compactions += 1

    # ------------------------------------------------------------------
    # Displacement chains
    # ------------------------------------------------------------------
    def _chain_bound(self) -> int:
        return 2 * (len(self.points) + len(self.functions)) + 10

    def _place_function(self, fid: int) -> None:
        """Function chain: a free function takes the best object that
        accepts it; each steal frees another function, which continues."""
        self.stats.chains += 1
        current: Optional[int] = fid
        for _ in range(self._chain_bound()):
            if current is None:
                return
            hit = self._best_object_for(current)
            if hit is None:
                return  # no object accepts: stays unmatched (stable)
            object_id, score, victim = hit
            self._assign(current, object_id, score)
            self.stats.chain_steps += 1
            if victim is None:
                self._consume_available(object_id)
                return
            self.stats.steals += 1
            current = victim
        raise MatchingError("function repair chain exceeded its bound")

    def _free_object(self, object_id: int) -> None:
        """Object chain: a free object goes to the best function that
        accepts it; each steal frees another object, which continues."""
        self.stats.chains += 1
        current = object_id
        for _ in range(self._chain_bound()):
            hit = self._best_function_for(current)
            if hit is None:
                self._make_available(current)
                return
            fid, score = hit
            previous = self.matched_function.get(fid)
            self._assign(fid, current, score)
            self.stats.chain_steps += 1
            if previous is None:
                return
            self.stats.steals += 1
            current = previous
        raise MatchingError("object repair chain exceeded its bound")

    def _assign(self, fid: int, object_id: int, score: float) -> None:
        """Link a pair, unlinking whatever either side held before."""
        old_fid = self.matched_object.get(object_id)
        if old_fid is not None:
            del self.matched_function[old_fid]
            del self.pair_score[old_fid]
            self._matched.discard(object_id)
            self._set_threshold(old_fid, float("-inf"))
        old_object = self.matched_function.get(fid)
        if old_object is not None:
            del self.matched_object[old_object]
            self._matched.discard(old_object)
        self.matched_object[object_id] = fid
        self.matched_function[fid] = object_id
        self.pair_score[fid] = score
        self._matched.add(object_id, self.points[object_id], score)
        self._set_threshold(fid, score)
        self._consumed.add(object_id)

    # ------------------------------------------------------------------
    # Best-partner queries (canonical tie discipline throughout)
    # ------------------------------------------------------------------
    def _best_object_for(self, fid: int,
                         ) -> Optional[Tuple[int, float, Optional[int]]]:
        """The free function's best acceptor: ``(object id, score,
        victim fid or None)``; ``None`` when no object accepts."""
        function = self.functions[fid]
        best: Optional[Tuple[float, int, Optional[int]]] = None

        available = self._best_available(function)
        if available is not None:
            object_id, score = available
            best = (score, object_id, None)

        # Steal candidates: matched objects that prefer this function.
        # Vectorized coarse pass over the incrementally maintained pair
        # arrays (new score must at least reach the held score within the
        # float margin), canonical refine on the few survivors — same
        # discipline as _best_function_for.
        matched_ids, points, held_scores = self._matched.arrays()
        if matched_ids:
            scores = points @ np.asarray(function.weights)
            floor = best[0] - _ARGMAX_MARGIN if best is not None else -np.inf
            candidates = np.nonzero(
                (scores >= held_scores - _ARGMAX_MARGIN) & (scores >= floor)
            )[0]
            for row in candidates:
                object_id = matched_ids[row]
                holder = self.matched_object[object_id]
                score = canonical_score(
                    function.weights, self.points[object_id]
                )
                if self.search_stats is not None:
                    self.search_stats.score_evaluations += 1
                held = self.pair_score[holder]
                accepts = score > held or (score == held and fid < holder)
                if not accepts:
                    continue
                if best is None or score > best[0] or (
                    score == best[0] and object_id < best[1]
                ):
                    best = (score, object_id, holder)
        if best is None:
            return None
        score, object_id, victim = best
        return object_id, score, victim

    def _best_available(self, function: LinearPreference,
                        ) -> Optional[Tuple[int, float]]:
        """Argmax of ``function`` over the unmatched pool (skyline-backed)."""
        sky = self._ensure_sky()
        if len(sky) == 0:
            return None
        sky_ids = sky.ids()
        scores = sky.matrix() @ np.asarray(function.weights)
        shortlist = np.nonzero(scores >= scores.max() - _ARGMAX_MARGIN)[0]
        best_score = float("-inf")
        best_oid = -1
        for row in shortlist:
            object_id = sky_ids[row]
            score = canonical_score(function.weights, sky.point(object_id))
            if self.search_stats is not None:
                self.search_stats.score_evaluations += 1
            if score > best_score or (
                score == best_score and object_id < best_oid
            ):
                best_score = score
                best_oid = object_id
        return best_oid, best_score

    def _best_function_for(self, object_id: int,
                           ) -> Optional[Tuple[int, float]]:
        """The free object's best acceptor among all functions.

        A function accepts iff it is unmatched or prefers this object to
        its current partner — the "does the newcomer beat a
        currently-matched partner" probe, vectorized over all functions
        with a shortlist refined in canonical arithmetic.
        """
        if not self.functions:
            return None
        point = self.points[object_id]
        fids, weights, thresholds = self._weights_matrix()
        scores = weights @ np.asarray(point)
        candidates = np.nonzero(scores >= thresholds - _ARGMAX_MARGIN)[0]
        best: Optional[Tuple[float, int]] = None
        for row in candidates:
            fid = fids[row]
            function = self.functions[fid]
            score = canonical_score(function.weights, point)
            if self.search_stats is not None:
                self.search_stats.score_evaluations += 1
            partner = self.matched_function.get(fid)
            if partner is not None:
                held = self.pair_score[fid]
                accepts = score > held or (
                    score == held and object_id < partner
                )
                if not accepts:
                    continue
            if best is None or score > best[0] or (
                score == best[0] and fid < best[1]
            ):
                best = (score, fid)
        if best is None:
            return None
        score, fid = best
        return fid, score

    def _weights_matrix(self) -> Tuple[List[int], np.ndarray, np.ndarray]:
        """(sorted fids, weight matrix, held-score thresholds)."""
        if self._weights_cache is None:
            fids = sorted(self.functions)
            matrix = np.asarray(
                [self.functions[fid].weights for fid in fids]
            )
            row_of = {fid: row for row, fid in enumerate(fids)}
            thresholds = np.asarray([
                self.pair_score.get(fid, float("-inf")) for fid in fids
            ])
            self._weights_cache = (fids, matrix, row_of, thresholds)
        fids, matrix, _row_of, thresholds = self._weights_cache
        return fids, matrix, thresholds

    def _set_threshold(self, fid: int, value: float) -> None:
        """Keep the cached held-score row of one function current."""
        if self._weights_cache is not None:
            _fids, _matrix, row_of, thresholds = self._weights_cache
            thresholds[row_of[fid]] = value

    # ------------------------------------------------------------------
    # Available-pool skyline maintenance
    # ------------------------------------------------------------------
    def _ensure_sky(self) -> SkylineState:
        if self._sky is None:
            # A fresh skyline holds no stale parked entries, so ghost ids
            # (deleted pending inserts) can be dropped from the exclusion
            # set; what remains is exactly matched + tombstoned.
            self._consumed = set(self.matched_object)
            self._consumed.update(self.tombstones)
            self._sky = compute_skyline(
                self.tree, stats=self.search_stats, excluded=self._consumed,
            )
            for object_id, point in self.pending.items():
                if object_id not in self.matched_object:
                    update_after_insertion(
                        self._sky, object_id, point, stats=self.search_stats,
                    )
            self.stats.skyline_rebuilds += 1
        return self._sky

    def _consume_available(self, object_id: int) -> None:
        """An available object was assigned: shrink the skyline."""
        if self._sky is not None and object_id in self._sky:
            orphans = self._sky.remove(object_id)
            update_after_removal(
                self.tree, self._sky, orphans,
                stats=self.search_stats, excluded=self._consumed,
            )

    def _drop_available(self, object_id: int) -> None:
        """An available object was deleted: shrink the skyline."""
        self._consume_available(object_id)

    def _make_available(self, object_id: int) -> None:
        """A surviving object ends a chain unmatched: grow the skyline."""
        self._consumed.discard(object_id)
        if self._sky is not None:
            update_after_insertion(
                self._sky, object_id, self.points[object_id],
                stats=self.search_stats,
            )

"""Vectorized batch scoring: the serving path's linear fast path.

Every tree-based matcher answers one workload by traversing the staged
R-tree once per preference function. When a *batch* of linear workloads
arrives together, all of that work collapses into dense arithmetic: the
functions of every workload in the batch are stacked into one weight
matrix (:func:`repro.prefs.weights_matrix`), scored against the staged
object matrix in **one numpy pass**
(:func:`repro.prefs.canonical_score_matrix`), and each workload's
matching is then read off its score rows by the canonical greedy rule —
repeatedly take the best remaining ``(score desc, fid asc, oid asc)``
cell, exactly the tie discipline every matcher shares
(:mod:`repro.core.base`).

Pair-identity with the tree path is *by construction*, not by luck:

* the paper's stable matching is unique given the scores, and every
  matcher emits it under the shared tie discipline;
* :func:`~repro.prefs.canonical_score_matrix` accumulates dimension by
  dimension with element-wise IEEE-754 ops, reproducing
  :func:`~repro.prefs.canonical_score` bit for bit (no BLAS pairwise
  summation that could flip a last-bit tie).

The fast path is gated conservatively: plain
:class:`~repro.prefs.LinearPreference` workloads only (subclasses may
score with state beyond the weight vector), non-capacitated configs
only, and only for algorithms whose matchers advertise
``supports_repair`` — the documented marker for "produces the canonical
greedy matching over linear preferences". Everything else falls back to
the per-request tree path.

Examples
--------
>>> import repro
>>> from repro.engine.batch import linear_batch_results
>>> objects = repro.generate_independent(n=80, dims=2, seed=3)
>>> workloads = [repro.generate_preferences(n=4, dims=2, seed=s)
...              for s in (10, 11)]
>>> batched = linear_batch_results(objects, workloads,
...                                algorithm="batched-sb",
...                                backend="memory")
>>> [one.as_set() == repro.match(objects, functions,
...                              backend="memory").as_set()
...  for one, functions in zip(batched, workloads)]
[True, True]
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..data import Dataset
from ..errors import DimensionalityError, MatchingError
from ..prefs import LinearPreference
from ..prefs.functions import canonical_score_matrix, weights_matrix
from .result import PAIR_DTYPE, MatchResult


def is_linear_workload(functions: Sequence) -> bool:
    """Whether every function is *exactly* a :class:`LinearPreference`.

    Subclasses are excluded on purpose: they may score with state beyond
    the weight vector, which the stacked weight matrix cannot see (the
    same conservatism as :func:`repro.engine.cache.prefs_digest`).
    """
    return all(type(function) is LinearPreference for function in functions)


def _validate_workload(functions: Sequence, dims: int) -> None:
    """The tree path's staging-time checks, reproduced verbatim."""
    for function in functions:
        if function.dims != dims:
            raise DimensionalityError(
                dims, function.dims, "function weights"
            )
    fids = [function.fid for function in functions]
    if len(set(fids)) != len(fids):
        raise MatchingError("function ids must be unique")


def greedy_pairs_from_scores(scores: np.ndarray, fids: Sequence[int],
                             object_ids: Sequence[int]) -> np.ndarray:
    """The canonical greedy matching, read off a dense score matrix.

    Repeatedly emit the globally best remaining cell under the shared
    tie discipline — score descending, then function id ascending, then
    object id ascending — assigning each function and object at most
    once. With canonical scores this is exactly
    :func:`repro.core.greedy_reference_matching`, computed from
    precomputed rows instead of per-pair ``score()`` calls.

    Only each row's best ``k = min(F, |O|)`` cells can be emitted: when
    the greedy takes cell ``(r, c)``, function ``r`` is still free, so at
    most ``F - 1`` objects are taken, and every cell of row ``r`` ranked
    above ``(r, c)`` holds one of them. So each row keeps the cells at or
    above its ``k``-th best score (every tie at that cut included), and
    only those candidates are sorted.

    Returns the emitted pairs as :data:`~repro.engine.result.PAIR_DTYPE`
    records in emission order: pair ``i`` has round ``i`` and rank ``i``.
    """
    num_functions, num_objects = scores.shape
    limit = min(num_functions, num_objects)
    if limit == 0:
        return np.empty(0, dtype=PAIR_DTYPE)
    cut = num_objects - limit
    kth_best = np.partition(scores, cut, axis=1)[:, cut]
    # The candidates in row-major order, as np.nonzero gives them; its
    # 2-D form takes ten times as long as a flat index and a divmod.
    rows, columns = np.divmod(
        np.flatnonzero(scores >= kth_best[:, None]), num_objects)
    values = scores[rows, columns]
    fid_keys = np.asarray(fids, dtype=np.int64)[rows]
    oid_keys = np.asarray(object_ids, dtype=np.int64)[columns]
    # lexsort: last key is primary. Negating the scores sorts them
    # descending; equal scores (including -0.0 vs 0.0) fall through to
    # fid then oid ascending, the library-wide tie discipline.
    order = np.lexsort((oid_keys, fid_keys, -values))
    function_taken: Set[int] = set()
    object_taken: Set[int] = set()
    emitted: List[int] = []
    for index, row, column in zip(order.tolist(), rows[order].tolist(),
                                  columns[order].tolist()):
        if row in function_taken or column in object_taken:
            continue
        function_taken.add(row)
        object_taken.add(column)
        emitted.append(index)
        if len(emitted) == limit:
            break
    pairs = np.empty(limit, dtype=PAIR_DTYPE)
    pairs["function_id"] = fid_keys[emitted]
    pairs["object_id"] = oid_keys[emitted]
    pairs["score"] = values[emitted]
    pairs["round"] = pairs["rank"] = np.arange(limit)
    return pairs


def linear_batch_results(objects: Dataset,
                         workloads: Sequence[Sequence[LinearPreference]],
                         *, algorithm: str = "batched",
                         backend: str = "",
                         seed: Optional[int] = None,
                         ) -> List[MatchResult]:
    """Match every workload against ``objects`` in one vectorized pass.

    All workloads' functions are stacked into a single weight matrix and
    scored against the object matrix once; each workload's stable
    matching is then extracted from its score rows. Results are
    pair-identical (same pairs, bitwise-equal scores) to running each
    workload through any canonical matcher, and are returned in workload
    order. ``algorithm``/``backend``/``seed`` are recorded as the
    results' provenance.
    """
    workloads = [list(functions) for functions in workloads]
    dims = objects.dims
    for functions in workloads:
        _validate_workload(functions, dims)
        if not is_linear_workload(functions):
            raise MatchingError(
                "the vectorized batch path requires plain "
                "LinearPreference workloads; route other function "
                "types through the per-request path"
            )

    stacked = [function for functions in workloads for function in functions]
    scoring_start = time.perf_counter()
    if stacked:
        weights, _ = weights_matrix(stacked)
        scores = canonical_score_matrix(weights, objects.matrix)
    else:
        scores = np.zeros((0, len(objects)))
    scoring_seconds = time.perf_counter() - scoring_start
    # Amortize the one scoring pass over the workloads by row share.
    total_rows = max(1, len(stacked))

    object_ids = objects.id_array
    # Served results are held for as long as a cache or caller likes, so
    # results with equally many pairs share one unmatched-object count
    # and one stats dict.
    shared: Dict[int, Tuple[int, Dict[str, float]]] = {}
    results: List[MatchResult] = []
    row = 0
    for functions in workloads:
        rows = scores[row:row + len(functions)]
        row += len(functions)
        start = time.perf_counter()
        pairs = greedy_pairs_from_scores(
            rows, [function.fid for function in functions], object_ids,
        )
        greedy_seconds = time.perf_counter() - start
        matched = set(pairs["function_id"].tolist())
        unmatched = [
            function.fid for function in functions
            if function.fid not in matched
        ]
        count = len(pairs)
        if count not in shared:
            shared[count] = (len(objects) - count,
                             {"rounds": count,
                              "batched_workloads": len(workloads)})
        unmatched_objects, stats = shared[count]
        results.append(
            MatchResult(
                pairs.tobytes(),
                unmatched_functions=unmatched,
                unmatched_objects_count=unmatched_objects,
                algorithm=algorithm,
                backend=backend,
                cpu_seconds=greedy_seconds
                + scoring_seconds * (len(functions) / total_rows),
                seed=seed,
                stats=stats,
            )
        )
    return results

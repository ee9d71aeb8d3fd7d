"""Stability verification (Property 1 of the paper).

A matching is stable when no *blocking pair* exists: a function ``f`` and
object ``o``, not matched together, that score higher with each other than
with their assigned partners (unmatched counts as score minus infinity).

:func:`find_blocking_pairs` checks the final matching; the scan is
vectorized with numpy and candidate violations are confirmed with the
canonical score arithmetic before being reported, with a strictness margin
that ignores pure floating-point noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..data import Dataset
from ..prefs import LinearPreference, weights_matrix
from .result import Matching

#: Score margin below which a "violation" is considered numeric noise.
STABILITY_MARGIN = 1e-12


@dataclass(frozen=True)
class BlockingPair:
    """Evidence that a matching is unstable."""

    function_id: int
    object_id: int
    pair_score: float
    function_current_score: float
    object_current_score: float


def find_blocking_pairs(matching: Matching, objects: Dataset,
                        functions: Sequence[LinearPreference],
                        limit: int = 10) -> List[BlockingPair]:
    """All blocking pairs (up to ``limit``), empty iff stable.

    Every function must appear in ``matching`` either as matched or in
    ``unmatched_functions``; objects absent from the matching are treated
    as free.
    """
    if not functions or len(objects) == 0:
        return []
    weights, fids = weights_matrix(list(functions))
    matrix = objects.matrix
    scores = weights @ matrix.T  # |F| x |O|

    function_current = np.full(len(fids), -np.inf)
    by_fid = {fid: row for row, fid in enumerate(fids)}
    functions_by_fid = {f.fid: f for f in functions}
    object_current = np.full(len(objects), -np.inf)
    for pair in matching.pairs:
        row = by_fid.get(pair.function_id)
        if row is not None:
            function_current[row] = pair.score
        col = objects.row_of(pair.object_id)
        if col is not None:
            object_current[col] = pair.score

    margin = STABILITY_MARGIN
    candidate_mask = (scores > function_current[:, None] + margin) & (
        scores > object_current[None, :] + margin
    )
    # Matched-together cells are not blocking pairs (score equals both
    # currents, so the strict margin already excludes them).
    violations: List[BlockingPair] = []
    if not candidate_mask.any():
        return violations
    rows, cols = np.nonzero(candidate_mask)
    object_ids = objects.id_array
    for row, col in zip(rows, cols):
        fid = fids[row]
        object_id = int(object_ids[col])
        # Confirm with the canonical arithmetic.
        function = functions_by_fid[fid]
        exact = function.score(objects.vector(object_id))
        if exact <= function_current[row] + margin:
            continue
        if exact <= object_current[col] + margin:
            continue
        violations.append(
            BlockingPair(
                function_id=fid,
                object_id=object_id,
                pair_score=float(exact),
                function_current_score=float(function_current[row]),
                object_current_score=float(object_current[col]),
            )
        )
        if len(violations) >= limit:
            break
    return violations


def verify_stable_matching(matching: Matching, objects: Dataset,
                           functions: Sequence[LinearPreference]) -> bool:
    """True iff ``matching`` has the right shape and no blocking pairs.

    Shape requirements: 1-1 (enforced by :class:`Matching` itself), every
    function either matched or reported unmatched, and — since scores are
    total — the matching has maximum cardinality ``min(|F|, |O|)``.
    """
    matched = set(matching.by_function)
    reported = set(matching.unmatched_functions)
    all_fids = {function.fid for function in functions}
    if matched | reported != all_fids or matched & reported:
        return False
    if len(matching.pairs) != min(len(functions), len(objects)):
        return False
    for pair in matching.pairs:
        if pair.object_id not in objects:
            return False
    return not find_blocking_pairs(matching, objects, functions, limit=1)

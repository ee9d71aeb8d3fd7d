"""Capacitated matching: objects that can serve more than one query.

A natural extension of the paper's model: a "hotel room" in a booking
system is usually a *room type* with several identical units. An object
with capacity ``c`` may be assigned to up to ``c`` functions.

The reduction is exact: expand each object into ``c`` coordinate-
identical virtual objects, run any of the 1-1 matchers, and fold the
virtual assignments back. Stability carries over directly — a blocking
pair against the capacitated matching would be a blocking pair against
the expanded 1-1 matching, because a unit of capacity is free exactly
when a virtual copy is unmatched. The skyline machinery handles the
duplicates natively (one copy is a skyline member, the rest sit in its
pruned list and resurface as units sell out).

``repro.match(objects, functions, capacities=...)`` runs the whole
reduction and returns a capacitated
:class:`~repro.engine.result.MatchResult`; this module keeps only the
expansion step it stages with.
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

import numpy as np

from ..data import Dataset
from ..errors import MatchingError


def expand_capacities(objects: Dataset,
                      capacities: Mapping[int, int],
                      ) -> Tuple[Dataset, List[int]]:
    """Expand objects into capacity-many virtual copies.

    Returns ``(expanded dataset, owner list)`` where ``owner[virtual_id]``
    is the original object id of each virtual copy (virtual ids are the
    expanded dataset's dense ``0..n-1`` ids). ``capacities`` maps object
    ids to non-negative unit counts (missing ids default to 1; zero
    removes the object from sale).
    """
    virtual_vectors = []
    virtual_owner: List[int] = []
    for object_id, point in objects.items():
        capacity = int(capacities.get(object_id, 1))
        if capacity < 0:
            raise MatchingError(
                f"object {object_id} has negative capacity {capacity}"
            )
        for _ in range(capacity):
            virtual_vectors.append(point)
            virtual_owner.append(object_id)
    expanded = Dataset(
        np.asarray(virtual_vectors, dtype=np.float64).reshape(
            len(virtual_vectors), objects.dims
        ),
        name=f"{objects.name}-expanded",
    )
    return expanded, virtual_owner


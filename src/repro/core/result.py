"""Matching results.

Matchers are *progressive*: they yield :class:`MatchPair` objects as soon
as each pair is proven stable (the paper outputs pairs the same way). A
:class:`Matching` collects the pairs of a complete run together with
lookup tables and summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import MatchingError


@dataclass(frozen=True, init=False)
class MatchPair:
    """One stable function-object assignment.

    ``round`` is the matcher loop iteration that emitted the pair
    (Section IV-C emits several pairs per round), starting at 0. ``rank``
    is the global emission order.

    Slotted, with no per-pair dict: a served result keeps its pairs for
    as long as a cache or caller holds it.
    """

    __slots__ = ("function_id", "object_id", "score", "round", "rank")

    function_id: int
    object_id: int
    score: float
    round: int
    rank: int

    def __init__(self, function_id: int, object_id: int, score: float,
                 round: int = 0, rank: int = 0) -> None:
        # object.__setattr__ gets past the frozen guard, as a generated
        # frozen __init__ does.
        set_field = object.__setattr__
        set_field(self, "function_id", function_id)
        set_field(self, "object_id", object_id)
        set_field(self, "score", score)
        set_field(self, "round", round)
        set_field(self, "rank", rank)

    def __reduce__(self) -> tuple:
        # Pickle's default restore sets slots one by one, which a frozen
        # dataclass refuses; rebuild through the constructor instead.
        return type(self), (self.function_id, self.object_id, self.score,
                            self.round, self.rank)


class Matching:
    """An ordered collection of stable pairs plus leftovers."""

    def __init__(self, pairs: Iterable[MatchPair],
                 unmatched_functions: Sequence[int] = (),
                 unmatched_objects_count: int = 0,
                 algorithm: str = "") -> None:
        self.pairs: List[MatchPair] = list(pairs)
        self.unmatched_functions: List[int] = list(unmatched_functions)
        self.unmatched_objects_count = unmatched_objects_count
        self.algorithm = algorithm
        self.by_function: Dict[int, MatchPair] = {}
        self.by_object: Dict[int, MatchPair] = {}
        for pair in self.pairs:
            if pair.function_id in self.by_function:
                raise MatchingError(
                    f"function {pair.function_id} matched more than once"
                )
            if pair.object_id in self.by_object:
                raise MatchingError(
                    f"object {pair.object_id} matched more than once"
                )
            self.by_function[pair.function_id] = pair
            self.by_object[pair.object_id] = pair

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def object_of(self, function_id: int) -> Optional[int]:
        pair = self.by_function.get(function_id)
        return pair.object_id if pair is not None else None

    def function_of(self, object_id: int) -> Optional[int]:
        pair = self.by_object.get(object_id)
        return pair.function_id if pair is not None else None

    def as_dict(self) -> Dict[int, int]:
        """``{function_id: object_id}``."""
        return {pair.function_id: pair.object_id for pair in self.pairs}

    def as_set(self) -> set:
        """``{(function_id, object_id)}`` — order-insensitive comparison."""
        return {(pair.function_id, pair.object_id) for pair in self.pairs}

    @property
    def total_score(self) -> float:
        return sum(pair.score for pair in self.pairs)

    @property
    def mean_score(self) -> float:
        return self.total_score / len(self.pairs) if self.pairs else 0.0

    @property
    def num_rounds(self) -> int:
        return 1 + max((pair.round for pair in self.pairs), default=-1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Matching(algorithm={self.algorithm!r}, pairs={len(self.pairs)}, "
            f"rounds={self.num_rounds}, mean_score={self.mean_score:.4f})"
        )

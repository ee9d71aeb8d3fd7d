"""The engine's unified result type.

:class:`MatchResult` is what every entry point returns, for 1-1 and
many-to-one (capacitated) runs alike; :meth:`MatchResult.to_matching`
downgrades a 1-1 result to the matchers' own
:class:`~repro.core.result.Matching`. One type, one set of accessors,
regardless of algorithm, backend, or capacity mode — plus the run's
provenance (algorithm, backend, seed) and costs (I/O snapshot, CPU
seconds), so a result is self-describing.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set

from ..core.result import Matching, MatchPair
from ..errors import MatchingError
from ..storage import IOSnapshot


class MatchResult:  # lint: frozen
    """Stable pairs plus provenance, for both 1-1 and capacitated runs.

    ``capacities`` is ``None`` for a 1-1 matching (every object may be
    assigned at most once) and a ``{object_id: units}`` mapping for a
    capacitated one (each object may serve up to its unit count).
    """

    def __init__(self, pairs: Sequence[MatchPair],
                 unmatched_functions: Sequence[int] = (),
                 unmatched_objects_count: int = 0,
                 algorithm: str = "",
                 backend: str = "",
                 capacities: Optional[Mapping[int, int]] = None,
                 io: Optional[IOSnapshot] = None,
                 cpu_seconds: float = 0.0,
                 seed: Optional[int] = None,
                 stats: Optional[Dict[str, float]] = None) -> None:
        self.pairs: List[MatchPair] = list(pairs)
        self.unmatched_functions: List[int] = list(unmatched_functions)
        self.unmatched_objects_count = unmatched_objects_count
        self.algorithm = algorithm
        self.backend = backend
        self.capacities: Optional[Dict[int, int]] = (
            dict(capacities) if capacities is not None else None
        )
        self.io = io
        self.cpu_seconds = cpu_seconds
        self.seed = seed
        #: Auxiliary counters (rounds, top-1 searches, ...).
        self.stats: Dict[str, float] = dict(stats or {})

        # Validated, not stored: a served result is held by caches and
        # callers, so it keeps only its pairs.
        matched: Set[int] = set()
        usage: Dict[int, int] = {}
        for pair in self.pairs:
            if pair.function_id in matched:
                raise MatchingError(
                    f"function {pair.function_id} matched more than once"
                )
            matched.add(pair.function_id)
            count = usage[pair.object_id] = usage.get(pair.object_id, 0) + 1
            limit = (
                1 if self.capacities is None
                else self.capacities.get(pair.object_id, 1)
            )
            if count > limit:
                raise MatchingError(
                    f"object {pair.object_id} assigned {count} "
                    f"times, capacity {limit}"
                )

    # ------------------------------------------------------------------
    # Collection behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[MatchPair]:
        return iter(self.pairs)

    @property
    def is_capacitated(self) -> bool:
        return self.capacities is not None

    @property
    def usage(self) -> Dict[int, int]:
        """``{object_id: functions served}`` (computed on each call)."""
        usage: Dict[int, int] = {}
        for pair in self.pairs:
            usage[pair.object_id] = usage.get(pair.object_id, 0) + 1
        return usage

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def object_of(self, function_id: int) -> Optional[int]:
        """The object serving ``function_id`` (``None`` if unmatched)."""
        for pair in self.pairs:
            if pair.function_id == function_id:
                return pair.object_id
        return None

    def function_of(self, object_id: int) -> Optional[int]:
        """The single function served by ``object_id`` (1-1 results)."""
        if self.is_capacitated:
            raise MatchingError(
                "function_of is ambiguous on a capacitated result; "
                "use assignments_of"
            )
        for pair in self.pairs:
            if pair.object_id == object_id:
                return pair.function_id
        return None

    def assignments_of(self, object_id: int) -> List[int]:
        """All function ids served by one object."""
        return [
            pair.function_id for pair in self.pairs
            if pair.object_id == object_id
        ]

    def as_dict(self) -> Dict[int, int]:
        """``{function_id: object_id}``."""
        return {pair.function_id: pair.object_id for pair in self.pairs}

    def as_set(self) -> set:
        """``{(function_id, object_id)}`` — order-insensitive comparison."""
        return {(pair.function_id, pair.object_id) for pair in self.pairs}

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------
    @property
    def total_score(self) -> float:
        return sum(pair.score for pair in self.pairs)

    @property
    def mean_score(self) -> float:
        return self.total_score / len(self.pairs) if self.pairs else 0.0

    @property
    def num_rounds(self) -> int:
        return 1 + max((pair.round for pair in self.pairs), default=-1)

    @property
    def io_accesses(self) -> int:
        """Simulated I/O of the run (0 on the memory backend)."""
        return self.io.io_accesses if self.io is not None else 0

    # ------------------------------------------------------------------
    # Interop with the historical result types
    # ------------------------------------------------------------------
    def to_matching(self) -> Matching:
        """Downgrade to a plain :class:`Matching` (1-1 results only)."""
        if self.is_capacitated:
            raise MatchingError(
                "cannot convert a capacitated result to a 1-1 Matching"
            )
        return Matching(
            self.pairs,
            unmatched_functions=self.unmatched_functions,
            unmatched_objects_count=self.unmatched_objects_count,
            algorithm=self.algorithm,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "capacitated" if self.is_capacitated else "1-1"
        return (
            f"MatchResult(algorithm={self.algorithm!r}, "
            f"backend={self.backend!r}, mode={mode}, "
            f"pairs={len(self.pairs)}, io={self.io_accesses}, "
            f"cpu={self.cpu_seconds:.3f}s)"
        )

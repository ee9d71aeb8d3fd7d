"""The engine's unified result type.

:class:`MatchResult` is what every entry point returns, for 1-1 and
many-to-one (capacitated) runs alike; :meth:`MatchResult.to_matching`
downgrades a 1-1 result to the matchers' own
:class:`~repro.core.result.Matching`. One type, one set of accessors,
regardless of algorithm, backend, or capacity mode — plus the run's
provenance (algorithm, backend, seed) and costs (I/O snapshot, CPU
seconds), so a result is self-describing.

A served result is held by caches and callers for as long as they like,
so it keeps its pairs packed: one immutable buffer of
:data:`PAIR_RECORD` records, 32 bytes a pair, instead of a list of
:class:`~repro.core.result.MatchPair` objects.
"""

from __future__ import annotations

import struct
from typing import (Dict, Iterator, List, Mapping, Optional, Sequence, Set,
                    Union)

import numpy as np

from ..core.result import Matching, MatchPair
from ..errors import MatchingError
from ..storage import IOSnapshot

#: One stable pair, packed: function id, object id, score, round and
#: rank as little-endian int64, int64, float64, int32, int32.
PAIR_RECORD = struct.Struct("<qqdii")

#: :data:`PAIR_RECORD` as a numpy dtype, so that
#: ``np.frombuffer(result.packed, PAIR_DTYPE)`` reads a result's pairs
#: as named columns without a copy.
PAIR_DTYPE = np.dtype([("function_id", "<i8"), ("object_id", "<i8"),
                       ("score", "<f8"), ("round", "<i4"), ("rank", "<i4")])


def _check_assignments(function_ids: Sequence[int],
                       object_ids: Sequence[int],
                       capacities: Optional[Dict[int, int]]) -> None:
    """Each function matched once, each object within its capacity.

    An error names the first offending pair in emission order.
    """
    matched: Set[int] = set()
    usage: Dict[int, int] = {}
    for function_id, object_id in zip(function_ids, object_ids):
        if function_id in matched:
            raise MatchingError(
                f"function {function_id} matched more than once"
            )
        matched.add(function_id)
        used = usage[object_id] = usage.get(object_id, 0) + 1
        limit = 1 if capacities is None else capacities.get(object_id, 1)
        if used > limit:
            raise MatchingError(
                f"object {object_id} assigned {used} times, "
                f"capacity {limit}"
            )


class MatchResult:  # lint: frozen
    """Stable pairs plus provenance, for both 1-1 and capacitated runs.

    ``pairs`` are :class:`~repro.core.result.MatchPair` objects, or
    ``bytes`` already packed as :data:`PAIR_RECORD` records (the
    vectorized scorer and the wire codec build those directly). Ids must
    fit int64, rounds and ranks int32.

    ``capacities`` is ``None`` for a 1-1 matching (every object may be
    assigned at most once) and a ``{object_id: units}`` mapping for a
    capacitated one (each object may serve up to its unit count).
    """

    __slots__ = ("packed", "unmatched_functions", "unmatched_objects_count",
                 "algorithm", "backend", "capacities", "io", "cpu_seconds",
                 "seed", "stats")

    def __init__(self, pairs: Union[Sequence[MatchPair], bytes],
                 unmatched_functions: Sequence[int] = (),
                 unmatched_objects_count: int = 0,
                 algorithm: str = "",
                 backend: str = "",
                 capacities: Optional[Mapping[int, int]] = None,
                 io: Optional[IOSnapshot] = None,
                 cpu_seconds: float = 0.0,
                 seed: Optional[int] = None,
                 stats: Optional[Dict[str, float]] = None) -> None:
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
        #: Auxiliary counters (rounds, top-1 searches, ...), kept as
        #: given: the results of one vectorized batch share one dict.
        self.stats: Dict[str, float] = stats if stats is not None else {}

        #: The pairs in emission order, as :data:`PAIR_RECORD` records.
        self.packed: bytes
        functions: Set[int]
        objects: Set[int]
        if isinstance(pairs, bytes):
            if len(pairs) % PAIR_RECORD.size:
                raise MatchingError(
                    f"{len(pairs)} bytes are not whole "
                    f"{PAIR_RECORD.size}-byte pair records"
                )
            self.packed = pairs
            columns = np.frombuffer(pairs, dtype=PAIR_DTYPE)
            count = len(columns)
            functions = set(columns["function_id"].tolist())
            objects = set(columns["object_id"].tolist())
        else:
            # One pass packs the pairs and collects their ids.
            functions, objects = set(), set()
            records: List[bytes] = []
            add_function, add_object = functions.add, objects.add
            add_record, pack = records.append, PAIR_RECORD.pack
            try:
                for pair in pairs:
                    function_id = pair.function_id
                    object_id = pair.object_id
                    add_function(function_id)
                    add_object(object_id)
                    add_record(pack(function_id, object_id, pair.score,
                                    pair.round, pair.rank))
            except struct.error as error:
                raise MatchingError(
                    f"a pair does not fit its packed record (ids must "
                    f"fit int64, round and rank int32): {error}"
                ) from None
            self.packed = b"".join(records)
            count = len(records)
        if self.capacities is not None or len(functions) != count \
                or len(objects) != count:
            _check_assignments(self._column("function_id"),
                               self._column("object_id"), self.capacities)

    # ------------------------------------------------------------------
    # The packed pairs
    # ------------------------------------------------------------------
    @property
    def pairs(self) -> List[MatchPair]:
        """The pairs in emission order: a new list on every call."""
        return [MatchPair(*record)
                for record in PAIR_RECORD.iter_unpack(self.packed)]

    def _column(self, name: str) -> list:
        """One :data:`PAIR_DTYPE` field of every pair, in emission order."""
        return np.frombuffer(self.packed, dtype=PAIR_DTYPE)[name].tolist()

    # ------------------------------------------------------------------
    # Collection behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.packed) // PAIR_RECORD.size

    def __iter__(self) -> Iterator[MatchPair]:
        return iter(self.pairs)

    @property
    def is_capacitated(self) -> bool:
        return self.capacities is not None

    @property
    def usage(self) -> Dict[int, int]:
        """``{object_id: functions served}`` (computed on each call)."""
        usage: Dict[int, int] = {}
        for object_id in self._column("object_id"):
            usage[object_id] = usage.get(object_id, 0) + 1
        return usage

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def object_of(self, function_id: int) -> Optional[int]:
        """The object serving ``function_id`` (``None`` if unmatched)."""
        for fid, object_id in zip(self._column("function_id"),
                                  self._column("object_id")):
            if fid == function_id:
                return object_id
        return None

    def function_of(self, object_id: int) -> Optional[int]:
        """The single function served by ``object_id`` (1-1 results)."""
        if self.is_capacitated:
            raise MatchingError(
                "function_of is ambiguous on a capacitated result; "
                "use assignments_of"
            )
        for function_id, oid in zip(self._column("function_id"),
                                    self._column("object_id")):
            if oid == object_id:
                return function_id
        return None

    def assignments_of(self, object_id: int) -> List[int]:
        """All function ids served by one object."""
        return [
            function_id for function_id, oid in
            zip(self._column("function_id"), self._column("object_id"))
            if oid == object_id
        ]

    def as_dict(self) -> Dict[int, int]:
        """``{function_id: object_id}``."""
        return dict(zip(self._column("function_id"),
                        self._column("object_id")))

    def as_set(self) -> set:
        """``{(function_id, object_id)}`` — order-insensitive comparison."""
        return set(zip(self._column("function_id"),
                       self._column("object_id")))

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------
    @property
    def total_score(self) -> float:
        return sum(self._column("score"))

    @property
    def mean_score(self) -> float:
        return self.total_score / len(self) if len(self) else 0.0

    @property
    def num_rounds(self) -> int:
        return 1 + max(self._column("round"), default=-1)

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
            f"pairs={len(self)}, io={self.io_accesses}, "
            f"cpu={self.cpu_seconds:.3f}s)"
        )

"""Round-by-round tracing of the SB algorithm.

For debugging, teaching and analysis, :class:`~repro.core.SkylineMatcher`
accepts an ``on_round`` callback invoked once per loop with a
:class:`RoundTrace`: the skyline it matched against, the mutual pairs it
emitted, and the cumulative query counters. :class:`RoundRecorder` is the
standard callback — it stores every round and computes summary shapes
(e.g. how skyline size evolves as objects are consumed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass(frozen=True)
class RoundTrace:
    """One SB loop iteration, as observed just after pair emission."""

    round: int
    skyline_size: int
    pairs: Tuple[Tuple[int, int, float], ...]  # (fid, oid, score)
    functions_remaining: int
    reverse_top1_queries: int

    @property
    def pairs_emitted(self) -> int:
        return len(self.pairs)


class RoundRecorder:
    """Collects :class:`RoundTrace` objects; usable as ``on_round``."""

    def __init__(self) -> None:
        self.rounds: List[RoundTrace] = []

    def __call__(self, trace: RoundTrace) -> None:
        self.rounds.append(trace)

    def __len__(self) -> int:
        return len(self.rounds)

    @property
    def total_pairs(self) -> int:
        return sum(trace.pairs_emitted for trace in self.rounds)

    @property
    def skyline_sizes(self) -> List[int]:
        return [trace.skyline_size for trace in self.rounds]

    @property
    def pairs_per_round(self) -> List[int]:
        return [trace.pairs_emitted for trace in self.rounds]

    def summary(self) -> str:
        if not self.rounds:
            return "RoundRecorder(empty)"
        sizes = self.skyline_sizes
        per_round = self.pairs_per_round
        return (
            f"rounds={len(self.rounds)}, pairs={self.total_pairs}, "
            f"skyline size min/mean/max="
            f"{min(sizes)}/{sum(sizes) / len(sizes):.1f}/{max(sizes)}, "
            f"pairs per round max={max(per_round)}"
        )

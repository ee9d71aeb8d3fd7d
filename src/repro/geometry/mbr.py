"""Minimum bounding rectangles (MBRs) and score/dominance bounds.

All coordinates in the library live in the unit hypercube with "larger is
better" in every dimension (the paper's best corner is the top-right corner
of the space). An :class:`MBR` is an axis-aligned box given by its ``low``
and ``high`` corner tuples; a point is represented as a degenerate MBR or a
plain tuple, depending on context.

Besides the classic R-tree geometry (union, area, margin, overlap,
enlargement), this module provides the two bounds that drive the paper's
algorithms:

* :meth:`MBR.upper_score` — the best possible linear score of any point in
  the box, used by branch-and-bound ranked (top-k) search [Tao et al. 2007];
* :meth:`MBR.mindist_to_best` — the L1 distance of the box's best corner to
  the ideal point ``(1, …, 1)``, the priority key of BBS skyline search
  [Papadias et al. 2005].
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from ..errors import DimensionalityError, GeometryError

Vector = Tuple[float, ...]


class MBR:
    """An axis-aligned box ``[low_i, high_i]`` per dimension.

    Instances are immutable; all combining operations return new boxes.
    """

    __slots__ = ("low", "high")

    def __init__(self, low: Sequence[float], high: Sequence[float]) -> None:
        if len(low) != len(high):
            raise DimensionalityError(len(low), len(high), "MBR corner")
        for lo, hi in zip(low, high):
            if lo > hi:
                raise GeometryError(
                    f"MBR low corner {tuple(low)} exceeds high corner "
                    f"{tuple(high)}"
                )
        self.low: Vector = tuple(float(v) for v in low)
        self.high: Vector = tuple(float(v) for v in high)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def _unchecked(cls, low: Vector, high: Vector) -> "MBR":
        """A box from float tuples already known to form a valid box.

        Skips the per-coordinate conversion and the ``low <= high`` check;
        only for corners that came out of a validated box, such as the
        ones :func:`~repro.rtree.serial.serialize_node` wrote to a page.
        """
        box = object.__new__(cls)
        box.low = low
        box.high = high
        return box

    @classmethod
    def from_point(cls, point: Sequence[float]) -> "MBR":
        """The degenerate box containing exactly ``point``."""
        return cls(point, point)

    @classmethod
    def union_all(cls, boxes: Iterable["MBR"]) -> "MBR":
        """The tightest box covering every box in ``boxes`` (non-empty)."""
        it = iter(boxes)
        try:
            first = next(it)
        except StopIteration:
            raise GeometryError(
                "union_all() requires at least one MBR"
            ) from None
        low = list(first.low)
        high = list(first.high)
        for box in it:
            for i, (lo, hi) in enumerate(zip(box.low, box.high)):
                if lo < low[i]:
                    low[i] = lo
                if hi > high[i]:
                    high[i] = hi
        return cls(low, high)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def dims(self) -> int:
        return len(self.low)

    @property
    def is_point(self) -> bool:
        return self.low == self.high

    def area(self) -> float:
        """Product of side lengths (the volume, for D > 2)."""
        result = 1.0
        for lo, hi in zip(self.low, self.high):
            result *= hi - lo
        return result

    def margin(self) -> float:
        """Sum of side lengths (the R*-tree split criterion)."""
        return sum(hi - lo for lo, hi in zip(self.low, self.high))

    def center(self) -> Vector:
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.low, self.high))

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def union(self, other: "MBR") -> "MBR":
        return MBR(
            tuple(min(a, b) for a, b in zip(self.low, other.low)),
            tuple(max(a, b) for a, b in zip(self.high, other.high)),
        )

    def intersects(self, other: "MBR") -> bool:
        return all(
            lo <= other_hi and other_lo <= hi
            for lo, hi, other_lo, other_hi in zip(
                self.low, self.high, other.low, other.high
            )
        )

    def contains_point(self, point: Sequence[float]) -> bool:
        if len(point) != self.dims:
            raise DimensionalityError(self.dims, len(point), "point")
        return all(lo <= p <= hi for lo, p, hi in zip(self.low, point, self.high))

    def contains(self, other: "MBR") -> bool:
        return all(
            lo <= other_lo and other_hi <= hi
            for lo, hi, other_lo, other_hi in zip(
                self.low, self.high, other.low, other.high
            )
        )

    def overlap_area(self, other: "MBR") -> float:
        """Volume of the intersection (0 when disjoint)."""
        result = 1.0
        for lo, hi, other_lo, other_hi in zip(
            self.low, self.high, other.low, other.high
        ):
            side = min(hi, other_hi) - max(lo, other_lo)
            if side <= 0.0:
                return 0.0
            result *= side
        return result

    def enlargement(self, other: "MBR") -> float:
        """Area growth needed for this box to also cover ``other``."""
        return self.union(other).area() - self.area()

    # ------------------------------------------------------------------
    # Score / dominance bounds
    # ------------------------------------------------------------------
    def upper_score(self, weights: Sequence[float]) -> float:
        """Max of ``sum(w_i * x_i)`` over points ``x`` in the box.

        With non-negative weights the maximum is attained at the ``high``
        corner; this is the admissible bound used by branch-and-bound
        ranked search.
        """
        return sum(w * hi for w, hi in zip(weights, self.high))

    def lower_score(self, weights: Sequence[float]) -> float:
        """Min of ``sum(w_i * x_i)`` over points in the box (``low`` corner)."""
        return sum(w * lo for w, lo in zip(weights, self.low))

    def mindist_to_best(self) -> float:
        """L1 distance of the box's best (high) corner to ``(1, …, 1)``.

        BBS pops entries in increasing order of this key; a point can only
        be dominated by points with a strictly smaller key, which is what
        makes BBS progressive and I/O-optimal.

        The terms are added one by one from the left, the order BBS's
        vectorized key (:func:`~repro.skyline.bbs.push_rows`) uses, so
        both give the same bits; ``sum()`` would not on Python 3.12+,
        where it compensates float rounding.
        """
        key = 0.0
        for hi in self.high:
            key += 1.0 - hi
        return key

    def dominated_by_point(self, point: Sequence[float]) -> bool:
        """Whether ``point`` weakly dominates the *entire* box.

        True iff ``point_i >= high_i`` in every dimension: then every point
        of the box is equal-or-worse than ``point`` everywhere, i.e. the
        box can be pruned from skyline consideration (the paper's
        "equal or better" convention).
        """
        if len(point) != self.dims:
            raise DimensionalityError(self.dims, len(point), "point")
        return all(p >= hi for p, hi in zip(point, self.high))

    def best_corner(self) -> Vector:
        """The corner closest to the ideal point (the ``high`` corner)."""
        return self.high

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBR):
            return NotImplemented
        return self.low == other.low and self.high == other.high

    def __hash__(self) -> int:
        return hash((self.low, self.high))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MBR(low={self.low}, high={self.high})"

"""Linear preference functions.

Every query in the paper is a linear monotone function over the object
attributes: ``f(o) = sum_i alpha_i * o_i`` with non-negative weights
normalized to sum to 1 ("this assures that no function is favored over
another").

Scores are computed with a plain left-to-right float sum — the *canonical
arithmetic* of the library. Every component that compares scores (ranked
search bounds, the threshold algorithm, the matchers) evaluates the same
expression, so score comparisons are bitwise-consistent across algorithms
and the three matchers produce identical matchings.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import DimensionalityError, PreferenceError

#: Tolerance on "weights sum to 1".
WEIGHT_SUM_TOLERANCE = 1e-9

#: Cells :func:`canonical_score_matrix` scores per row block (512 KiB of
#: float64): a block and its product buffer stay in cache while every
#: dimension is added in. Rows per block = ``max(1, SCORE_BLOCK_CELLS // |O|)``.
SCORE_BLOCK_CELLS = 65_536


def canonical_score(weights: Sequence[float], point: Sequence[float]) -> float:
    """The library-wide score expression: left-to-right ``sum(w_i * x_i)``."""
    total = 0.0
    for w, x in zip(weights, point):
        total += w * x
    return total


class LinearPreference:
    """One user's preference: an id and a normalized weight vector."""

    __slots__ = ("fid", "weights")

    def __init__(self, fid: int, weights: Sequence[float]) -> None:
        if fid < 0:
            raise PreferenceError(f"function id must be non-negative, got {fid}")
        weights = tuple(float(w) for w in weights)
        if not weights:
            raise PreferenceError("weight vector must be non-empty")
        for w in weights:
            if w < 0.0:
                raise PreferenceError(
                    f"weights must be non-negative, got {w} in function {fid}"
                )
            if not math.isfinite(w):
                raise PreferenceError(f"weight {w} in function {fid} not finite")
        total = sum(weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise PreferenceError(
                f"weights of function {fid} sum to {total!r}, expected 1 "
                f"(normalize with LinearPreference.normalized)"
            )
        self.fid = int(fid)
        self.weights = weights

    @classmethod
    def normalized(cls, fid: int, raw_weights: Sequence[float]) -> "LinearPreference":
        """Build from arbitrary non-negative weights, dividing by their sum."""
        raw = [float(w) for w in raw_weights]
        total = sum(raw)
        if total <= 0:
            raise PreferenceError(
                f"cannot normalize weights summing to {total} (function {fid})"
            )
        return cls(fid, [w / total for w in raw])

    @property
    def dims(self) -> int:
        return len(self.weights)

    def score(self, point: Sequence[float]) -> float:
        """``f(o)`` in the canonical arithmetic."""
        if len(point) != len(self.weights):
            raise DimensionalityError(len(self.weights), len(point), "point")
        return canonical_score(self.weights, point)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearPreference):
            return NotImplemented
        return self.fid == other.fid and self.weights == other.weights

    def __hash__(self) -> int:
        return hash((self.fid, self.weights))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pretty = ", ".join(f"{w:.3f}" for w in self.weights)
        return f"LinearPreference(fid={self.fid}, weights=({pretty}))"


def generate_preferences(n: int, dims: int, seed: int = 0,
                         concentration: float = 1.0) -> List[LinearPreference]:
    """Random normalized preference functions ("weights generated
    independently", as in the paper's setup).

    Weights are Dirichlet-distributed: ``concentration=1`` is uniform over
    the weight simplex; larger values concentrate around equal weights,
    smaller values produce extreme, single-attribute-dominated users.
    """
    if n < 0:
        raise PreferenceError(f"n must be >= 0, got {n}")
    if dims < 1:
        raise PreferenceError(f"dims must be >= 1, got {dims}")
    if concentration <= 0:
        raise PreferenceError(
            f"concentration must be > 0, got {concentration}"
        )
    rng = np.random.default_rng(seed)
    matrix = rng.dirichlet(np.full(dims, concentration), size=n)
    return [
        LinearPreference.normalized(fid, row) for fid, row in enumerate(matrix)
    ]


def generate_segmented_preferences(
    segments: "dict[str, Sequence[float]]",
    per_segment: int,
    dims: int,
    seed: int = 0,
    jitter: float = 0.3,
) -> Tuple[List[LinearPreference], "dict[int, str]"]:
    """User populations built from named weight profiles.

    Real query loads are rarely uniform over the weight simplex: users
    cluster into segments ("budget travelers", "families", …) around a
    base profile. Each segment contributes ``per_segment`` functions
    whose raw weights are the profile scaled by uniform jitter in
    ``[1 - jitter, 1 + jitter]``, then normalized.

    Returns ``(functions, {fid: segment name})``.
    """
    if per_segment < 0:
        raise PreferenceError(f"per_segment must be >= 0, got {per_segment}")
    if not 0.0 <= jitter < 1.0:
        raise PreferenceError(f"jitter must be in [0, 1), got {jitter}")
    if not segments:
        raise PreferenceError("at least one segment profile is required")
    for name, profile in segments.items():
        if len(profile) != dims:
            raise DimensionalityError(dims, len(profile), f"profile {name!r}")
        if any(w < 0 for w in profile) or sum(profile) <= 0:
            raise PreferenceError(
                f"profile {name!r} must be non-negative and non-zero"
            )
    rng = np.random.default_rng(seed)
    functions: List[LinearPreference] = []
    segment_of: "dict[int, str]" = {}
    fid = 0
    for name in segments:  # insertion order: deterministic
        profile = np.asarray(segments[name], dtype=np.float64)
        for _ in range(per_segment):
            scale = rng.uniform(1.0 - jitter, 1.0 + jitter, size=dims)
            functions.append(
                LinearPreference.normalized(fid, profile * scale)
            )
            segment_of[fid] = name
            fid += 1
    return functions, segment_of


def canonical_score_matrix(weights: np.ndarray,
                           points: np.ndarray) -> np.ndarray:
    """Score every function against every point, bitwise-canonically.

    Returns the ``(|F|, |O|)`` matrix whose ``[i, j]`` entry equals
    ``canonical_score(weights[i], points[j])`` *bit for bit*: the sum is
    accumulated dimension by dimension (``total += w_d * x_d``), exactly
    the left-to-right order of :func:`canonical_score`, using only
    element-wise IEEE-754 multiplies and adds — never a BLAS dot
    product, whose pairwise summation could differ in the last bit and
    flip a tie. This is what lets the serving path's vectorized batch
    scorer (:mod:`repro.engine.batch`) produce matchings pair-identical
    to the tree-traversal matchers.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.prefs import canonical_score, canonical_score_matrix
    >>> weights = np.array([[0.3, 0.7], [0.5, 0.5]])
    >>> points = np.array([[0.11, 0.97], [0.42, 0.13], [0.5, 0.5]])
    >>> scores = canonical_score_matrix(weights, points)
    >>> all(scores[i, j] == canonical_score(weights[i], points[j])
    ...     for i in range(2) for j in range(3))
    True
    """
    weights = np.asarray(weights, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if weights.ndim != 2 or points.ndim != 2:
        raise PreferenceError(
            f"weights and points must be 2-d, got shapes "
            f"{weights.shape} and {points.shape}"
        )
    if weights.shape[0] and points.shape[0] \
            and weights.shape[1] != points.shape[1]:
        raise DimensionalityError(
            weights.shape[1], points.shape[1], "points"
        )
    num_functions, num_points = weights.shape[0], points.shape[0]
    scores = np.zeros((num_functions, num_points))
    if not num_functions or not num_points:
        return scores
    # Row blocks over a contiguous (D, |O|) copy of the points: each
    # product lands in one reused buffer and is added into a block that
    # starts at 0.0 (so a -0.0 product still sums to 0.0), in dimension
    # order — the same ops on the same operands as the full-width loop.
    columns = np.ascontiguousarray(points.T)
    step = max(1, SCORE_BLOCK_CELLS // num_points)
    buffer = np.empty((min(step, num_functions), num_points))
    for start in range(0, num_functions, step):
        block = scores[start:start + step]
        product = buffer[:len(block)]
        rows = weights[start:start + step]
        for d in range(weights.shape[1]):
            np.multiply(rows[:, d, None], columns[d], out=product)
            block += product
    return scores


def weights_matrix(functions: Sequence[LinearPreference]) -> Tuple[np.ndarray, List[int]]:
    """Stack function weights into ``(matrix, fids)`` for vectorized math."""
    if not functions:
        return np.empty((0, 0)), []
    dims = functions[0].dims
    for function in functions:
        if function.dims != dims:
            raise DimensionalityError(dims, function.dims, "weights")
    matrix = np.array([function.weights for function in functions])
    return matrix, [function.fid for function in functions]

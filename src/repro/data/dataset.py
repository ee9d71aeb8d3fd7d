"""Datasets of multidimensional objects.

A :class:`Dataset` is an immutable collection of objects, each with an
integer id and a ``D``-dimensional feature vector in the unit hypercube
where **larger is better** in every dimension. Raw data with other ranges
or "smaller is better" attributes (e.g. price) is brought into this space
with :meth:`Dataset.from_raw`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DatasetError

Point = Tuple[float, ...]


def _id_array(ids) -> np.ndarray:
    """``ids`` as a new int64 array: integer arrays convert in numpy,
    anything else through ``int()`` per id."""
    if isinstance(ids, np.ndarray) and ids.ndim == 1 \
            and np.can_cast(ids.dtype, np.int64):
        return ids.astype(np.int64)
    try:
        return np.array([int(i) for i in ids], dtype=np.int64)
    except OverflowError:
        raise DatasetError("object ids must fit in int64") from None


class Dataset:
    """An id-indexed set of points in ``[0, 1]^D``.

    Parameters
    ----------
    vectors:
        Array-like of shape ``(n, dims)`` with values in ``[0, 1]``.
    ids:
        Optional explicit object ids (default ``0 … n-1``): a sequence or
        an integer array. Must be unique, non-negative and fit in int64;
        they are stored once, as the int64 array :attr:`id_array`.
    name:
        Optional label used in reports.
    """

    def __init__(self, vectors, ids: Optional[Sequence[int]] = None,
                 name: str = "dataset") -> None:
        matrix = np.asarray(vectors, dtype=np.float64)
        if matrix.ndim != 2:
            raise DatasetError(
                f"vectors must be 2-dimensional, got shape {matrix.shape}"
            )
        if matrix.size and (np.isnan(matrix).any() or np.isinf(matrix).any()):
            raise DatasetError("vectors contain NaN or infinity")
        if matrix.size and (matrix.min() < 0.0 or matrix.max() > 1.0):
            raise DatasetError(
                "vectors must lie in [0, 1]; normalize raw data with "
                "Dataset.from_raw"
            )
        self._matrix = matrix
        self.name = name
        if ids is None:
            id_array = np.arange(matrix.shape[0], dtype=np.int64)
        else:
            id_array = _id_array(ids)
            if len(id_array) != matrix.shape[0]:
                raise DatasetError(
                    f"{len(id_array)} ids for {matrix.shape[0]} vectors"
                )
            ascending = bool((id_array[1:] > id_array[:-1]).all())
            if not ascending and len(np.unique(id_array)) != len(id_array):
                raise DatasetError("object ids must be unique")
            if len(id_array) and id_array.min() < 0:
                raise DatasetError("object ids must be non-negative")
        id_array.flags.writeable = False
        self._ids = id_array
        # id -> row, built on the first lookup: many datasets (restaged
        # sessions, benchmark catalogs) are only ever scanned.
        self._by_id: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_raw(cls, vectors, larger_is_better: Optional[Sequence[bool]] = None,
                 ids: Optional[Sequence[int]] = None,
                 name: str = "dataset") -> "Dataset":
        """Min-max normalize raw columns into ``[0, 1]``.

        ``larger_is_better[i]`` being ``False`` flips dimension ``i``
        (e.g. price: cheap rooms should score high). Constant columns map
        to 0.5.
        """
        matrix = np.asarray(vectors, dtype=np.float64)
        if matrix.ndim != 2:
            raise DatasetError(
                f"vectors must be 2-dimensional, got shape {matrix.shape}"
            )
        if np.isnan(matrix).any() or np.isinf(matrix).any():
            raise DatasetError("raw vectors contain NaN or infinity")
        dims = matrix.shape[1]
        if larger_is_better is None:
            larger_is_better = [True] * dims
        if len(larger_is_better) != dims:
            raise DatasetError(
                f"{len(larger_is_better)} orientation flags for {dims} columns"
            )
        lo = matrix.min(axis=0)
        hi = matrix.max(axis=0)
        span = hi - lo
        normalized = np.where(span > 0, (matrix - lo) / np.where(span == 0, 1, span), 0.5)
        for i, flag in enumerate(larger_is_better):
            if not flag:
                normalized[:, i] = 1.0 - normalized[:, i]
        return cls(normalized, ids=ids, name=name)

    @classmethod
    def from_mapping(cls, points: "dict", dims: int,
                     name: str = "dataset") -> "Dataset":
        """Build from an ``{object_id: point}`` mapping (ids sorted).

        ``dims`` disambiguates the empty mapping, so dynamic pools can
        drain to zero objects and still produce a dataset of the right
        dimensionality.
        """
        ids = sorted(points)
        if ids:
            vectors = np.asarray([points[object_id] for object_id in ids])
        else:
            vectors = np.empty((0, dims))
        return cls(vectors, ids=ids, name=name)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def dims(self) -> int:
        return int(self._matrix.shape[1])

    @property
    def ids(self) -> List[int]:
        """The object ids, row order, as a new list."""
        return self._ids.tolist()

    @property
    def id_array(self) -> np.ndarray:
        """Read-only int64 view of the object ids, row order."""
        view = self._ids.view()
        view.flags.writeable = False
        return view

    def _rows(self) -> Dict[int, int]:
        if self._by_id is None:
            self._by_id = dict(zip(self._ids.tolist(), range(len(self._ids))))
        return self._by_id

    @property
    def matrix(self) -> np.ndarray:
        """Read-only view of the ``(n, dims)`` feature matrix."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    def vector(self, object_id: int) -> Point:
        """The feature tuple of one object."""
        try:
            row = self._rows()[object_id]
        except KeyError:
            raise DatasetError(f"unknown object id {object_id}") from None
        return tuple(self._matrix[row].tolist())

    def __len__(self) -> int:
        return int(self._matrix.shape[0])

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._rows()

    def row_of(self, object_id: int) -> Optional[int]:
        """The row of ``object_id`` in :attr:`matrix` (``None`` if absent)."""
        return self._rows().get(object_id)

    def __iter__(self) -> Iterator[Tuple[int, Point]]:
        return zip(self._ids.tolist(), map(tuple, self._matrix.tolist()))

    def items(self) -> Iterator[Tuple[int, Point]]:
        """Alias of iteration: yields ``(object_id, point)``."""
        return iter(self)

    def subset(self, ids: Iterable[int], name: Optional[str] = None) -> "Dataset":
        """A new dataset restricted to ``ids`` (order preserved)."""
        id_list = list(ids)
        by_id = self._rows()
        rows = [by_id[i] for i in id_list]
        return Dataset(
            self._matrix[rows], ids=id_list,
            name=name if name is not None else self.name,
        )

    def sample(self, n: int, seed: int = 0,
               name: Optional[str] = None) -> "Dataset":
        """A uniform random subset of ``n`` objects (without replacement)."""
        if n > len(self):
            raise DatasetError(
                f"cannot sample {n} objects from a dataset of {len(self)}"
            )
        rng = np.random.default_rng(seed)
        rows = rng.choice(len(self), size=n, replace=False)
        rows.sort()
        return Dataset(
            self._matrix[rows], ids=self._ids[rows],
            name=name if name is not None else f"{self.name}-sample{n}",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dataset(name={self.name!r}, n={len(self)}, dims={self.dims})"

"""Dataset container tests."""

import numpy as np
import pytest

from repro.data import Dataset
from repro.errors import DatasetError


def test_basic_construction():
    ds = Dataset([[0.1, 0.2], [0.3, 0.4]], name="tiny")
    assert len(ds) == 2
    assert ds.dims == 2
    assert ds.ids == [0, 1]
    assert ds.vector(1) == (0.3, 0.4)
    assert list(ds) == [(0, (0.1, 0.2)), (1, (0.3, 0.4))]


def test_explicit_ids():
    ds = Dataset([[0.5, 0.5]], ids=[42])
    assert ds.ids == [42]
    assert 42 in ds and 0 not in ds
    assert ds.vector(42) == (0.5, 0.5)
    with pytest.raises(DatasetError):
        ds.vector(0)


def test_validation_errors():
    with pytest.raises(DatasetError):
        Dataset([0.1, 0.2])  # not 2-D
    with pytest.raises(DatasetError):
        Dataset([[0.1, float("nan")]])
    with pytest.raises(DatasetError):
        Dataset([[1.5, 0.0]])  # out of range
    with pytest.raises(DatasetError):
        Dataset([[-0.1, 0.0]])
    with pytest.raises(DatasetError):
        Dataset([[0.1, 0.2]], ids=[1, 2])  # length mismatch
    with pytest.raises(DatasetError):
        Dataset([[0.1, 0.2], [0.3, 0.4]], ids=[1, 1])  # duplicate ids
    with pytest.raises(DatasetError):
        Dataset([[0.1, 0.2]], ids=[-1])


def test_matrix_is_read_only():
    ds = Dataset([[0.1, 0.2]])
    with pytest.raises(ValueError):
        ds.matrix[0, 0] = 0.9


def test_from_raw_minmax_normalization():
    raw = [[10.0, 100.0], [20.0, 300.0], [15.0, 200.0]]
    ds = Dataset.from_raw(raw)
    assert ds.vector(0) == (0.0, 0.0)
    assert ds.vector(1) == (1.0, 1.0)
    assert ds.vector(2) == (0.5, 0.5)


def test_from_raw_flips_smaller_is_better():
    raw = [[100.0], [300.0]]
    ds = Dataset.from_raw(raw, larger_is_better=[False])  # e.g. price
    assert ds.vector(0) == (1.0,)  # cheapest scores best
    assert ds.vector(1) == (0.0,)


def test_from_raw_constant_column_maps_to_half():
    ds = Dataset.from_raw([[5.0, 1.0], [5.0, 2.0]])
    assert ds.vector(0)[0] == 0.5
    assert ds.vector(1)[0] == 0.5


def test_from_raw_orientation_length_mismatch():
    with pytest.raises(DatasetError):
        Dataset.from_raw([[1.0, 2.0]], larger_is_better=[True])


def test_subset_preserves_ids_and_order():
    ds = Dataset(np.random.default_rng(0).random((10, 2)))
    sub = ds.subset([7, 3, 5])
    assert sub.ids == [7, 3, 5]
    assert sub.vector(3) == ds.vector(3)


def test_sample_without_replacement_deterministic():
    ds = Dataset(np.random.default_rng(1).random((100, 3)))
    a = ds.sample(20, seed=5)
    b = ds.sample(20, seed=5)
    assert a.ids == b.ids
    assert len(set(a.ids)) == 20
    c = ds.sample(20, seed=6)
    assert a.ids != c.ids
    with pytest.raises(DatasetError):
        ds.sample(101)


def test_empty_dataset():
    ds = Dataset(np.empty((0, 3)))
    assert len(ds) == 0
    assert ds.dims == 3
    assert list(ds) == []


# ----------------------------------------------------------------------
# Ids stored once, as a read-only int64 array; the id -> row map is lazy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize("ids,message", [
    ([3, 1, 3], "object ids must be unique"),
    ([2, -1, 5], "object ids must be non-negative"),
    ([1, 2], "2 ids for 3 vectors"),
    ([1, 2, 3, 4], "4 ids for 3 vectors"),
])
def test_bad_ids_keep_their_messages(ids, message, as_array):
    vectors = np.full((3, 2), 0.5)
    if as_array:
        ids = np.array(ids, dtype=np.int64)
    with pytest.raises(DatasetError, match=f"^{message}$"):
        Dataset(vectors, ids=ids)


def test_id_array_is_int64_and_read_only():
    ds = Dataset(np.full((3, 2), 0.5), ids=np.array([7, 3, 5], dtype=np.int32))
    ids = ds.id_array
    assert ids.dtype == np.int64 and ids.tolist() == [7, 3, 5]
    with pytest.raises(ValueError):
        ids[0] = 1
    with pytest.raises(ValueError):
        ids.flags.writeable = True
    assert ds.id_array.tolist() == [7, 3, 5]


def test_array_ids_are_copied():
    ids = np.array([4, 8, 6])
    ds = Dataset(np.full((3, 1), 0.5), ids=ids)
    ids[0] = 99
    assert ds.ids == [4, 8, 6]


def test_ids_are_python_ints_in_a_new_list():
    ds = Dataset(np.full((2, 1), 0.5), ids=np.array([5, 2]))
    ids = ds.ids
    assert ids == [5, 2] and all(type(i) is int for i in ids)
    ids.append(1)
    assert ds.ids == [5, 2]
    assert all(type(i) is int for i, _ in ds)


def test_ids_wider_than_int64_are_rejected():
    with pytest.raises(DatasetError, match="int64"):
        Dataset(np.full((1, 1), 0.5), ids=[2 ** 63])


def test_lookups_iteration_subset_and_sample():
    rng = np.random.default_rng(4)
    ds = Dataset(rng.random((6, 2)), ids=[50, 10, 40, 20, 60, 30])
    assert ds.row_of(40) == 2 and ds.row_of(41) is None
    assert 10 in ds and 11 not in ds
    assert ds.vector(20) == tuple(ds.matrix[3].tolist())
    with pytest.raises(DatasetError, match="unknown object id 11"):
        ds.vector(11)
    assert [i for i, _ in ds] == [50, 10, 40, 20, 60, 30]
    assert list(ds.items()) == list(ds)
    sub = ds.subset([60, 10])
    assert sub.ids == [60, 10] and sub.vector(60) == ds.vector(60)
    with pytest.raises(KeyError):
        ds.subset([11])
    sample = ds.sample(3, seed=2)
    rows = np.sort(np.random.default_rng(2).choice(6, size=3, replace=False))
    assert sample.ids == [ds.ids[r] for r in rows]
    assert sample.matrix.tobytes() == ds.matrix[rows].tobytes()


def test_pickle_round_trip():
    import pickle

    ds = Dataset(np.random.default_rng(5).random((5, 3)),
                 ids=[9, 4, 7, 1, 3], name="pickled")
    for looked_up in (False, True):
        if looked_up:
            assert 7 in ds
        back = pickle.loads(pickle.dumps(ds))
        assert (back.name, back.ids) == ("pickled", ds.ids)
        assert back.matrix.tobytes() == ds.matrix.tobytes()
        assert back.vector(4) == ds.vector(4) and back.row_of(1) == 3
        with pytest.raises(ValueError):
            back.id_array[0] = 0


def test_a_dataset_holds_its_two_arrays_and_little_else():
    """tracemalloc: a 10,000 x 4 dataset holds its matrix (312.5 KiB) and
    id array (78 KiB) until something looks an id up; a list of ids plus
    an id -> row dict (1,250 KiB in all, measured the same way) is over
    the bound."""
    import gc
    import tracemalloc

    from repro.data import generate_independent

    generate_independent(10, 4)   # first-use imports, untraced
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = generate_independent(10_000, 4)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ds) == 10_000
    assert held <= 640 * 1024, f"{held / 1024:.0f} KiB"

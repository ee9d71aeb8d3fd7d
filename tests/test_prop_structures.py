"""Property-based tests for the auxiliary structures (Hilbert keys,
buffer pools)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtree import hilbert_index
from repro.storage import BufferPool, ClockBufferPool, DiskManager, Page


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=4),
       st.integers(min_value=1, max_value=4), st.data())
def test_hilbert_index_is_injective(dims, order, data):
    side = 1 << order
    coords = data.draw(st.lists(
        st.tuples(*([st.integers(0, side - 1)] * dims)),
        min_size=2, max_size=20, unique=True,
    ))
    indices = [hilbert_index(c, order) for c in coords]
    assert len(set(indices)) == len(coords)
    for index in indices:
        assert 0 <= index < side ** dims


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=80),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
)
def test_buffer_pools_always_serve_correct_bytes(accesses, capacity, clock):
    """Whatever the access pattern, a pool returns exactly what was last
    written for each page, and never exceeds its capacity."""
    disk = DiskManager(page_size=16)
    ids = []
    for i in range(8):
        page_id = disk.allocate()
        disk.write_page(Page(page_id, 16, bytes([i])))
        ids.append(page_id)
    pool = (
        ClockBufferPool(disk, capacity) if clock
        else BufferPool(disk, capacity)
    )
    latest = {page_id: bytes([i]) for i, page_id in enumerate(ids)}
    for step, slot in enumerate(accesses):
        page_id = ids[slot]
        if step % 3 == 2:
            payload = bytes([slot, step % 251])
            pool.put_page(Page(page_id, 16, payload))
            latest[page_id] = payload
        else:
            assert pool.get_page(page_id).data == latest[page_id]
        assert pool.num_resident <= capacity
    pool.flush()
    for page_id, payload in latest.items():
        assert disk.read_page(page_id).data == payload

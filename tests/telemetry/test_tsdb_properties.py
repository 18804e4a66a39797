"""Property-based tests (hypothesis) for the ring oracle's per-series ring."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.telemetry.ring_oracle import RingBuffer

# sorted, finite, reasonably-sized time arrays
times_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=200,
).map(sorted)

values_like = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False)


@given(times=times_strategy, capacity=st.integers(min_value=1, max_value=64))
def test_ring_buffer_keeps_last_capacity_points(times, capacity):
    rb = RingBuffer(capacity)
    for i, t in enumerate(times):
        rb.append(t, float(i))
    stored_t, stored_v = rb.arrays()
    expect = times[-capacity:]
    np.testing.assert_array_equal(stored_t, expect)
    # values identify the original append index, so ordering is verifiable
    np.testing.assert_array_equal(stored_v, np.arange(len(times))[-capacity:])


@given(times=times_strategy, capacity=st.integers(min_value=1, max_value=64))
def test_ring_buffer_times_always_sorted(times, capacity):
    rb = RingBuffer(capacity)
    for t in times:
        rb.append(t, 0.0)
    stored_t, _ = rb.arrays()
    assert np.all(np.diff(stored_t) >= 0)


@given(
    times=times_strategy,
    capacity=st.integers(min_value=1, max_value=64),
    t0=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    t1=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
def test_window_equals_filter_of_stored(times, capacity, t0, t1):
    rb = RingBuffer(capacity)
    for i, t in enumerate(times):
        rb.append(t, float(i))
    stored_t, stored_v = rb.arrays()
    wt, wv = rb.window(t0, t1)
    mask = (stored_t >= t0) & (stored_t <= t1)
    np.testing.assert_array_equal(wt, stored_t[mask])
    np.testing.assert_array_equal(wv, stored_v[mask])


@given(
    chunks=st.lists(
        st.lists(values_like, min_size=1, max_size=20),
        min_size=1,
        max_size=10,
    ),
    capacity=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=60)
def test_extend_equivalent_to_appends(chunks, capacity):
    """Bulk extend must produce exactly the same state as point appends."""
    rb_bulk = RingBuffer(capacity)
    rb_point = RingBuffer(capacity)
    t = 0.0
    for chunk in chunks:
        ts = np.array([t + i for i in range(len(chunk))], dtype=float)
        vs = np.array(chunk, dtype=float)
        rb_bulk.extend(ts, vs)
        for tt, vv in zip(ts, vs):
            rb_point.append(tt, vv)
        t += len(chunk)
    bt, bv = rb_bulk.arrays()
    pt, pv = rb_point.arrays()
    np.testing.assert_array_equal(bt, pt)
    np.testing.assert_array_equal(bv, pv)
    assert rb_bulk.total_appended == rb_point.total_appended


@given(times=times_strategy)
def test_len_never_exceeds_capacity(times):
    rb = RingBuffer(7)
    for t in times:
        rb.append(t, 0.0)
    assert len(rb) <= 7
    assert len(rb) == min(len(times), 7)

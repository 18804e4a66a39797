"""Unit tests for the ring oracle's per-series ring and the time-series store."""

import numpy as np
import pytest

from repro.query import MetricQuery, QueryEngine
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore
from tests.telemetry.ring_oracle import RingBuffer


class TestRingBuffer:
    def test_append_and_read_back(self):
        rb = RingBuffer(8)
        for t in range(5):
            rb.append(float(t), float(t) * 10)
        times, values = rb.arrays()
        np.testing.assert_array_equal(times, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(values, [0, 10, 20, 30, 40])

    def test_wraparound_keeps_latest(self):
        rb = RingBuffer(4)
        for t in range(10):
            rb.append(float(t), float(t))
        times, _ = rb.arrays()
        np.testing.assert_array_equal(times, [6, 7, 8, 9])
        assert len(rb) == 4
        assert rb.total_appended == 10

    def test_out_of_order_append_raises(self):
        rb = RingBuffer(4)
        rb.append(5.0, 1.0)
        with pytest.raises(ValueError, match="out-of-order"):
            rb.append(4.0, 1.0)

    def test_equal_time_append_allowed(self):
        rb = RingBuffer(4)
        rb.append(5.0, 1.0)
        rb.append(5.0, 2.0)
        assert len(rb) == 2

    def test_window_query(self):
        rb = RingBuffer(16)
        for t in range(10):
            rb.append(float(t), float(t))
        times, values = rb.window(2.5, 6.0)
        np.testing.assert_array_equal(times, [3, 4, 5, 6])

    def test_window_inclusive_bounds(self):
        rb = RingBuffer(16)
        for t in range(5):
            rb.append(float(t), float(t))
        times, _ = rb.window(1.0, 3.0)
        np.testing.assert_array_equal(times, [1, 2, 3])

    def test_last_time_value(self):
        rb = RingBuffer(4)
        rb.append(1.0, 10.0)
        rb.append(2.0, 20.0)
        assert rb.last_time() == 2.0
        assert rb.last_value() == 20.0

    def test_first_time_tracks_overwrites(self):
        rb = RingBuffer(4)
        rb.append(1.0, 0.0)
        assert rb.first_time() == 1.0
        for t in range(2, 10):
            rb.append(float(t), 0.0)
        assert rb.first_time() == 6.0  # oldest surviving sample after wrap
        with pytest.raises(IndexError):
            RingBuffer(2).first_time()

    def test_empty_last_raises(self):
        rb = RingBuffer(4)
        with pytest.raises(IndexError):
            rb.last_time()
        with pytest.raises(IndexError):
            rb.last_value()

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            RingBuffer(0)

    def test_extend_bulk(self):
        rb = RingBuffer(8)
        rb.extend(np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0, 30.0]))
        times, values = rb.arrays()
        np.testing.assert_array_equal(times, [1, 2, 3])
        np.testing.assert_array_equal(values, [10, 20, 30])

    def test_extend_larger_than_capacity_keeps_tail(self):
        rb = RingBuffer(4)
        rb.extend(np.arange(10.0), np.arange(10.0) * 2)
        times, values = rb.arrays()
        np.testing.assert_array_equal(times, [6, 7, 8, 9])
        np.testing.assert_array_equal(values, [12, 14, 16, 18])

    def test_extend_wraps_correctly(self):
        rb = RingBuffer(5)
        rb.extend(np.array([0.0, 1.0, 2.0]), np.zeros(3))
        rb.extend(np.array([3.0, 4.0, 5.0, 6.0]), np.ones(4))
        times, values = rb.arrays()
        np.testing.assert_array_equal(times, [2, 3, 4, 5, 6])
        np.testing.assert_array_equal(values, [0, 1, 1, 1, 1])

    def test_extend_unsorted_raises(self):
        rb = RingBuffer(8)
        with pytest.raises(ValueError, match="sorted"):
            rb.extend(np.array([2.0, 1.0]), np.array([0.0, 0.0]))

    def test_extend_overlap_raises(self):
        rb = RingBuffer(8)
        rb.append(5.0, 0.0)
        with pytest.raises(ValueError, match="overlaps"):
            rb.extend(np.array([4.0]), np.array([0.0]))

    def test_extend_empty_noop(self):
        rb = RingBuffer(8)
        rb.extend(np.empty(0), np.empty(0))
        assert len(rb) == 0

    def test_extend_shape_mismatch(self):
        rb = RingBuffer(8)
        with pytest.raises(ValueError, match="same shape"):
            rb.extend(np.array([1.0]), np.array([1.0, 2.0]))

    def test_extend_exactly_capacity(self):
        """n == capacity takes the replace-everything path."""
        rb = RingBuffer(4)
        rb.append(0.0, -1.0)
        rb.extend(np.array([1.0, 2.0, 3.0, 4.0]), np.array([10.0, 20.0, 30.0, 40.0]))
        times, values = rb.arrays()
        np.testing.assert_array_equal(times, [1, 2, 3, 4])
        np.testing.assert_array_equal(values, [10, 20, 30, 40])
        assert len(rb) == 4
        assert rb.total_appended == 5

    def test_extend_split_write_lands_on_both_sides(self):
        """A wrapping extend writes the tail then the head, in order."""
        rb = RingBuffer(6)
        rb.extend(np.arange(4.0), np.arange(4.0) * 10)  # head at 4
        rb.extend(np.arange(4.0, 8.0), np.arange(4.0, 8.0) * 10)  # splits 2/2
        times, values = rb.arrays()
        np.testing.assert_array_equal(times, [2, 3, 4, 5, 6, 7])
        np.testing.assert_array_equal(values, [20, 30, 40, 50, 60, 70])

    def test_extend_overlap_rejected_after_wrap(self):
        rb = RingBuffer(3)
        rb.extend(np.arange(10.0), np.zeros(10))  # wrapped; last_time == 9
        with pytest.raises(ValueError, match="overlaps"):
            rb.extend(np.array([8.5]), np.array([0.0]))
        rb.extend(np.array([9.0]), np.array([1.0]))  # equal time is allowed
        assert rb.last_value() == 1.0

    def test_window_after_multiple_full_wraps(self):
        rb = RingBuffer(8)
        for t in range(50):  # wraps 6+ times
            rb.append(float(t), float(t) * 2)
        times, values = rb.window(44.0, 47.0)
        np.testing.assert_array_equal(times, [44, 45, 46, 47])
        np.testing.assert_array_equal(values, [88, 90, 92, 94])
        # window wider than retention clamps to stored range
        times, _ = rb.window(0.0, 100.0)
        np.testing.assert_array_equal(times, np.arange(42, 50))

    def test_window_after_wrapping_extends(self):
        rb = RingBuffer(5)
        for start in (0, 3, 6, 9):
            rb.extend(np.arange(float(start), float(start) + 3), np.full(3, float(start)))
        times, values = rb.window(7.0, 11.0)
        np.testing.assert_array_equal(times, [7, 8, 9, 10, 11])
        np.testing.assert_array_equal(values, [6, 6, 9, 9, 9])


class TestTimeSeriesStore:
    def _key(self, **labels):
        return SeriesKey.of("m", **labels)

    def test_insert_query_roundtrip(self):
        store = TimeSeriesStore()
        k = self._key(node="a")
        for t in range(10):
            store.insert(k, float(t), float(t) ** 2)
        times, values = store.query(k, 2.0, 4.0)
        np.testing.assert_array_equal(times, [2, 3, 4])
        np.testing.assert_array_equal(values, [4, 9, 16])

    def test_query_missing_series_returns_empty(self):
        store = TimeSeriesStore()
        times, values = store.query(self._key(), 0, 10)
        assert times.size == 0 and values.size == 0

    def test_latest(self):
        store = TimeSeriesStore()
        k = self._key()
        assert store.latest(k) is None
        store.insert(k, 1.0, 5.0)
        store.insert(k, 2.0, 7.0)
        assert store.latest(k) == (2.0, 7.0)

    def test_cardinality_counts_distinct_series(self):
        store = TimeSeriesStore()
        store.insert(self._key(node="a"), 0.0, 1.0)
        store.insert(self._key(node="b"), 0.0, 1.0)
        store.insert(self._key(node="a"), 1.0, 1.0)
        assert store.cardinality() == 2

    # The store keeps rings, not query helpers: rates, downsamples and
    # cross-series aggregates of its windows are the query engine's.

    @staticmethod
    def _engine(store):
        return QueryEngine(store, enable_cache=False)

    def test_rate_on_counter(self):
        store = TimeSeriesStore()
        k = self._key()
        for t in range(11):
            store.insert(k, float(t), float(t) * 3)  # 3 units/s
        assert self._engine(store).scalar("rate(m[10s])", at=10.0) == pytest.approx(3.0)

    def test_rate_insufficient_points(self):
        store = TimeSeriesStore()
        k = self._key()
        store.insert(k, 0.0, 1.0)
        assert self._engine(store).scalar("rate(m[10s])", at=10.0) is None

    def test_rate_clamps_counter_reset(self):
        """A restart (counter drops) must not yield a negative rate."""
        store = TimeSeriesStore()
        k = self._key()
        samples = [(0.0, 0.0), (10.0, 100.0), (20.0, 10.0), (30.0, 110.0)]
        for t, v in samples:
            store.insert(k, t, v)
        # increases: 100, then 10 (post-reset value), then 100 → 210 / 30 s
        assert self._engine(store).scalar("rate(m[30s])", at=30.0) == pytest.approx(7.0)

    def test_rate_all_resets_still_nonnegative(self):
        store = TimeSeriesStore()
        k = self._key()
        for t, v in [(0.0, 50.0), (10.0, 40.0), (20.0, 30.0)]:
            store.insert(k, t, v)
        got = self._engine(store).scalar("rate(m[20s])", at=20.0)
        assert got == pytest.approx((40.0 + 30.0) / 20.0)

    def test_downsample_mean(self):
        store = TimeSeriesStore()
        k = self._key()
        for t in range(10):
            store.insert(k, float(t), float(t))
        series = self._engine(store).query("mean(m[10s] by 5s)", at=10.0).first()
        np.testing.assert_array_equal(series.times, [0.0, 5.0])
        np.testing.assert_array_equal(series.values, [2.0, 7.0])

    def test_downsample_drops_empty_bins(self):
        store = TimeSeriesStore()
        k = self._key()
        store.insert(k, 0.0, 1.0)
        store.insert(k, 20.0, 2.0)
        series = self._engine(store).query("mean(m[30s] by 5s)", at=30.0).first()
        np.testing.assert_array_equal(series.times, [0.0, 20.0])

    def test_downsample_matches_naive_loop_for_all_aggs(self):
        """The vectorized path must agree with a per-bin reference loop
        over the bins of the absolute grid that overlap the window."""
        rng = np.random.default_rng(5)
        store = TimeSeriesStore()
        k = self._key()
        times = np.sort(rng.uniform(0.0, 500.0, size=400))
        values = rng.normal(100.0, 25.0, size=400)
        store.insert_batch(k, times, values)
        naive_fns = {
            "mean": np.mean,
            "sum": np.sum,
            "min": np.min,
            "max": np.max,
            "count": lambda a: float(a.size),
            "last": lambda a: float(a[-1]),
            "p50": lambda a: float(np.percentile(a, 50)),
            "p95": lambda a: float(np.percentile(a, 95)),
            "p99": lambda a: float(np.percentile(a, 99)),
        }
        t0, t1, step = 13.0, 487.0, 37.0
        grid_t0, grid_t1 = np.floor(t0 / step) * step, (np.floor(t1 / step) + 1) * step
        inside = (times >= grid_t0) & (times < grid_t1)
        w_times, w_values = times[inside], values[inside]
        bins = np.floor(w_times / step).astype(np.int64)
        engine = self._engine(store)
        for agg, fn in naive_fns.items():
            q = MetricQuery("m", agg=agg, range_s=t1 - t0, step_s=step)
            got = engine.query(q, at=t1).first()
            want_t = [b * step for b in np.unique(bins)]
            want_v = [fn(w_values[bins == b]) for b in np.unique(bins)]
            np.testing.assert_allclose(got.times, want_t, rtol=1e-12)
            np.testing.assert_allclose(got.values, want_v, rtol=1e-12)

    def test_downsample_unknown_agg_raises(self):
        with pytest.raises(ValueError, match="unknown aggregator"):
            MetricQuery("m", agg="median-ish", range_s=1.0, step_s=1.0)

    def test_downsample_nonpositive_step_raises(self):
        with pytest.raises(ValueError, match="step"):
            MetricQuery("m", range_s=1.0, step_s=0.0)

    def test_stats(self):
        store = TimeSeriesStore()
        k = self._key()
        for t, v in enumerate([1.0, 2.0, 3.0, 4.0]):
            store.insert(k, float(t), v)
        engine = self._engine(store)
        assert engine.scalar("count(m[3s])", at=3.0) == 4
        assert engine.scalar("mean(m[3s])", at=3.0) == pytest.approx(2.5)
        assert engine.scalar("min(m[3s])", at=3.0) == 1.0
        assert engine.scalar("max(m[3s])", at=3.0) == 4.0

    def test_stats_empty(self):
        engine = self._engine(TimeSeriesStore())
        assert engine.scalar("count(m[1s])", at=1.0) is None
        assert not engine.query("mean(m[1s])", at=1.0).series

    def test_aggregate_across_series(self):
        store = TimeSeriesStore()
        store.insert(SeriesKey.of("power", node="a"), 0.0, 100.0)
        store.insert(SeriesKey.of("power", node="b"), 0.0, 300.0)
        engine = self._engine(store)
        assert engine.scalar("mean(power[1s])", at=1.0) == pytest.approx(200.0)
        assert engine.scalar("max(power[1s])", at=1.0) == pytest.approx(300.0)
        assert engine.scalar("mean(other[1s])", at=1.0) is None

    def test_aggregate_across_ties_resolve_in_key_order(self):
        """Ids interned up front (the columnar pipeline) and first
        written in another order: a ``last`` tie across series goes to
        the last series in canonical key order, not in write order —
        so the answer does not depend on how the store was filled."""
        store = TimeSeriesStore()
        a, b, c = (store.registry.id_for(SeriesKey.of("power", node=n)) for n in "abc")
        store.append_batch(np.array([c]), np.array([0.0]), np.array([3.0]))
        store.append_batch(np.array([b, a]), np.array([0.0, 0.0]), np.array([2.0, 1.0]))
        assert self._engine(store).scalar("last(power[1s])", at=1.0) == 3.0

    def test_capacity_override(self):
        store = TimeSeriesStore(default_capacity=100)
        store.set_capacity("m", 2)
        k = self._key()
        for t in range(5):
            store.insert(k, float(t), float(t))
        times, _ = store.query(k, 0, 10)
        np.testing.assert_array_equal(times, [3, 4])

    def test_total_inserts_counted(self):
        store = TimeSeriesStore()
        k = self._key()
        store.insert(k, 0.0, 1.0)
        store.insert_batch(k, np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert store.total_inserts == 3

    def test_series_keys_filter_by_metric(self):
        store = TimeSeriesStore()
        store.insert(SeriesKey.of("a", n="1"), 0.0, 0.0)
        store.insert(SeriesKey.of("b", n="1"), 0.0, 0.0)
        assert [k.metric for k in store.series_keys("a")] == ["a"]
        assert len(store.series_keys()) == 2

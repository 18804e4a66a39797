"""Tests for rollup tiers: folding, cascading, watermarks, retention."""

import numpy as np
import pytest

import repro.query.engine
from repro.query.engine import QueryEngine, _Answers
from repro.query.rollup import ROW_COLUMNS, RollupManager, TierStore, select_tier_index
from repro.sim import Engine
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore


def sid(roll, key):
    """The series id a rollup manager's tiers address ``key`` by."""
    return roll.store.registry.id_for(key)


def filled_store(points=300, step=1.0):
    store = TimeSeriesStore(default_capacity=8192)
    key = SeriesKey.of("m", node="a")
    times = np.arange(points, dtype=float) * step
    store.insert_batch(key, times, np.sin(times))
    return store, key


class TestFolding:
    def test_fold_only_complete_bins(self):
        store, key = filled_store(points=95)
        roll = RollupManager(store, resolutions=(10.0,))
        roll.fold(95.0)
        rows = roll.tiers[0].window(sid(roll, key), 0.0, 1e9)
        np.testing.assert_array_equal(rows["time"], np.arange(0.0, 90.0, 10.0))
        assert roll.tiers[0].watermark(sid(roll, key)) == 90.0

    def test_fold_is_idempotent(self):
        store, key = filled_store()
        roll = RollupManager(store, resolutions=(10.0,))
        first = roll.fold(300.0)
        assert first > 0
        assert roll.fold(300.0) == 0  # nothing new

    def test_incremental_fold_equals_single_fold(self):
        store_a, key = filled_store()
        roll_a = RollupManager(store_a, resolutions=(10.0,))
        for now in (40.0, 123.0, 300.0):
            roll_a.fold(now)
        store_b, _ = filled_store()
        roll_b = RollupManager(store_b, resolutions=(10.0,))
        roll_b.fold(300.0)
        rows_a = roll_a.tiers[0].window(sid(roll_a, key), 0.0, 1e9)
        rows_b = roll_b.tiers[0].window(sid(roll_b, key), 0.0, 1e9)
        for col in rows_a:
            np.testing.assert_allclose(rows_a[col], rows_b[col], rtol=1e-12)

    def test_rollup_row_statistics(self):
        store = TimeSeriesStore()
        key = SeriesKey.of("m")
        store.insert_batch(
            key, np.array([0.0, 3.0, 7.0, 12.0]), np.array([4.0, 2.0, 6.0, 1.0])
        )
        roll = RollupManager(store, resolutions=(10.0,))
        roll.fold(20.0)
        rows = roll.tiers[0].window(sid(roll, key), 0.0, 20.0)
        np.testing.assert_array_equal(rows["time"], [0.0, 10.0])
        np.testing.assert_array_equal(rows["sum"], [12.0, 1.0])
        np.testing.assert_array_equal(rows["count"], [3.0, 1.0])
        np.testing.assert_array_equal(rows["min"], [2.0, 1.0])
        np.testing.assert_array_equal(rows["max"], [6.0, 1.0])
        np.testing.assert_array_equal(rows["last_v"], [6.0, 1.0])
        np.testing.assert_array_equal(rows["last_t"], [7.0, 12.0])


class TestCascade:
    def test_coarse_tier_folds_from_fine(self):
        store, key = filled_store(points=700)
        roll = RollupManager(store, resolutions=(10.0, 100.0))
        roll.fold(700.0)
        fine = roll.tiers[0].window(sid(roll, key), 0.0, 1e9)
        coarse = roll.tiers[1].window(sid(roll, key), 0.0, 1e9)
        assert coarse["time"].size == 7
        # coarse sums/counts must equal regrouped fine sums/counts
        np.testing.assert_allclose(
            coarse["sum"],
            [np.sum(fine["sum"][(fine["time"] // 100) == b]) for b in range(7)],
            rtol=1e-12,
        )
        assert roll.tiers[1].watermark(sid(roll, key)) == 700.0

    def test_resolutions_must_nest(self):
        store, _ = filled_store()
        with pytest.raises(ValueError, match="multiple"):
            RollupManager(store, resolutions=(10.0, 25.0))

    def test_tier_for_prefers_coarsest_exact(self):
        resolutions = [10.0, 60.0, 600.0]
        assert select_tier_index(resolutions, 600.0, "mean") == 2
        assert select_tier_index(resolutions, 120.0, "mean") == 1
        assert select_tier_index(resolutions, 90.0, "mean") == 0
        assert select_tier_index(resolutions, 5.0, "mean") is None  # finer than any tier
        assert select_tier_index(resolutions, 600.0, "p95") is None  # needs raw samples
        assert select_tier_index(resolutions, None, "mean") is None  # instant queries scan raw


class TestRetention:
    def test_tier_ring_keeps_tail(self):
        store, key = filled_store(points=2000)
        roll = RollupManager(store, resolutions=(10.0,), capacity=50)
        roll.fold(2000.0)
        rows = roll.tiers[0].window(sid(roll, key), 0.0, 1e9)
        assert rows["time"].size == 50
        np.testing.assert_array_equal(rows["time"], np.arange(1500.0, 2000.0, 10.0))

    def test_tier_outlives_raw_ring(self):
        """Rollups retain history the raw ring has already overwritten."""
        store = TimeSeriesStore(default_capacity=100)
        key = SeriesKey.of("m")
        roll = RollupManager(store, resolutions=(10.0,), capacity=1000)
        t = 0.0
        for _ in range(20):
            times = np.arange(t, t + 50.0)
            store.insert_batch(key, times, np.ones(50))
            t += 50.0
            roll.fold(t)  # fold before the ring wraps
        raw_times, _ = store.query(key, -np.inf, np.inf)
        assert raw_times[0] == 900.0  # raw kept only the last 100 samples
        rows = roll.tiers[0].window(sid(roll, key), 0.0, 1e9)
        assert rows["time"][0] == 0.0  # rollups kept everything


class TestAttach:
    def test_attach_folds_on_cadence(self):
        engine = Engine()
        store = TimeSeriesStore()
        key = SeriesKey.of("m")
        engine.every(1.0, lambda: store.insert(key, engine.now, 1.0))
        roll = RollupManager(store, resolutions=(10.0,))
        roll.attach(engine)
        engine.run(until=100.0)
        # folds fired on cadence; all complete 10s bins are rolled up
        assert roll.tiers[0].watermark(sid(roll, key)) == 100.0
        assert roll.tiers[0].window(sid(roll, key), 0.0, 1e9)["time"].size == 10
        with pytest.raises(RuntimeError):
            roll.attach(engine)
        roll.detach()


class TestDenseTierRing:
    """Per-series ring semantics of the dense tier store."""

    @staticmethod
    def tier(capacity, n_sids=3):
        store = TierStore((10.0,), capacity)
        store.grow(n_sids)
        return store.tiers[0]

    @staticmethod
    def append(tier, rows_by_sid):
        sids = np.array(sorted(rows_by_sid), dtype=np.int64)
        counts = np.array([len(rows_by_sid[s]) for s in sids.tolist()], dtype=np.int64)
        flat = np.concatenate([np.asarray(rows_by_sid[s], dtype=float) for s in sids.tolist()])
        tier.append_rows(sids, counts, [flat + k for k in range(len(ROW_COLUMNS))])

    def test_append_larger_than_capacity(self):
        tier = self.tier(4)
        self.append(tier, {1: np.arange(10.0)})
        rows = tier.window(1, -np.inf, np.inf)
        np.testing.assert_array_equal(rows["time"], [6.0, 7.0, 8.0, 9.0])
        np.testing.assert_array_equal(rows["last_v"], [12.0, 13.0, 14.0, 15.0])
        assert tier.window(0, -np.inf, np.inf) is None  # neighbours untouched
        assert len(tier) == 4

    def test_wraparound_split_write(self):
        tier = self.tier(5)
        self.append(tier, {0: [0.0, 1.0, 2.0], 2: [100.0]})
        self.append(tier, {0: [3.0, 4.0, 5.0, 6.0], 2: [101.0, 102.0]})
        np.testing.assert_array_equal(
            tier.window(0, -np.inf, np.inf)["time"], [2.0, 3.0, 4.0, 5.0, 6.0]
        )
        np.testing.assert_array_equal(
            tier.window(2, -np.inf, np.inf)["time"], [100.0, 101.0, 102.0]
        )
        np.testing.assert_array_equal(tier.window(0, 3.0, 5.0)["sum"], [4.0, 5.0])

    def test_mixed_whole_ring_and_partial_appends_in_one_call(self):
        tier = self.tier(4)
        self.append(tier, {0: [0.0, 1.0, 2.0], 1: [50.0]})
        self.append(tier, {0: [3.0, 4.0], 1: np.arange(60.0, 69.0), 2: [7.0]})
        np.testing.assert_array_equal(
            tier.window(0, -np.inf, np.inf)["time"], [1.0, 2.0, 3.0, 4.0]
        )
        np.testing.assert_array_equal(
            tier.window(1, -np.inf, np.inf)["time"], [65.0, 66.0, 67.0, 68.0]
        )
        np.testing.assert_array_equal(tier.window(2, -np.inf, np.inf)["time"], [7.0])

    def test_growth_appends_chunks_without_moving_rows(self):
        store = TierStore((10.0,), 4)
        store.grow(2)
        tier = store.tiers[0]
        self.append(tier, {1: [1.0, 2.0]})
        tier.put("wm", np.array([1]), 20.0)
        first_chunk = tier._chunks[0].cols[0]
        store.grow(tier.n_sids + 5)  # a second chunk
        assert tier._chunks[0].cols[0] is first_chunk
        far = tier.n_sids - 1
        self.append(tier, {1: [3.0], far: [9.0]})
        np.testing.assert_array_equal(tier.window(1, -np.inf, np.inf)["time"], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(tier.window(far, -np.inf, np.inf)["time"], [9.0])
        assert tier.watermark(1) == 20.0
        assert tier.watermark(far) is None
        assert tier.watermark(tier.n_sids) is None  # beyond storage


class TestIngestFedFolding:
    """Tier-0 folding consumes committed batches, not raw rescans."""

    def _ingested_store_rows(self, chunk_ticks, fold_points):
        """Insert via the listener path (manager exists first), folding at
        the given points; return the tier-0 rows."""
        store = TimeSeriesStore(default_capacity=8192)
        key = SeriesKey.of("m", node="a")
        roll = RollupManager(store, resolutions=(10.0,))
        t = 0.0
        folds = iter(fold_points)
        next_fold = next(folds, None)
        for _ in range(chunk_ticks):
            store.insert(key, t, np.sin(t))
            t += 1.0
            if next_fold is not None and t >= next_fold:
                roll.fold(next_fold)
                next_fold = next(folds, None)
        roll.fold(t)
        return roll, key

    def test_listener_fed_rows_match_bootstrap_rows(self):
        # manager-first (pure listener path), folded incrementally…
        roll_a, key = self._ingested_store_rows(300, (40.0, 123.0, 250.0))
        # …vs data-first (pure raw bootstrap path), folded once
        store_b, _ = filled_store()
        roll_b = RollupManager(store_b, resolutions=(10.0,))
        roll_b.fold(300.0)
        rows_a = roll_a.tiers[0].window(sid(roll_a, key), 0.0, 1e9)
        rows_b = roll_b.tiers[0].window(sid(roll_b, key), 0.0, 1e9)
        for col in rows_a:
            np.testing.assert_allclose(rows_a[col], rows_b[col], rtol=1e-12)

    def test_fold_does_not_rescan_rings_for_streamed_series(self):
        """Once listener coverage reaches the watermark, folding must not
        query raw rings — streamed data is folded from the buffer."""
        store = TimeSeriesStore(default_capacity=8192)
        key = SeriesKey.of("m")
        roll = RollupManager(store, resolutions=(10.0,))
        times = np.arange(0.0, 50.0)
        store.insert_batch(key, times, np.ones(50))
        roll.fold(50.0)  # bootstrap scan
        calls = []
        original = store.query
        store.query = lambda *a, **k: (calls.append(a), original(*a, **k))[1]
        store.insert_batch(key, np.arange(50.0, 100.0), np.ones(50))
        roll.fold(100.0)
        store.query = original
        assert calls == []  # second fold consumed only the ingest buffer
        rows = roll.tiers[0].window(sid(roll, key), 0.0, 1e9)
        np.testing.assert_array_equal(rows["time"], np.arange(0.0, 100.0, 10.0))

    def test_mixed_pre_and_post_manager_data(self):
        """Data before the manager existed plus streamed data afterwards
        folds exactly once each."""
        store = TimeSeriesStore(default_capacity=8192)
        key = SeriesKey.of("m")
        store.insert_batch(key, np.arange(0.0, 35.0), np.ones(35))  # pre-manager
        roll = RollupManager(store, resolutions=(10.0,))
        store.insert_batch(key, np.arange(35.0, 95.0), np.ones(60))  # streamed
        roll.fold(95.0)
        rows = roll.tiers[0].window(sid(roll, key), 0.0, 1e9)
        np.testing.assert_array_equal(rows["time"], np.arange(0.0, 90.0, 10.0))
        np.testing.assert_array_equal(rows["count"], np.full(9, 10.0))

    def test_buffer_overflow_drains_complete_bins(self):
        store = TimeSeriesStore(default_capacity=8192)
        key = SeriesKey.of("m")
        roll = RollupManager(store, resolutions=(10.0,), ingest_buffer_cap=64)
        for t in range(200):  # overflows the 64-sample cap repeatedly
            store.insert(key, float(t), 1.0)
        assert roll._buffered_rows <= 64  # drained early, memory bounded
        rows = roll.tiers[0].window(sid(roll, key), 0.0, 1e9)
        assert rows["time"].size >= 18  # complete bins already folded
        roll.fold(200.0)
        rows = roll.tiers[0].window(sid(roll, key), 0.0, 1e9)
        np.testing.assert_array_equal(rows["time"], np.arange(0.0, 200.0, 10.0))
        np.testing.assert_array_equal(rows["count"], np.full(20, 10.0))

    def test_overflow_drain_handles_time_skewed_series(self):
        """Regression: drain boundary must use the buffer's true max time
        even when the last-sorted series carries the oldest timestamps."""
        store = TimeSeriesStore(default_capacity=8192)
        a = store.registry.id_for(SeriesKey.of("m", node="a"))  # lower id, newer times
        b = store.registry.id_for(SeriesKey.of("m", node="b"))  # higher id, older times
        roll = RollupManager(store, resolutions=(10.0,), ingest_buffer_cap=4)
        store.append_batch(
            np.array([a, a, a, a, b, b, b, b]),
            np.array([100.0, 101.0, 102.0, 103.0, 1.0, 2.0, 3.0, 4.0]),
            np.ones(8),
        )
        assert roll._buffered_rows <= 4  # drain actually released the cap
        rows = roll.tiers[0].window(sid(roll, SeriesKey.of("m", node="b")), 0.0, 1e9)
        np.testing.assert_array_equal(rows["time"], [0.0])
        np.testing.assert_array_equal(rows["count"], [4.0])

    def test_caller_reusing_arrays_cannot_corrupt_buffer(self):
        """Regression: the listener must receive copies from insert_batch
        so a caller mutating its scratch arrays afterwards is harmless."""
        store = TimeSeriesStore(default_capacity=8192)
        key = SeriesKey.of("m")
        roll = RollupManager(store, resolutions=(10.0,))
        buf_t = np.arange(0.0, 20.0)
        buf_v = np.ones(20)
        store.insert_batch(key, buf_t, buf_v)
        buf_t += 100.0  # caller reuses its scratch arrays
        buf_v[:] = 999.0
        roll.fold(20.0)
        rows = roll.tiers[0].window(sid(roll, key), 0.0, 1e9)
        np.testing.assert_array_equal(rows["time"], [0.0, 10.0])
        np.testing.assert_array_equal(rows["sum"], [10.0, 10.0])

    def test_late_samples_are_counted_not_folded(self):
        store = TimeSeriesStore(default_capacity=8192)
        key_a = SeriesKey.of("m", node="a")
        key_b = SeriesKey.of("m", node="b")
        roll = RollupManager(store, resolutions=(10.0,))
        store.insert(key_a, 0.0, 1.0)
        store.insert(key_b, 0.0, 1.0)
        roll.fold(50.0)  # advances both watermarks to 50
        store.insert(key_b, 12.0, 99.0)  # arrives behind the watermark
        store.insert(key_b, 60.0, 2.0)
        roll.fold(70.0)
        assert roll.late_samples_dropped == 1
        rows = roll.tiers[0].window(sid(roll, key_b), 0.0, 1e9)
        np.testing.assert_array_equal(rows["time"], [0.0, 60.0])  # 12.0 not folded


class TestResultMemoUnit:
    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(repro.query.engine, "_ANSWERS_MAX", 2)
        cache = _Answers()
        cache.put(("a",), 0, 1)
        cache.put(("b",), 0, 2)
        assert cache.probe(("a",), 0, miss=1).result == 1  # refresh a
        cache.put(("c",), 0, 3)  # evicts b
        assert cache.probe(("b",), 0, miss=1) is None
        assert cache.probe(("a",), 0, miss=1).result == 1
        assert cache.evictions == 1

    def test_hit_miss_counters(self):
        cache = _Answers()
        assert cache.probe(("k",), 0, miss=1) is None
        cache.put(("k",), 0, 42)
        assert cache.probe(("k",), 0, miss=1).result == 42
        assert cache.probe(("k",), 1) is None  # a probe's miss is not counted
        assert cache.hits == 1 and cache.misses == 1
        assert cache.stats()["hit_rate"] == 0.5

    def test_quantized_keys(self):
        engine = QueryEngine(TimeSeriesStore())
        q = engine.parse("mean(m[60s] by 30s)")
        k1 = engine._cache_key(q, 60.0)  # window [0, 60]: quanta 0 and 2
        k2 = engine._cache_key(q, 89.0)  # [29, 89]: the same quanta
        k3 = engine._cache_key(q, 95.0)  # [35, 95]: quanta 1 and 3
        assert k1 == k2 and k1 != k3

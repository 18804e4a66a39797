"""Tests for the columnar ingest building blocks: SampleBatch,
SeriesRegistry, SensorBank, SamplingGroup, and bulk store appends."""

import numpy as np
import pytest

from repro.sim import Engine, RngRegistry
from repro.telemetry.batch import SampleBatch, SeriesRegistry
from repro.telemetry.metric import SeriesKey
from repro.telemetry.sampler import SamplingGroup
from repro.telemetry.sensor import SensorBank
from repro.telemetry.tsdb import TimeSeriesStore


class TestSeriesRegistry:
    def test_ids_are_dense_and_stable(self):
        reg = SeriesRegistry()
        a, b = SeriesKey.of("m", node="a"), SeriesKey.of("m", node="b")
        assert reg.id_for(a) == 0
        assert reg.id_for(b) == 1
        assert reg.id_for(a) == 0  # interned, not re-assigned
        assert reg.key_for(1) == b
        assert len(reg) == 2
        assert a in reg and SeriesKey.of("other") not in reg

    def test_ids_for_vector(self):
        reg = SeriesRegistry()
        keys = [SeriesKey.of("m", node=f"n{i}") for i in range(4)]
        np.testing.assert_array_equal(reg.ids_for(keys), [0, 1, 2, 3])

    def test_unknown_id_raises(self):
        with pytest.raises(IndexError):
            SeriesRegistry().key_for(0)


class TestSampleBatch:
    def test_validation(self):
        with pytest.raises(ValueError, match="parallel"):
            SampleBatch(np.array([1, 2]), np.array([0.0]), np.array([1.0]))

    def test_concat_and_len(self):
        b1 = SampleBatch(np.array([0]), np.array([1.0]), np.array([5.0]))
        b2 = SampleBatch(np.array([1, 2]), np.array([2.0, 3.0]), np.array([6.0, 7.0]))
        merged = SampleBatch.concat([b1, b2])
        assert len(merged) == 3
        np.testing.assert_array_equal(merged.series_ids, [0, 1, 2])
        assert len(SampleBatch.concat([])) == 0
        assert SampleBatch.concat([b1]) is b1

    def test_concat_keeps_rows_aligned(self):
        b1 = SampleBatch(np.array([3, 1]), np.array([5.0, 4.0]), np.array([30.0, 10.0]))
        b2 = SampleBatch(np.array([2]), np.array([1.0]), np.array([20.0]))
        merged = SampleBatch.concat([b1, b2])
        np.testing.assert_array_equal(merged.series_ids, [3, 1, 2])
        np.testing.assert_array_equal(merged.times, [5.0, 4.0, 1.0])
        np.testing.assert_array_equal(merged.values, [30.0, 10.0, 20.0])


class TestSensorBank:
    def test_vectorized_read(self):
        reg = SeriesRegistry()
        keys = [SeriesKey.of("m", node="a"), SeriesKey.of("m", node="b")]
        bank = SensorBank(keys, lambda now: np.array([now, 2 * now]), registry=reg)
        batch = bank.read(3.0)
        np.testing.assert_array_equal(batch.values, [3.0, 6.0])
        np.testing.assert_array_equal(batch.times, [3.0, 3.0])
        np.testing.assert_array_equal(batch.series_ids, reg.ids_for(keys))

    def test_nan_marks_unavailable(self):
        reg = SeriesRegistry()
        keys = [SeriesKey.of("m", node="a"), SeriesKey.of("m", node="b")]
        bank = SensorBank(keys, lambda now: np.array([np.nan, 7.0]), registry=reg)
        batch = bank.read(0.0)
        assert len(batch) == 1
        np.testing.assert_array_equal(batch.values, [7.0])
        np.testing.assert_array_equal(batch.series_ids, [reg.id_for(keys[1])])

    def test_faults_drop_readings(self):
        reg = SeriesRegistry()
        rng = RngRegistry(seed=3).stream("f")
        keys = [SeriesKey.of("m", node=f"n{i}") for i in range(100)]
        bank = SensorBank(
            keys, lambda now: np.zeros(100), registry=reg, fault_prob=1.0, rng=rng
        )
        assert len(bank.read(0.0)) == 0

    def test_noise_is_array_drawn(self):
        reg = SeriesRegistry()
        rng = RngRegistry(seed=4).stream("n")
        keys = [SeriesKey.of("m", node=f"n{i}") for i in range(500)]
        bank = SensorBank(
            keys, lambda now: np.full(500, 100.0), registry=reg, noise_std=2.0, rng=rng
        )
        values = bank.read(0.0).values
        assert abs(float(np.mean(values)) - 100.0) < 0.5
        assert 1.0 < float(np.std(values)) < 3.0

    def test_per_series_noise_and_fault_arrays(self):
        reg = SeriesRegistry()
        rng = RngRegistry(seed=5).stream("nf")
        keys = [SeriesKey.of("m", node="a"), SeriesKey.of("m", node="b")]
        bank = SensorBank(
            keys,
            lambda now: np.array([1.0, 2.0]),
            registry=reg,
            noise_std=np.array([0.0, 1.0]),
            fault_prob=np.array([1.0, 0.0]),
            rng=rng,
        )
        batch = bank.read(0.0)
        assert list(batch.series_ids) == [reg.id_for(keys[1])]

    def test_rng_required(self):
        with pytest.raises(ValueError, match="rng required"):
            SensorBank(
                [SeriesKey.of("m")], lambda now: np.zeros(1),
                registry=SeriesRegistry(), noise_std=1.0,
            )

    def test_shape_mismatch_raises(self):
        bank = SensorBank(
            [SeriesKey.of("m")], lambda now: np.zeros(3), registry=SeriesRegistry()
        )
        with pytest.raises(ValueError, match="shape"):
            bank.read(0.0)

    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError, match="at least one series"):
            SensorBank([], lambda now: np.zeros(0), registry=SeriesRegistry())

    def test_negative_noise_rejected(self):
        rng = RngRegistry(seed=0).stream("n")
        with pytest.raises(ValueError, match="noise_std"):
            SensorBank(
                [SeriesKey.of("m")], lambda now: np.zeros(1),
                registry=SeriesRegistry(), noise_std=-1.0, rng=rng,
            )

    def test_fault_prob_within_unit_interval(self):
        rng = RngRegistry(seed=0).stream("f")
        with pytest.raises(ValueError, match="fault_prob"):
            SensorBank(
                [SeriesKey.of("m"), SeriesKey.of("n")], lambda now: np.zeros(2),
                registry=SeriesRegistry(), fault_prob=np.array([0.5, 1.5]), rng=rng,
            )

    def test_is_plain_only_without_transforms(self):
        rng = RngRegistry(seed=0).stream("p")
        keys = [SeriesKey.of("m")]
        plain = SensorBank(keys, lambda now: np.zeros(1), registry=SeriesRegistry())
        noisy = SensorBank(
            keys, lambda now: np.zeros(1), registry=SeriesRegistry(), noise_std=1.0, rng=rng
        )
        faulty = SensorBank(
            keys, lambda now: np.zeros(1), registry=SeriesRegistry(), fault_prob=0.1, rng=rng
        )
        assert plain.is_plain
        assert not noisy.is_plain
        assert not faulty.is_plain

    def test_read_values_copy_does_not_alias_readout(self):
        readout = np.array([1.0, 2.0])
        bank = SensorBank(
            [SeriesKey.of("m", node="a"), SeriesKey.of("m", node="b")],
            lambda now: readout, registry=SeriesRegistry(),
        )
        values = bank.read_values(0.0)
        values[0] = 99.0
        assert readout[0] == 1.0
        assert bank.read_values(0.0, copy=False) is readout

    def test_same_seed_same_readings(self):
        def readings(seed):
            rng = RngRegistry(seed=seed).stream("s")
            keys = [SeriesKey.of("m", node=f"n{i}") for i in range(50)]
            bank = SensorBank(
                keys, lambda now: np.full(50, 10.0), registry=SeriesRegistry(),
                noise_std=1.0, fault_prob=0.2, rng=rng,
            )
            return bank.read(0.0)

        a, b = readings(11), readings(11)
        np.testing.assert_array_equal(a.series_ids, b.series_ids)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, readings(12).values)


class _BatchSink:
    def __init__(self):
        self.batches = []

    def submit(self, batch):
        self.batches.append(batch)


def _bank(reg, name, values):
    keys = [SeriesKey.of(name, i=str(i)) for i in range(len(values))]
    arr = np.asarray(values, dtype=float)
    return SensorBank(keys, lambda now, _a=arr: _a, registry=reg)


class TestSamplingGroup:
    def test_one_batch_per_tick_for_all_banks(self):
        eng = Engine()
        reg = SeriesRegistry()
        sink = _BatchSink()
        group = SamplingGroup(eng, sink, period=10.0)
        group.add_banks([_bank(reg, "a", [1.0, 2.0]), _bank(reg, "b", [3.0])])
        group.start()
        eng.run(until=25.0)
        assert len(sink.batches) == 3  # t = 0, 10, 20 — one event each
        assert all(len(b) == 3 for b in sink.batches)
        assert group.samples_emitted == 9
        assert group.agent_count == 2
        assert group.sensor_count == 3

    def test_dropout_skips_polling_and_overhead(self):
        eng = Engine()
        reg = SeriesRegistry()
        sink = _BatchSink()
        rng = RngRegistry(seed=6).stream("d")
        group = SamplingGroup(
            eng, sink, period=1.0, dropout_prob=1.0, per_sample_cost_s=0.5, rng=rng
        )
        group.add_bank(_bank(reg, "a", [1.0, 2.0]))
        group.start()
        eng.run(until=3.0)
        assert sink.batches == []
        assert group.samples_dropped == 8  # 4 rounds x 2 sensors
        assert group.overhead_cpu_s == 0.0  # dropped before polling

    def test_overhead_charged_per_sensor_read(self):
        eng = Engine()
        reg = SeriesRegistry()
        group = SamplingGroup(eng, _BatchSink(), period=1.0, per_sample_cost_s=0.001)
        group.add_bank(_bank(reg, "a", [1.0, 2.0, 3.0]))
        group.start()
        eng.run(until=9.0)
        assert group.overhead_cpu_s == pytest.approx(0.030)  # 10 rounds x 3
        assert group.overhead_cpu_frac(10.0) == pytest.approx(0.003)

    def test_nan_rows_dropped_from_group_batch(self):
        eng = Engine()
        reg = SeriesRegistry()
        sink = _BatchSink()
        keys = [SeriesKey.of("m", i=str(i)) for i in range(3)]
        bank = SensorBank(
            keys, lambda now: np.array([1.0, np.nan, 3.0]), registry=reg
        )
        group = SamplingGroup(eng, sink, period=1.0)
        group.add_bank(bank)
        group.start()
        eng.run(until=0.0)
        assert len(sink.batches) == 1
        np.testing.assert_array_equal(sink.batches[0].values, [1.0, 3.0])

    def test_double_start_raises(self):
        eng = Engine()
        group = SamplingGroup(eng, _BatchSink(), period=1.0)
        group.start()
        with pytest.raises(RuntimeError):
            group.start()


class TestAppendBatch:
    def test_groups_rows_per_series(self):
        store = TimeSeriesStore()
        a = store.registry.id_for(SeriesKey.of("m", node="a"))
        b = store.registry.id_for(SeriesKey.of("m", node="b"))
        store.append_batch(
            np.array([a, b, a, b]),
            np.array([0.0, 0.0, 1.0, 1.0]),
            np.array([1.0, 2.0, 3.0, 4.0]),
        )
        times, values = store.query(SeriesKey.of("m", node="a"), 0, 10)
        np.testing.assert_array_equal(values, [1.0, 3.0])
        times, values = store.query(SeriesKey.of("m", node="b"), 0, 10)
        np.testing.assert_array_equal(values, [2.0, 4.0])
        assert store.total_inserts == 4

    def test_unsorted_rows_within_batch_are_ordered(self):
        store = TimeSeriesStore()
        sid = store.registry.id_for(SeriesKey.of("m"))
        store.append_batch(
            np.array([sid, sid, sid]),
            np.array([2.0, 0.0, 1.0]),
            np.array([20.0, 0.0, 10.0]),
        )
        times, values = store.query(SeriesKey.of("m"), 0, 10)
        np.testing.assert_array_equal(times, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(values, [0.0, 10.0, 20.0])

    def test_cross_batch_overlap_rejected(self):
        store = TimeSeriesStore()
        sid = store.registry.id_for(SeriesKey.of("m"))
        store.append_batch(np.array([sid]), np.array([5.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="overlap"):
            store.append_batch(np.array([sid]), np.array([4.0]), np.array([2.0]))

    def test_empty_batch_is_noop(self):
        store = TimeSeriesStore()
        store.append_batch(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))
        assert store.total_inserts == 0

    def test_matches_per_sample_inserts(self):
        rng = RngRegistry(seed=9).stream("x")
        keys = [SeriesKey.of("m", node=f"n{i}") for i in range(5)]
        ref = TimeSeriesStore()
        col = TimeSeriesStore()
        ids = col.registry.ids_for(keys)
        for t in range(50):
            values = rng.normal(size=5)
            for k, v in zip(keys, values):
                ref.insert(k, float(t), float(v))
            col.append_batch(ids, np.full(5, float(t)), values)
        for k in keys:
            rt, rv = ref.query(k, -np.inf, np.inf)
            ct, cv = col.query(k, -np.inf, np.inf)
            np.testing.assert_array_equal(rt, ct)
            np.testing.assert_array_equal(rv, cv)

    def test_metric_epoch_bumps_on_every_write_path(self):
        store = TimeSeriesStore()
        key = SeriesKey.of("m")
        assert store.metric_epoch("m") == 0
        store.insert(key, 0.0, 1.0)
        assert store.metric_epoch("m") == 1
        store.insert_batch(key, np.array([1.0]), np.array([2.0]))
        assert store.metric_epoch("m") == 2
        store.append_batch(
            np.array([store.registry.id_for(key)]), np.array([3.0]), np.array([4.0])
        )
        assert store.metric_epoch("m") == 3
        assert store.metric_epoch("other") == 0

    def test_ingest_listener_sees_sorted_columns(self):
        store = TimeSeriesStore()
        seen = []
        store.add_ingest_listener(lambda i, t, v: seen.append((i.copy(), t.copy(), v.copy())))
        a = store.registry.id_for(SeriesKey.of("m", node="a"))
        b = store.registry.id_for(SeriesKey.of("m", node="b"))
        store.append_batch(
            np.array([b, a, b]), np.array([1.0, 0.0, 0.5]), np.array([1.0, 2.0, 3.0])
        )
        ids, times, values = seen[0]
        np.testing.assert_array_equal(ids, [a, b, b])
        np.testing.assert_array_equal(times, [0.0, 0.5, 1.0])
        store.insert(SeriesKey.of("m", node="a"), 9.0, 9.0)
        ids, times, values = seen[1]
        np.testing.assert_array_equal(ids, [a])
        np.testing.assert_array_equal(times, [9.0])

"""Tests for sampling groups, collectors, and the assembled pipeline."""

import numpy as np
import pytest

from repro.sim import Engine, RngRegistry
from repro.telemetry.batch import SampleBatch
from repro.telemetry.collector import (
    SAMPLE_WIRE_BYTES,
    Aggregator,
    CollectionPipeline,
    Collector,
)
from repro.telemetry.metric import SeriesKey
from repro.telemetry.batch import SeriesRegistry
from repro.telemetry.sampler import SamplingGroup
from repro.telemetry.sensor import SensorBank
from repro.telemetry.tsdb import TimeSeriesStore


class _ListSink:
    def __init__(self):
        self.batches = []

    def submit(self, samples):
        self.batches.append(samples)


def _const_bank(registry, *metrics, node="a"):
    keys = [SeriesKey.of(m, node=node) for m in metrics]
    values = np.ones(len(keys))
    return SensorBank(keys, lambda now: values, registry=registry)


class TestSamplingGroupSchedule:
    def test_samples_land_on_period_grid(self):
        eng = Engine()
        sink = _ListSink()
        group = SamplingGroup(eng, sink, period=10.0)
        group.add_bank(_const_bank(SeriesRegistry(), "m"))
        group.start()
        eng.run(until=35.0)
        assert [float(b.times[0]) for b in sink.batches] == [0.0, 10.0, 20.0, 30.0]
        assert group.samples_emitted == 4

    def test_stop_halts_sampling(self):
        eng = Engine()
        sink = _ListSink()
        group = SamplingGroup(eng, sink, period=1.0)
        group.add_bank(_const_bank(SeriesRegistry(), "m"))
        group.start()
        eng.schedule(2.5, group.stop)
        eng.run(until=10.0)
        assert len(sink.batches) == 3  # t = 0, 1, 2

    def test_overhead_cpu_frac_is_per_agent(self):
        eng = Engine()
        reg = SeriesRegistry()
        group = SamplingGroup(eng, _ListSink(), period=1.0, per_sample_cost_s=0.001)
        group.add_banks(
            [_const_bank(reg, "a", node="n0"), _const_bank(reg, "a", "b", "c", node="n1")]
        )
        group.start()
        eng.run(until=9.0)
        # 10 rounds x 4 sensors, spread over the group's 2 agents
        assert group.overhead_cpu_s == pytest.approx(0.040)
        assert group.overhead_cpu_frac(10.0) == pytest.approx(0.002)
        with pytest.raises(ValueError):
            group.overhead_cpu_frac(0.0)

    def test_start_at_delays_first_round(self):
        eng = Engine()
        sink = _ListSink()
        group = SamplingGroup(eng, sink, period=10.0)
        group.add_bank(_const_bank(SeriesRegistry(), "m"))
        group.start(start_at=5.0)
        eng.run(until=30.0)
        assert [float(b.times[0]) for b in sink.batches] == [5.0, 15.0, 25.0]

    def test_restart_after_stop(self):
        eng = Engine()
        sink = _ListSink()
        group = SamplingGroup(eng, sink, period=1.0)
        group.add_bank(_const_bank(SeriesRegistry(), "m"))
        group.start()
        eng.run(until=1.0)
        group.stop()
        eng.run(until=5.0)
        group.start()  # a stopped group may start again, from now
        eng.run(until=6.0)
        assert [float(b.times[0]) for b in sink.batches] == [0.0, 1.0, 5.0, 6.0]

    def test_empty_group_fires_no_rounds(self):
        eng = Engine()
        sink = _ListSink()
        group = SamplingGroup(eng, sink, period=1.0)
        group.start()
        eng.run(until=5.0)
        assert sink.batches == []
        assert group.rounds == 0
        assert group.samples_emitted == 0

    def test_bank_added_while_running_joins_next_round(self):
        eng = Engine()
        reg = SeriesRegistry()
        sink = _ListSink()
        group = SamplingGroup(eng, sink, period=1.0)
        group.add_bank(_const_bank(reg, "m", node="n0"))
        group.start()
        eng.schedule(1.5, group.add_bank, _const_bank(reg, "m", node="n1"))
        eng.run(until=3.0)
        assert [len(b) for b in sink.batches] == [1, 1, 2, 2]
        assert group.agent_count == 2
        assert group.samples_emitted == 6

    def test_all_nan_round_emits_nothing_but_costs_reads(self):
        eng = Engine()
        sink = _ListSink()
        bank = SensorBank(
            [SeriesKey.of("m", node="a")], lambda now: np.array([np.nan]),
            registry=SeriesRegistry(),
        )
        group = SamplingGroup(eng, sink, period=1.0, per_sample_cost_s=0.5)
        group.add_bank(bank)
        group.start()
        eng.run(until=3.0)
        assert sink.batches == []
        assert group.rounds == 4
        assert group.samples_emitted == 0
        assert group.overhead_cpu_s == pytest.approx(2.0)  # the sensor was read

    def test_noisy_bank_redrawn_every_round(self):
        eng = Engine()
        sink = _ListSink()
        rng = RngRegistry(seed=7).stream("n")
        bank = SensorBank(
            [SeriesKey.of("m", node="a")], lambda now: np.array([100.0]),
            registry=SeriesRegistry(), noise_std=1.0, rng=rng,
        )
        group = SamplingGroup(eng, sink, period=1.0)
        group.add_bank(bank)
        group.start()
        eng.run(until=4.0)
        values = [float(b.values[0]) for b in sink.batches]
        assert len(values) == 5
        assert len(set(values)) == 5  # no round served the raw readout
        assert 100.0 not in values

    def test_jitter_moves_rounds_off_grid_reproducibly(self):
        def round_times(seed):
            eng = Engine()
            sink = _ListSink()
            rng = RngRegistry(seed=seed).stream("j")
            group = SamplingGroup(eng, sink, period=10.0, jitter_std=1.0, rng=rng)
            group.add_bank(_const_bank(SeriesRegistry(), "m"))
            group.start()
            eng.run(until=100.0)
            return [float(b.times[0]) for b in sink.batches]

        times = round_times(1)
        assert times == round_times(1)
        assert times != round_times(2)
        assert times == sorted(times)
        assert any(t % 10.0 != 0.0 for t in times)

    def test_partial_dropout_conserves_samples(self):
        eng = Engine()
        reg = SeriesRegistry()
        sink = _ListSink()
        rng = RngRegistry(seed=8).stream("d")
        group = SamplingGroup(
            eng, sink, period=1.0, dropout_prob=0.5, per_sample_cost_s=0.001, rng=rng
        )
        group.add_banks([_const_bank(reg, "a", "b", node=f"n{i}") for i in range(20)])
        group.start()
        eng.run(until=9.0)
        # 10 rounds x 20 banks x 2 sensors, each bank kept or lost whole
        assert group.samples_emitted + group.samples_dropped == 400
        assert 0 < group.samples_dropped < 400
        assert group.samples_dropped % 2 == 0
        assert sum(len(b) for b in sink.batches) == group.samples_emitted
        assert len(sink.batches) <= 10  # at most one batch per round
        assert group.overhead_cpu_s == pytest.approx(0.001 * group.samples_emitted)


class TestSamplingGroupValidation:
    @pytest.mark.parametrize("period", [0.0, -1.0])
    def test_period_must_be_positive(self, period):
        with pytest.raises(ValueError, match="period"):
            SamplingGroup(Engine(), _ListSink(), period=period)

    @pytest.mark.parametrize("prob", [-0.1, 1.5])
    def test_dropout_prob_within_unit_interval(self, prob):
        rng = RngRegistry(seed=0).stream("d")
        with pytest.raises(ValueError, match="dropout_prob"):
            SamplingGroup(Engine(), _ListSink(), dropout_prob=prob, rng=rng)

    @pytest.mark.parametrize(
        "kwargs", [{"jitter_std": 1.0}, {"dropout_prob": 0.5}], ids=["jitter", "dropout"]
    )
    def test_rng_required_for_randomness(self, kwargs):
        with pytest.raises(ValueError, match="rng required"):
            SamplingGroup(Engine(), _ListSink(), **kwargs)


class TestCollector:
    def test_zero_latency_writes_immediately(self):
        eng = Engine()
        store = TimeSeriesStore()
        coll = Collector(eng, store)
        coll.submit(_batch(store, "m", [0.0], [5.0]))
        assert store.latest(SeriesKey.of("m", node="a")) == (0.0, 5.0)

    def test_ingest_latency_defers_write(self):
        eng = Engine()
        store = TimeSeriesStore()
        coll = Collector(eng, store, ingest_latency=2.0)
        k = SeriesKey.of("m", node="a")
        eng.schedule(1.0, coll.submit, _batch(store, "m", [1.0], [5.0]))
        eng.run(until=2.0)
        assert store.latest(k) is None  # not yet committed
        eng.run(until=3.0)
        assert store.latest(k) == (1.0, 5.0)
        assert coll.latest_arrival_lag == pytest.approx(2.0)

    def test_aggregator_forwards_with_latency(self):
        eng = Engine()
        store = TimeSeriesStore()
        coll = Collector(eng, store)
        agg = Aggregator(eng, coll, forward_latency=1.5)
        k = SeriesKey.of("m", node="a")
        eng.schedule(0.0, agg.submit, _batch(store, "m", [0.0], [1.0]))
        eng.run(until=1.0)
        assert store.latest(k) is None
        eng.run(until=2.0)
        assert store.latest(k) == (0.0, 1.0)
        assert agg.bytes_forwarded > 0

    def test_aggregator_loss(self):
        eng = Engine()
        store = TimeSeriesStore()
        coll = Collector(eng, store)
        rng = RngRegistry(seed=5).stream("loss")
        agg = Aggregator(eng, coll, forward_latency=0.0, loss_prob=1.0, rng=rng)
        agg.submit(_batch(store, "m", [0.0], [1.0]))
        assert agg.batches_lost == 1
        assert store.cardinality() == 0


def _batch(store_or_reg, metric, times, values, node="a"):
    registry = getattr(store_or_reg, "registry", store_or_reg)
    sid = registry.id_for(SeriesKey.of(metric, node=node))
    times = np.asarray(times, dtype=float)
    return SampleBatch(np.full(times.size, sid, dtype=np.int64), times, np.asarray(values, dtype=float))


class TestBatchPath:
    def test_collector_commits_batches_bulk(self):
        eng = Engine()
        store = TimeSeriesStore()
        coll = Collector(eng, store)
        coll.submit(_batch(store, "m", [0.0, 1.0], [5.0, 6.0]))
        times, values = store.query(SeriesKey.of("m", node="a"), 0, 10)
        np.testing.assert_array_equal(values, [5.0, 6.0])
        assert coll.samples_ingested == 2
        assert coll.commits == 1

    def test_lag_is_batch_max_not_last_sample(self):
        eng = Engine()
        store = TimeSeriesStore()
        coll = Collector(eng, store, ingest_latency=1.0)
        # oldest sample is first: lag must reflect it, not the newest
        eng.schedule(2.0, coll.submit, _batch(store, "m", [0.0, 2.0], [1.0, 2.0]))
        eng.run(until=5.0)
        assert coll.latest_arrival_lag == pytest.approx(3.0)  # 3.0 - 0.0
        assert coll.samples_ingested == 2

    def test_commit_interval_coalesces_submissions(self):
        eng = Engine()
        store = TimeSeriesStore()
        coll = Collector(eng, store, ingest_latency=0.1, commit_interval_s=10.0)
        eng.schedule(0.0, coll.submit, _batch(store, "m", [0.0], [1.0]))
        eng.schedule(5.0, coll.submit, _batch(store, "m", [5.0], [2.0]))
        eng.run(until=9.0)
        assert store.total_inserts == 0  # still pending
        eng.run(until=11.0)
        assert store.total_inserts == 2
        assert coll.commits == 1  # one bulk append for both submissions
        assert coll.batches_received == 2

    def test_flush_drains_pending(self):
        eng = Engine()
        store = TimeSeriesStore()
        coll = Collector(eng, store, commit_interval_s=100.0)
        coll.submit(_batch(store, "m", [0.0], [1.0]))
        assert store.total_inserts == 0
        coll.flush()
        assert store.total_inserts == 1


class TestAggregatorBatchLoss:
    def test_dropped_batch_counters(self):
        eng = Engine()
        store = TimeSeriesStore()
        coll = Collector(eng, store)
        rng = RngRegistry(seed=5).stream("loss")
        agg = Aggregator(eng, coll, forward_latency=0.0, loss_prob=1.0, rng=rng)
        agg.submit(_batch(store, "m", [0.0, 1.0, 2.0], [1.0, 2.0, 3.0]))
        assert agg.batches_lost == 1
        assert agg.samples_lost == 3
        assert agg.bytes_lost == 3 * SAMPLE_WIRE_BYTES
        assert agg.batches_forwarded == 0
        assert agg.bytes_forwarded == 0
        assert store.cardinality() == 0

    def test_loss_and_forward_accounting_balance(self):
        eng = Engine()
        store = TimeSeriesStore()
        coll = Collector(eng, store)
        rng = RngRegistry(seed=8).stream("loss")
        agg = Aggregator(eng, coll, forward_latency=0.0, loss_prob=0.5, rng=rng)
        total = 0
        for i in range(200):
            agg.submit(_batch(store, "m", [float(i)], [1.0]))
            total += 1
        assert agg.batches_lost + agg.batches_received == total
        assert agg.samples_lost + agg.samples_forwarded == total
        assert agg.bytes_lost + agg.bytes_forwarded == total * SAMPLE_WIRE_BYTES
        assert 20 < agg.batches_lost < 180  # both outcomes actually happened

    def test_empty_batch_forwarded_harmlessly(self):
        eng = Engine()
        store = TimeSeriesStore()
        coll = Collector(eng, store)
        agg = Aggregator(eng, coll, forward_latency=0.0)
        agg.submit(SampleBatch.empty())
        assert agg.batches_forwarded == 1
        assert agg.samples_forwarded == 0
        assert store.total_inserts == 0

    def test_hop_coalesces_same_window_batches(self):
        eng = Engine()
        store = TimeSeriesStore()
        coll = Collector(eng, store)
        agg = Aggregator(eng, coll, forward_latency=0.5)
        eng.schedule(0.0, agg.submit, _batch(store, "m", [0.0], [1.0], node="a"))
        eng.schedule(0.0, agg.submit, _batch(store, "m", [0.0], [2.0], node="b"))
        eng.run(until=1.0)
        assert agg.batches_received == 2
        assert agg.batches_forwarded == 1  # one concatenated hop message
        assert agg.samples_forwarded == 2
        assert store.total_inserts == 2

    def test_multi_level_fan_in_deep_topology(self):
        """leaf aggregators -> mid aggregator -> root, batches all the way."""
        eng = Engine()
        store = TimeSeriesStore()
        coll = Collector(eng, store, ingest_latency=0.1)
        mid = Aggregator(eng, coll, forward_latency=0.1, name="mid")
        leaves = [
            Aggregator(eng, mid, forward_latency=0.1, name=f"leaf-{i}") for i in range(4)
        ]
        for i, leaf in enumerate(leaves):
            eng.schedule(
                0.0, leaf.submit, _batch(store, "m", [0.0, 1.0], [1.0, 2.0], node=f"n{i}")
            )
        eng.run(until=2.0)
        # every leaf forwarded one batch; mid coalesced all four into one
        assert all(leaf.batches_forwarded == 1 for leaf in leaves)
        assert mid.batches_received == 4
        assert mid.batches_forwarded == 1
        assert mid.samples_forwarded == 8
        assert store.total_inserts == 8
        assert store.cardinality() == 4
        for i in range(4):
            _, values = store.query(SeriesKey.of("m", node=f"n{i}"), 0, 10)
            np.testing.assert_array_equal(values, [1.0, 2.0])


class TestCollectionPipeline:
    def test_end_to_end(self):
        eng = Engine()
        store = TimeSeriesStore()
        pipe = CollectionPipeline(eng, store, hop_latency=0.1, ingest_latency=0.1)
        aggs = pipe.build(2)
        k = SeriesKey.of("node_power_watts", node="n0")
        group = SamplingGroup(eng, aggs[0], period=1.0)
        group.add_bank(SensorBank([k], lambda now: np.array([400.0]), registry=pipe.registry))
        group.start()
        eng.run(until=5.5)
        times, values = store.query(k, 0, 10)
        assert times.size == 6
        assert np.all(values == 400.0)
        assert pipe.end_to_end_latency == pytest.approx(0.2)
        assert pipe.total_bytes() > 0

    def test_build_rejects_zero_groups(self):
        eng = Engine()
        pipe = CollectionPipeline(eng, TimeSeriesStore())
        with pytest.raises(ValueError):
            pipe.build(0)

"""Aggregation-tree backpressure: bounded per-hop queues, drop accounting.

Tail-drop semantics under test (same rule at the root collector and at
every aggregator hop): once a coalescing/forwarding window holds
``max_pending_samples``, arriving submissions bounce *whole* — but a
single oversized submission into an empty window is still accepted, or
it could never drain.  Drops are a distinct signal from random network
loss, and the immediate (non-windowed) paths never drop.
"""

import numpy as np
import pytest

from repro.sim import Engine
from repro.telemetry.collector import (
    SAMPLE_WIRE_BYTES,
    Aggregator,
    CollectionPipeline,
    Collector,
)
from repro.telemetry.batch import SampleBatch
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore


class _ListSink:
    def __init__(self):
        self.batches = []

    def submit(self, samples):
        self.batches.append(samples)


def _samples(n, t0=0.0, store=None):
    """``n`` points of one series from ``t0``, 1 ms apart; pass the
    ``store`` the batch will commit into so its series id is interned."""
    sid = store.registry.id_for(SeriesKey.of("m")) if store is not None else 0
    return SampleBatch(
        np.full(n, sid, dtype=np.int64), t0 + 0.001 * np.arange(n), np.arange(n, dtype=float)
    )


class TestCollectorBackpressure:
    def test_full_window_bounces_whole_submission(self):
        eng = Engine()
        col = Collector(
            eng, TimeSeriesStore(), commit_interval_s=1.0, max_pending_samples=4
        )
        col.submit(_samples(3))
        col.submit(_samples(2))  # 3 < 4: accepted, window now holds 5
        col.submit(_samples(2))  # 5 >= 4: bounced whole
        assert col.batches_received == 2
        assert col.dropped_batches == 1
        assert col.dropped_samples == 2
        assert col.dropped_bytes == 2 * SAMPLE_WIRE_BYTES
        stats = col.stats()
        assert stats["dropped_samples"] == 2.0
        assert stats["pending_samples"] == 5.0

    def test_flush_reopens_the_window(self):
        eng = Engine()
        store = TimeSeriesStore()
        col = Collector(eng, store, commit_interval_s=1.0, max_pending_samples=4)
        col.submit(_samples(5, t0=0.0, store=store))  # oversized into empty window: accepted
        col.submit(_samples(1, t0=1.0))  # bounced
        assert col.dropped_samples == 1
        eng.run(until=2.0)  # interval flush drains the window
        assert col.stats()["pending_samples"] == 0.0
        assert col.samples_ingested == 5
        col.submit(_samples(1, t0=2.5))  # accepted again
        assert col.dropped_samples == 1

    def test_unbounded_by_default(self):
        eng = Engine()
        col = Collector(eng, TimeSeriesStore(), commit_interval_s=1.0)
        for _ in range(50):
            col.submit(_samples(100))
        assert col.dropped_samples == 0

    def test_immediate_path_never_drops(self):
        # without coalescing there is no queue to bound: the cap is inert
        eng = Engine()
        store = TimeSeriesStore()
        col = Collector(eng, store, max_pending_samples=1)
        col.submit(_samples(5, t0=0.0, store=store))
        col.submit(_samples(5, t0=1.0, store=store))
        assert col.dropped_samples == 0
        assert col.samples_ingested == 10

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="max_pending_samples"):
            Collector(Engine(), TimeSeriesStore(), max_pending_samples=0)


class TestAggregatorBackpressure:
    def test_full_window_bounces_whole_submission(self):
        eng = Engine()
        sink = _ListSink()
        agg = Aggregator(eng, sink, forward_latency=0.5, max_pending_samples=3)
        agg.submit(_samples(3))
        agg.submit(_samples(2))  # 3 >= 3: bounced
        assert agg.batches_received == 1
        assert agg.dropped_batches == 1
        assert agg.dropped_samples == 2
        assert agg.dropped_bytes == 2 * SAMPLE_WIRE_BYTES
        eng.run(until=1.0)
        assert agg.samples_forwarded == 3
        assert len(sink.batches) == 1
        # the drained window accepts again
        agg.submit(_samples(1))
        assert agg.dropped_batches == 1

    def test_zero_latency_path_never_drops(self):
        eng = Engine()
        sink = _ListSink()
        agg = Aggregator(eng, sink, forward_latency=0.0, max_pending_samples=1)
        for _ in range(5):
            agg.submit(_samples(4))
        assert agg.dropped_samples == 0
        assert agg.samples_forwarded == 20

    def test_loss_is_checked_before_the_queue(self):
        # a lost batch is network loss, not backpressure: it must land in
        # the loss counters even when the window is already full
        eng = Engine()
        agg = Aggregator(
            eng, _ListSink(), forward_latency=0.5, max_pending_samples=1,
            loss_prob=1.0, rng=np.random.default_rng(0),
        )
        agg.submit(_samples(2))
        assert agg.batches_lost == 1
        assert agg.samples_lost == 2
        assert agg.dropped_samples == 0

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="max_pending_samples"):
            Aggregator(Engine(), _ListSink(), max_pending_samples=-1)


class TestPipelineBackpressure:
    def test_tree_wide_drop_accounting(self):
        eng = Engine()
        pipe = CollectionPipeline(
            eng,
            TimeSeriesStore(),
            hop_latency=0.5,
            ingest_latency=0.1,
            commit_interval_s=1.0,
            max_pending_samples=100,
            hop_max_pending_samples=3,
        )
        hops = pipe.build(n_groups=2)
        for agg in hops:
            agg.submit(_samples(3))
            agg.submit(_samples(2))  # bounced at each hop
        assert pipe.total_dropped_samples() == 4
        stats = pipe.stats()
        assert set(stats) == {"root", "hops"}
        assert stats["hops"]["dropped_samples"] == 4.0
        assert stats["hops"]["dropped_batches"] == 2.0
        assert stats["root"]["dropped_samples"] == 0.0

    def test_root_cap_reached_through_hops(self):
        eng = Engine()
        pipe = CollectionPipeline(
            eng,
            TimeSeriesStore(),
            hop_latency=0.0,  # hops forward straight into the root window
            ingest_latency=0.0,
            commit_interval_s=10.0,
            max_pending_samples=5,
        )
        (agg,) = pipe.build(n_groups=1)
        agg.submit(_samples(5, t0=0.0))
        agg.submit(_samples(2, t0=1.0))  # root window full: dropped at root
        assert pipe.root.dropped_samples == 2
        assert pipe.total_dropped_samples() == 2

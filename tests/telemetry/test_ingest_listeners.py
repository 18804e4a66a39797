"""Ingest-listener edge cases.

The listener seam is load-bearing for the standing-query engine and the
listener-driven rollup folds: these tests pin the commit protocol —
listeners fire after the epoch bump, zero-sample commits are inert, and
a throwing listener cannot leave the store's epoch bookkeeping out of
sync with the data it describes.
"""

import numpy as np
import pytest

from repro.query import MetricQuery, QueryEngine, evaluate_naive
from repro.query.standing import StandingQueryEngine
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore


class Recorder:
    def __init__(self):
        self.calls = []

    def __call__(self, ids, times, values):
        self.calls.append((ids.copy(), times.copy(), values.copy()))


def test_listener_receives_every_write_path():
    store = TimeSeriesStore(default_capacity=64)
    rec = Recorder()
    store.add_ingest_listener(rec)
    k0 = SeriesKey.of("m", node="n0")
    k1 = SeriesKey.of("m", node="n1")
    store.insert(k0, 1.0, 10.0)
    store.insert_batch(k0, np.array([2.0, 3.0]), np.array([1.0, 2.0]))
    ids = np.array([store.registry.id_for(k1)] * 2, dtype=np.int64)
    store.append_batch(ids, np.array([1.0, 2.0]), np.array([5.0, 6.0]))
    assert len(rec.calls) == 3
    total = sum(c[1].size for c in rec.calls)
    assert total == 5


def test_zero_sample_commit_is_inert():
    """An empty batch commits nothing: no epoch bump, no listener call."""
    store = TimeSeriesStore(default_capacity=64)
    rec = Recorder()
    store.add_ingest_listener(rec)
    key = SeriesKey.of("m", node="n0")
    store.insert_batch(key, np.array([1.0]), np.array([1.0]))
    epoch = store.metric_epoch("m")
    store.insert_batch(key, np.empty(0), np.empty(0))
    assert store.metric_epoch("m") == epoch
    assert len(rec.calls) == 1


def test_listener_exception_does_not_corrupt_epochs():
    """A throwing listener surfaces its error but the commit it observed
    is already durable: data written, epoch bumped exactly once, and the
    next (listener-free) write sees consistent bookkeeping."""
    store = TimeSeriesStore(default_capacity=64)
    boom = {"armed": True}

    def bad_listener(ids, times, values):
        if boom["armed"]:
            raise RuntimeError("listener exploded")

    store.add_ingest_listener(bad_listener)
    key = SeriesKey.of("m", node="n0")
    with pytest.raises(RuntimeError):
        store.insert_batch(key, np.array([1.0, 2.0]), np.array([5.0, 6.0]))
    # commit preceded notification: the samples and the epoch both landed
    assert store.metric_epoch("m") == 1
    times, values = store.query(key, 0.0, 10.0)
    np.testing.assert_array_equal(times, [1.0, 2.0])
    boom["armed"] = False
    store.insert_batch(key, np.array([3.0]), np.array([7.0]))
    assert store.metric_epoch("m") == 2
    qe = QueryEngine(store, enable_cache=False)
    q = MetricQuery("m", agg="sum", range_s=10.0, step_s=5.0)
    got = qe.query(q, at=5.0)
    want = evaluate_naive(store, q, at=5.0)
    for a, b in zip(got.series, want.series):
        np.testing.assert_allclose(a.values, b.values)


def test_listener_exception_does_not_corrupt_standing_reads():
    """Standing state keyed on (epoch, generation) stays coherent when a
    *later* listener throws: the standing provider (registered first)
    already folded the commit the epoch describes."""
    store = TimeSeriesStore(default_capacity=4096)
    qe = QueryEngine(store, enable_cache=False)
    st = StandingQueryEngine(qe)
    q = MetricQuery("m", agg="mean", range_s=100.0, step_s=10.0)
    assert st.register(q)

    def bad_listener(ids, times, values):
        raise RuntimeError("listener exploded")

    store.add_ingest_listener(bad_listener)
    key = SeriesKey.of("m", node="n0")
    with pytest.raises(RuntimeError):
        store.insert_batch(key, np.arange(1.0, 50.0, 5.0), np.ones(10))
    got = st.query(q, at=50.0)
    assert got is not None and got.source == "standing"
    want = qe.query(q, at=50.0)
    for a, b in zip(got.series, want.series):
        np.testing.assert_allclose(a.values, b.values, rtol=1e-9)


def test_commit_straddling_ring_eviction_stays_exact():
    """Commits that wrap a small ring do not disturb standing state.

    The grid's bin ring is independent of the raw ring: while commits
    evict the raw tail, standing reads inside the bin ring must equal a
    brute-force oracle over the *full* history (kept in a large
    reference store), and the batch engine stitches rollup tiers under
    what the raw ring lost.
    """
    small = TimeSeriesStore(default_capacity=48)
    reference = TimeSeriesStore(default_capacity=100_000)
    [rollups] = small.create_tiersets((10.0,))
    qe = QueryEngine(small, enable_cache=False)
    st = StandingQueryEngine(qe)
    q = MetricQuery("m", agg="sum", range_s=100.0, step_s=10.0, group_by=("node",))
    assert st.register(q)
    rng = np.random.default_rng(5)
    keys = [SeriesKey.of("m", node=f"n{i}") for i in range(3)]
    t = 0.0
    for _ in range(12):  # 12 commits x 20 samples vs capacity 48: wraps repeatedly
        for k in keys:
            ts = t + np.sort(rng.uniform(0.0, 25.0, size=20))
            vs = rng.normal(1.0, 0.2, size=20)
            small.insert_batch(k, ts, vs)
            reference.insert_batch(k, ts, vs)
        t += 25.0
        rollups.fold(t)
        got = st.query(q, at=t)
        assert got is not None and got.source == "standing"
        want = evaluate_naive(reference, q, at=t)
        assert len(got.series) == len(want.series)
        for a, b in zip(got.series, want.series):
            assert a.labels == b.labels
            np.testing.assert_allclose(a.times, b.times, rtol=0, atol=1e-9)
            np.testing.assert_allclose(a.values, b.values, rtol=1e-9, atol=1e-9)
    assert st.stats()["scan_fallbacks"] == 0.0

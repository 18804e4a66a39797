"""Instant queries served from rollup tiers once raw data ages out.

Ring buffers overwrite oldest; rollup rows persist.  A single-series
instant query whose window the ring no longer covers used to return
empty — now the engine answers it from the finest tier whose bins lie
fully inside the window.  Raw-served behavior must be unchanged.
"""

import numpy as np
import pytest

from repro.query import MetricQuery, QueryEngine
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

KEY = SeriesKey.of("m", node="n0")


def aged_store(capacity=32, points=400, period=1.0, res=10.0):
    """A store whose ring wrapped far past the early samples, with
    tier rows folded continuously (so they retain the aged-out data)."""
    store = TimeSeriesStore(default_capacity=capacity)
    [rollups] = store.create_tiersets((res, 5 * res))
    for i in range(points):
        store.insert(KEY, i * period, float(i))
        if i % 10 == 9:
            rollups.fold(i * period)
    return store, rollups


@pytest.mark.parametrize("agg,expected", [
    ("mean", np.mean), ("sum", np.sum), ("min", np.min), ("max", np.max),
    ("count", lambda v: v.size), ("last", lambda v: v[-1]),
])
def test_aged_out_window_served_from_tier(agg, expected):
    store, rollups = aged_store()
    qe = QueryEngine(store, enable_cache=False)
    # window [100, 200]: raw ring holds only ~[368, 399] by now
    q = MetricQuery("m", agg=agg, range_s=100.0)
    result = qe.query(q, at=200.0)
    assert result.source.startswith("rollup:")
    # fully-contained bins cover [100, 200): values 100..199
    truth = np.arange(100.0, 200.0)
    assert result.series[0].values[0] == pytest.approx(float(expected(truth)))


def test_raw_covered_window_still_served_raw():
    store, rollups = aged_store()
    qe = QueryEngine(store, enable_cache=False)
    q = MetricQuery("m", agg="mean", range_s=20.0)
    result = qe.query(q, at=395.0)  # ring still holds this window
    assert result.source == "raw"
    t, v = store.query(KEY, 375.0, 395.0)
    assert result.series[0].values[0] == pytest.approx(float(np.mean(v)))


def test_window_with_no_data_stays_empty():
    store, rollups = aged_store()
    qe = QueryEngine(store, enable_cache=False)
    # window entirely before the first sample: no rows, no raw
    q = MetricQuery("m", agg="mean", range_s=50.0)
    result = qe.query(q, at=-100.0)
    assert not result.series


def test_no_rollups_keeps_empty_answer():
    store = TimeSeriesStore(default_capacity=32)
    for i in range(400):
        store.insert(KEY, float(i), float(i))
    qe = QueryEngine(store, enable_cache=False)
    q = MetricQuery("m", agg="mean", range_s=100.0)
    assert not qe.query(q, at=200.0).series


def test_percentiles_not_served_from_tiers():
    store, rollups = aged_store()
    qe = QueryEngine(store, enable_cache=False)
    q = MetricQuery("m", agg="p95", range_s=100.0)
    assert not qe.query(q, at=200.0).series  # needs the raw distribution


def test_multi_series_groups_not_served_from_tiers():
    store = TimeSeriesStore(default_capacity=32)
    [rollups] = store.create_tiersets((10.0,))
    other = SeriesKey.of("m", node="n1")
    for i in range(400):
        store.insert(KEY, float(i), float(i))
        store.insert(other, float(i), float(i))
        if i % 10 == 9:
            rollups.fold(float(i))
    qe = QueryEngine(store, enable_cache=False)
    q = MetricQuery("m", agg="mean", range_s=100.0)  # pools both series
    assert not qe.query(q, at=200.0).series
    # but grouped singletons qualify
    grouped = MetricQuery("m", agg="mean", range_s=100.0, group_by=("node",))
    result = qe.query(grouped, at=200.0)
    assert len(result.series) == 2
    assert result.source.startswith("rollup:")


def test_tier_served_instant_results_cache_correctly():
    store, rollups = aged_store()
    qe = QueryEngine(store)
    q = MetricQuery("m", agg="last", range_s=100.0)
    first = qe.query(q, at=200.0)
    assert first.source.startswith("rollup:")
    assert qe.query(q, at=200.0).source == "cache"


def test_fold_without_commit_invalidates_cached_instant():
    """Instant results now depend on fold state: a fold that lands with
    no intervening commit must not keep serving the pre-fold answer."""
    store = TimeSeriesStore(default_capacity=32)
    [rollups] = store.create_tiersets((10.0,))
    for i in range(200):
        store.insert(KEY, float(i), float(i))
        if i == 99:
            rollups.fold(100.0)  # [110, 160] still unfolded after this
    qe = QueryEngine(store)
    q = MetricQuery("m", agg="mean", range_s=50.0)
    empty = qe.query(q, at=160.0)  # aged out of the ring, not yet folded
    assert not empty.series
    rollups.fold(200.0)  # periodic fold task, no new commits
    refolded = qe.query(q, at=160.0)
    assert refolded.source.startswith("rollup:")
    assert refolded.series  # not the stale cached empty result
    assert refolded.series[0].values[0] == pytest.approx(np.mean(np.arange(110.0, 160.0)))

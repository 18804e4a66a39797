"""Query fusion (widen/narrow) exactness and the raw samples API."""

import dataclasses

import numpy as np
import pytest

from repro.core.runtime import QueryHub
from repro.query.engine import QueryEngine
from repro.query.fuse import fusable, narrow_result, widen
from repro.query.model import LabelMatcher, MetricQuery
from repro.query.parser import parse_query
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore


def _store(n_nodes=8, points=50, period=10.0):
    store = TimeSeriesStore()
    rng = np.random.default_rng(42)
    times = np.arange(points) * period
    for i in range(n_nodes):
        store.insert_batch(
            SeriesKey.of("util", node=f"n{i:02d}", rack=f"r{i % 2}"),
            times,
            rng.uniform(0.0, 1.0, size=points),
        )
    return store


class TestFusable:
    def test_requires_matchers(self):
        assert not fusable(parse_query("mean(util[100s]) group by (node)"))

    def test_matcher_label_must_be_grouped(self):
        assert not fusable(parse_query('mean(util{node=~"n0.*"}[100s])'))
        assert fusable(parse_query('mean(util{node=~"n0.*"}[100s]) group by (node)'))

    def test_mixed_labels(self):
        q = parse_query('mean(util{node=~"n0.*",rack="r0"}[100s]) group by (node)')
        assert not fusable(q)  # rack matched but not grouped
        q = parse_query('mean(util{node=~"n0.*",rack="r0"}[100s]) group by (node,rack)')
        assert fusable(q)

    def test_widen_drops_matchers_only(self):
        q = parse_query('p95(util{node=~"n0.*"}[100s] by 10s) group by (node)')
        w = widen(q)
        assert w.matchers == ()
        assert (w.metric, w.agg, w.range_s, w.step_s, w.group_by) == (
            q.metric, q.agg, q.range_s, q.step_s, q.group_by,
        )


AGGS = pytest.mark.parametrize("agg", ["mean", "sum", "max", "count", "last", "p95"])
EXPRS = pytest.mark.parametrize(
    "expr_tpl",
    [
        'AGG(util{node=~"n0[0-3]"}[300s] by 30s) group by (node)',
        'AGG(util{node=~"n0[0-3]"}[300s]) group by (node)',
        'AGG(util{rack="r1"}[200s] by 50s) group by (rack,node)',
    ],
)


def assert_same_series(a, b):
    assert len(a.series) == len(b.series)
    for x, y in zip(a.series, b.series):
        assert x.labels == y.labels
        np.testing.assert_array_equal(x.times, y.times)
        np.testing.assert_array_equal(x.values, y.values)


class TestNarrowExactness:
    @AGGS
    @EXPRS
    def test_narrowed_equals_direct(self, agg, expr_tpl):
        store = _store()
        engine = QueryEngine(store, enable_cache=False)
        q = parse_query(expr_tpl.replace("AGG", agg))
        assert fusable(q)
        direct = engine.query(q, at=500.0)
        fused = narrow_result(q, engine.query(widen(q), at=500.0))
        assert_same_series(direct, fused)

    @AGGS
    @EXPRS
    def test_hub_read_equals_direct(self, agg, expr_tpl):
        """A hub read the tick shares is narrowed from the widened
        result — bit for bit the direct answer."""
        store = _store()
        hub = QueryHub(QueryEngine(store))
        q = parse_query(expr_tpl.replace("AGG", agg))
        other = dataclasses.replace(q, matchers=(LabelMatcher("node", "=", "n07"),))
        hub.query(other, at=500.0)  # the tick's first reader, alone
        got = hub.query(q, at=500.0)
        assert hub.fused_served == 1 and got.source.startswith("fused+")
        assert_same_series(QueryEngine(store, enable_cache=False).query(q, at=500.0), got)

    def test_no_match_yields_empty(self):
        store = _store()
        engine = QueryEngine(store, enable_cache=False)
        q = parse_query('mean(util{node="absent"}[300s]) group by (node)')
        fused = narrow_result(q, engine.query(widen(q), at=500.0))
        assert fused.series == ()

    def test_source_tagged(self):
        store = _store()
        engine = QueryEngine(store, enable_cache=False)
        q = parse_query('mean(util{node="n00"}[300s]) group by (node)')
        fused = narrow_result(q, engine.query(widen(q), at=500.0))
        assert fused.source.startswith("fused+")


class TestSamples:
    def test_cursor_semantics(self):
        store = TimeSeriesStore()
        key = SeriesKey.of("steps", job="j1")
        for t in (10.0, 20.0, 30.0, 40.0):
            store.insert(key, t, t * 2)
        engine = QueryEngine(store, enable_cache=False)
        q = parse_query('last(steps{job="j1"})')
        times, values = engine.samples(q, at=100.0)
        np.testing.assert_array_equal(times, [10.0, 20.0, 30.0, 40.0])
        # since is exclusive
        times, values = engine.samples(q, at=100.0, since=20.0)
        np.testing.assert_array_equal(times, [30.0, 40.0])
        np.testing.assert_array_equal(values, [60.0, 80.0])
        times, _ = engine.samples(q, at=100.0, since=40.0)
        assert times.size == 0

    def test_pooled_across_series_sorted(self):
        store = TimeSeriesStore()
        store.insert_batch(SeriesKey.of("m", s="a"), np.array([1.0, 3.0]), np.array([1.0, 3.0]))
        store.insert_batch(SeriesKey.of("m", s="b"), np.array([2.0, 4.0]), np.array([2.0, 4.0]))
        engine = QueryEngine(store, enable_cache=False)
        times, values = engine.samples(parse_query("last(m)"), at=10.0)
        np.testing.assert_array_equal(times, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(values, [1.0, 2.0, 3.0, 4.0])

    def test_range_window_floor(self):
        store = TimeSeriesStore()
        key = SeriesKey.of("m")
        for t in (10.0, 50.0, 90.0):
            store.insert(key, t, t)
        engine = QueryEngine(store, enable_cache=False)
        times, _ = engine.samples(parse_query("last(m[50s])"), at=100.0)
        np.testing.assert_array_equal(times, [50.0, 90.0])


class TestSelectionCache:
    def test_select_memo_tracks_new_series(self):
        store = _store(n_nodes=2)
        engine = QueryEngine(store, enable_cache=False)
        q = MetricQuery("util", matchers=(LabelMatcher("node", "=~", "n.*"),))
        assert len(engine.select(q)) == 2
        store.insert(SeriesKey.of("util", node="n99"), 1000.0, 0.5)
        assert len(engine.select(q)) == 3  # generation bump invalidates memo

"""Tests for the query engine: selection, execution, caching, sources."""

import numpy as np
import pytest

from repro.query import QueryEngine, evaluate_naive, parse_query
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore


def make_store(n_nodes=4, points=200, seed=0):
    rng = np.random.default_rng(seed)
    store = TimeSeriesStore(default_capacity=4096)
    for i in range(n_nodes):
        key = SeriesKey.of("node_cpu_util", node=f"n{i}", rack=f"r{i % 2}")
        times = np.sort(rng.uniform(0, 600, size=points))
        store.insert_batch(key, times, rng.uniform(0, 1, size=points))
    return store


class TestSelection:
    def test_exact_and_regex_matchers(self):
        store = make_store()
        qe = QueryEngine(store)
        assert len(qe.select(parse_query('mean(node_cpu_util{node="n1"})'))) == 1
        assert len(qe.select(parse_query('mean(node_cpu_util{node=~"n[01]"})'))) == 2
        assert len(qe.select(parse_query('mean(node_cpu_util{rack!="r0"})'))) == 2
        assert len(qe.select(parse_query("mean(node_cpu_util)"))) == 4
        assert qe.select(parse_query("mean(unknown_metric)")) == []


class TestExecution:
    def test_instant_mean_matches_store_aggregate(self):
        store = make_store()
        qe = QueryEngine(store)
        got = qe.scalar("mean(node_cpu_util[600s])", at=600.0)
        want = evaluate_naive(store, parse_query("mean(node_cpu_util[600s])"), at=600.0)
        assert got == pytest.approx(want.scalar())

    def test_group_by_splits_series(self):
        store = make_store()
        qe = QueryEngine(store)
        r = qe.query("mean(node_cpu_util[600s]) group by (rack)", at=600.0)
        assert [s.labels for s in r.series] == [
            (("rack", "r0"),),
            (("rack", "r1"),),
        ]

    def test_scalar_requires_single_series(self):
        store = make_store()
        qe = QueryEngine(store)
        with pytest.raises(ValueError, match="scalar"):
            qe.scalar("mean(node_cpu_util[600s]) group by (node)", at=600.0)

    def test_no_data_returns_empty(self):
        qe = QueryEngine(TimeSeriesStore())
        r = qe.query("mean(node_cpu_util[60s])", at=100.0)
        assert r.series == ()
        assert r.scalar() is None

    def test_range_query_bins_on_absolute_grid(self):
        store = TimeSeriesStore()
        key = SeriesKey.of("m", node="a")
        store.insert_batch(key, np.arange(0.0, 100.0), np.ones(100))
        qe = QueryEngine(store)
        r = qe.query("count(m[45s] by 30s)", at=95.0)
        # window [50, 95] covers grid bins 30-60-90
        np.testing.assert_array_equal(r.series[0].times, [30.0, 60.0, 90.0])
        np.testing.assert_array_equal(r.series[0].values, [30.0, 30.0, 10.0])

    def test_rate_sums_across_series(self):
        store = TimeSeriesStore()
        for node in ("a", "b"):
            key = SeriesKey.of("ctr", node=node)
            times = np.arange(0.0, 100.0, 10.0)
            store.insert_batch(key, times, times * 2.0)  # 2 units/s each
        qe = QueryEngine(store)
        assert qe.scalar("rate(ctr[90s])", at=90.0) == pytest.approx(4.0)

    def test_rate_handles_counter_reset(self):
        store = TimeSeriesStore()
        key = SeriesKey.of("ctr")
        store.insert_batch(
            key, np.array([0.0, 10.0, 20.0, 30.0]), np.array([0.0, 100.0, 10.0, 110.0])
        )
        qe = QueryEngine(store)
        # increases: 100, 10 (reset), 100 -> 210 over 30s
        assert qe.scalar("rate(ctr[30s])", at=30.0) == pytest.approx(210.0 / 30.0)

    def test_result_arrays_frozen(self):
        store = make_store()
        qe = QueryEngine(store)
        r = qe.query("mean(node_cpu_util[600s] by 60s)", at=600.0)
        with pytest.raises(ValueError):
            r.series[0].values[0] = 0.0


class TestCacheIntegration:
    def test_repeat_query_hits_cache(self):
        store = make_store()
        qe = QueryEngine(store)
        r1 = qe.query("mean(node_cpu_util[600s] by 60s)", at=600.0)
        r2 = qe.query("mean(node_cpu_util[600s] by 60s)", at=600.0)
        assert r1.source == "raw"
        assert r2.source == "cache"
        np.testing.assert_array_equal(r1.series[0].values, r2.series[0].values)
        assert qe.cache.hits == 1

    def test_window_quantization_shares_entries(self):
        store = make_store()
        qe = QueryEngine(store)
        qe.query("mean(node_cpu_util[600s] by 60s)", at=600.0)
        r = qe.query("mean(node_cpu_util[600s] by 60s)", at=601.0)  # same 60s quantum
        assert r.source == "cache"

    def test_different_windows_miss(self):
        store = make_store()
        qe = QueryEngine(store)
        qe.query("mean(node_cpu_util[600s] by 60s)", at=600.0)
        r = qe.query("mean(node_cpu_util[600s] by 60s)", at=665.0)
        assert r.source != "cache"

    def test_cache_disabled(self):
        store = make_store()
        qe = QueryEngine(store, enable_cache=False)
        qe.query("mean(node_cpu_util[600s])", at=600.0)
        r = qe.query("mean(node_cpu_util[600s])", at=600.0)
        assert r.source == "raw"

    def test_commit_invalidates_instant_queries(self):
        """Regression: an instant query re-issued inside the same quantum
        after a commit must see the new sample, not the cached tail."""
        store = TimeSeriesStore()
        key = SeriesKey.of("m")
        store.insert(key, 0.0, 1.0)
        qe = QueryEngine(store, instant_quantum_s=1000.0)
        assert qe.query("last(m)", at=100.0).scalar() == 1.0
        store.insert(key, 50.0, 42.0)  # lands inside the cached window
        r = qe.query("last(m)", at=100.0)  # same quantum as the first query
        assert r.source != "cache"
        assert r.scalar() == 42.0

    def test_commit_invalidates_range_queries(self):
        store = make_store()
        qe = QueryEngine(store)
        r1 = qe.query("count(node_cpu_util[600s] by 60s)", at=600.0)
        sid = store.registry.id_for(SeriesKey.of("node_cpu_util", node="node0"))
        store.append_batch(np.array([sid]), np.array([599.0]), np.array([1.0]))
        r2 = qe.query("count(node_cpu_util[600s] by 60s)", at=600.0)
        assert r2.source != "cache"
        assert float(np.sum(r2.series[0].values)) == float(np.sum(r1.series[0].values)) + 1.0

    def test_unrelated_metric_commit_keeps_cache_warm(self):
        store = make_store()
        qe = QueryEngine(store)
        qe.query("mean(node_cpu_util[600s] by 60s)", at=600.0)
        store.insert(SeriesKey.of("other_metric"), 599.0, 1.0)
        r = qe.query("mean(node_cpu_util[600s] by 60s)", at=600.0)
        assert r.source == "cache"  # per-metric epochs: no cross-invalidation

    def test_stats_exposed(self):
        store = make_store()
        store.create_tiersets((60.0,))
        qe = QueryEngine(store)
        qe.query("mean(node_cpu_util[600s])", at=600.0)
        stats = qe.stats()
        assert stats["queries_total"] == 1.0
        assert "cache_hit_rate" in stats
        assert "rollup_folds" in stats


class TestRollupIntegration:
    def test_long_range_served_from_tier_and_exact(self):
        store = make_store(points=400)
        flat = QueryEngine(store, enable_cache=False).query(
            "mean(node_cpu_util[600s] by 60s)", at=600.0
        )
        [rollups] = store.create_tiersets((10.0, 60.0))
        rollups.fold(600.0)
        qe = QueryEngine(store, enable_cache=False)
        tiered = qe.query("mean(node_cpu_util[600s] by 60s)", at=600.0)
        assert tiered.source == "rollup:60s"
        np.testing.assert_array_equal(tiered.series[0].times, flat.series[0].times)
        np.testing.assert_allclose(tiered.series[0].values, flat.series[0].values, rtol=1e-12)

    def test_raw_tail_past_watermark_included(self):
        store = TimeSeriesStore()
        key = SeriesKey.of("m")
        store.insert_batch(key, np.arange(0.0, 100.0), np.ones(100))
        [rollups] = store.create_tiersets((10.0,))
        rollups.fold(50.0)  # watermark at 50; the rest stays raw
        store.insert_batch(key, np.arange(100.0, 130.0), np.ones(30))
        qe = QueryEngine(store, enable_cache=False)
        r = qe.query("count(m[130s] by 10s)", at=130.0)
        assert r.source == "rollup:10s"
        assert float(np.sum(r.series[0].values)) == 130.0

    def test_percentiles_stay_raw(self):
        store = make_store()
        [rollups] = store.create_tiersets((60.0,))
        rollups.fold(600.0)
        qe = QueryEngine(store, enable_cache=False)
        assert qe.query("p95(node_cpu_util[600s] by 60s)", at=600.0).source == "raw"


def test_memos_stay_bounded_and_keep_the_shape_in_use():
    """A long-running server parses every distinct ad-hoc expression: the
    engine's parse, canonical-string and plan memos are LRUs of
    ``_PLANS_MAX`` shapes, so 5 000 one-shot expressions leave them
    bounded while the dashboard shape read between them stays memoised
    (the uncached engine plans every read, the cached one keys its
    result cache by the canonical string)."""
    from repro.query import engine as engine_mod

    store = make_store(n_nodes=2, points=20)
    planning, cached = QueryEngine(store, enable_cache=False), QueryEngine(store)
    dashboard = "mean(node_cpu_util[600s] by 60s)"
    held = planning.parse(dashboard)
    plan = planning.plan(held)
    for i in range(5000):
        one_shot = f"max(node_cpu_util[{i + 1}s])"
        for qe in (planning, cached):
            qe.query(one_shot, at=600.0)
            qe.query(dashboard, at=600.0)
    for qe in (planning, cached):
        for memo in (qe._parsed, qe._exprs, qe._plans):
            assert len(memo) <= engine_mod._PLANS_MAX
    assert planning.parse(dashboard) is held
    assert planning.plan(held) is plan
    assert len(cached._exprs) == engine_mod._PLANS_MAX and held in cached._exprs

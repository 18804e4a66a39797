"""Metrics registry: instruments, stats absorption, obs_* publication."""

import numpy as np

from repro.obs import MetricsRegistry, absorb_stats, collect_metrics, route_stat
from repro.query import QueryEngine
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore


class TestInstruments:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("a.events").inc()
        reg.counter("a.events").inc(2.0)
        reg.gauge("a.depth").set(7)
        h = reg.histogram("a.wall_ms")
        h.observe(1.0)
        h.observe(3.0)
        snap = reg.snapshot()
        assert snap["a.events"] == 3.0
        assert snap["a.depth"] == 7.0
        assert snap["a.wall_ms.count"] == 2.0
        assert snap["a.wall_ms.mean"] == 2.0
        assert snap["a.wall_ms.max"] == 3.0

    def test_instruments_are_memoized_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        reg.reset()
        c = reg.counter("x")
        assert c.value == 0.0

    def test_record_skips_non_numeric_and_bools(self):
        reg = MetricsRegistry()
        reg.record("a.flag", True)
        reg.record("a.name", "hello")
        reg.record("a.value", 1.5)
        assert reg.snapshot() == {"a.value": 1.5}

    def test_snapshot_is_sorted(self):
        reg = MetricsRegistry()
        reg.gauge("z.last").set(1)
        reg.gauge("a.first").set(2)
        assert list(reg.snapshot()) == ["a.first", "z.last"]


class TestRouting:
    def test_engine_origin_splits_flat_prefixes(self):
        assert route_stat("cache_hits", "engine") == ("cache", "hits")
        assert route_stat("rollup_folds", "engine") == ("rollup", "folds")
        assert route_stat("pool_workers", "engine") == ("pool", "workers")
        assert route_stat("parallel_scatters", "engine") == ("parallel", "scatters")
        assert route_stat("standing_updates_applied", "engine") == (
            "standing", "updates_applied")
        assert route_stat("queries_total", "engine") == ("engine", "queries_total")

    def test_federation_keys_get_their_own_namespace(self):
        assert route_stat("shards", "engine") == ("federation", "shards")
        assert route_stat("fanout_mean", "engine") == ("federation", "fanout_mean")
        assert route_stat("serial_fallbacks", "engine") == ("parallel", "serial_fallbacks")
        assert route_stat("inline_by_size", "engine") == ("parallel", "inline_by_size")
        # ... also merged under the hub's engine_ prefix
        assert route_stat("engine_inline_by_size", "hub") == ("parallel", "inline_by_size")

    def test_hub_origin_keeps_own_counters_and_unwraps_merges(self):
        # hub's own standing_served is a hub counter, not a standing one
        assert route_stat("standing_served", "hub") == ("hub", "standing_served")
        assert route_stat("fused_served", "hub") == ("hub", "fused_served")
        # the hub merges engine stats under engine_ — unwrap recursively
        assert route_stat("engine_cache_hits", "hub") == ("cache", "hits")
        assert route_stat("standing_reads_served", "hub") == ("standing", "reads_served")

    def test_runtime_origin_unwraps_hub_and_arbiter(self):
        assert route_stat("hub_fused_served", "runtime") == ("hub", "fused_served")
        assert route_stat("hub_engine_cache_hits", "runtime") == ("cache", "hits")
        assert route_stat("arbiter_vetoes_total", "runtime") == ("arbiter", "vetoes_total")
        assert route_stat("iterations_total", "runtime") == ("runtime", "iterations_total")

    def test_literal_origin_passes_through(self):
        assert route_stat("workers", "pool") == ("pool", "workers")


class TestAbsorb:
    def test_absorb_stats_keeps_legacy_keys_as_aliases(self):
        reg = MetricsRegistry()
        absorb_stats(reg, {"cache_hits": 5.0, "queries_total": 9.0}, "engine")
        assert reg.snapshot() == {"cache.hits": 5.0, "engine.queries_total": 9.0}
        assert reg.alias_of("cache.hits") == "cache_hits"
        assert reg.alias_of("engine.queries_total") is None  # key == short

    def test_render_shows_aliases(self):
        reg = MetricsRegistry()
        absorb_stats(reg, {"cache_hits": 5.0}, "engine")
        assert reg.render() == ["cache.hits = 5  [cache_hits]"]

    def test_collect_metrics_from_live_engine(self):
        store = TimeSeriesStore()
        store.insert(SeriesKey.of("m", node="n0"), 1.0, 0.5)
        engine = QueryEngine(store)
        engine.query(engine.parse("mean(m[10s])"), at=5.0)
        reg = MetricsRegistry()
        out = collect_metrics(engine=engine, registry=reg)
        assert out is reg
        snap = reg.snapshot()
        assert snap["engine.queries_total"] == 1.0
        assert "cache.hits" in snap


class TestPublish:
    def test_publish_writes_obs_series_into_the_store(self):
        store = TimeSeriesStore()
        reg = MetricsRegistry()
        reg.gauge("cache.hits").set(3.0)
        reg.counter("hub.fused_served").inc(4.0)
        written = reg.publish(store, 100.0)
        assert ("obs_cache_hits", 3.0) in written
        assert ("obs_hub_fused_served", 4.0) in written
        # readable back out through the ordinary query surface
        qe = QueryEngine(store, enable_cache=False)
        assert qe.scalar("last(obs_cache_hits)", at=101.0) == 3.0

    def test_runtime_self_publishes_on_a_schedule(self):
        from repro.core.runtime import LoopRuntime, RuntimeConfig
        from repro.sim import Engine

        engine = Engine()
        store = TimeSeriesStore()
        times = np.arange(0.0, 400.0, 10.0)
        store.insert_batch(SeriesKey.of("util", node="n0"), times,
                           np.full(times.size, 0.5))
        runtime = LoopRuntime(
            engine, store, config=RuntimeConfig(obs_publish_period_s=60.0)
        )
        engine.run(until=200.0)
        runtime.stop()
        assert runtime.obs_publishes >= 3
        value = runtime.query_engine.scalar(
            "last(obs_runtime_loops)", at=engine.now
        )
        assert value is not None

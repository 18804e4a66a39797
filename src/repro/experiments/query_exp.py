"""Query-serving experiment (E13, Section IV).

Section IV frames MODA storage around insert rate *and* query cost at
high cardinality.  This experiment measures the new serving layer
directly: long-range cross-series dashboard queries executed three ways
over the same store —

* **naive** — the pre-engine idiom: per series, scan the raw window and
  aggregate bin by bin in a Python loop, then merge across series;
* **engine (cold)** — the vectorized engine over tiered rollups,
  result cache disabled;
* **engine (cached)** — the same engine with its LRU cache warm.

All three produce identical values (asserted here), so the comparison
is purely about serving cost.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.query.engine import QueryEngine
from repro.query.model import MetricQuery
from repro.sim import RngRegistry
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore


def _build_store(
    seed: int, n_series: int, horizon_s: float, sample_period_s: float
) -> TimeSeriesStore:
    rng = RngRegistry(seed=seed).stream("query-exp")
    points = int(horizon_s / sample_period_s)
    store = TimeSeriesStore(default_capacity=points + 8)
    times = np.arange(points, dtype=np.float64) * sample_period_s
    for i in range(n_series):
        values = rng.normal(100.0, 15.0, size=points)
        store.insert_batch(SeriesKey.of("m", node=f"n{i}"), times, values)
    return store


def _naive_scan(
    store: TimeSeriesStore, t0: float, t1: float, step: float
) -> Tuple[List[float], List[float]]:
    """Hand-rolled cross-series mean: per-bin Python loop over raw scans.

    This is what every caller did before the query subsystem existed —
    same absolute-grid semantics as the engine, none of the machinery.
    """
    first = math.floor(t0 / step)
    last = math.floor(t1 / step)
    grid_t0 = first * step
    n_bins = int(last - first + 1)
    sums = [0.0] * n_bins
    counts = [0] * n_bins
    for key in store.series_keys("m"):
        times, values = store.query(key, grid_t0, grid_t0 + n_bins * step)
        bins = np.floor((times - grid_t0) / step).astype(np.int64)
        for b in range(n_bins):
            mask = bins == b
            selected = values[mask & (times < grid_t0 + n_bins * step)]
            if selected.size:
                sums[b] += float(np.sum(selected))
                counts[b] += int(selected.size)
    out_t = [grid_t0 + b * step for b in range(n_bins) if counts[b]]
    out_v = [sums[b] / counts[b] for b in range(n_bins) if counts[b]]
    return out_t, out_v


def run_query_scan_comparison(
    *,
    seed: int = 0,
    n_series: int = 512,
    horizon_s: float = 40_000.0,
    sample_period_s: float = 10.0,
    range_s: float = 36_000.0,
    step_s: float = 300.0,
    rollup_resolutions: Tuple[float, ...] = (60.0, 600.0),
    n_engine_queries: int = 10,
    n_naive_queries: int = 3,
) -> Dict[str, float]:
    """Long-range query latency: naive scan vs engine (cold and cached)."""
    store = _build_store(seed, n_series, horizon_s, sample_period_s)
    store.create_tiersets(rollup_resolutions, tier_capacity=8192)[0].fold(horizon_s)

    at = horizon_s
    query = MetricQuery("m", agg="mean", range_s=range_s, step_s=step_s)

    t0 = time.perf_counter()
    for _ in range(n_naive_queries):
        naive_t, naive_v = _naive_scan(store, at - range_s, at, step_s)
    naive_ms = (time.perf_counter() - t0) / n_naive_queries * 1e3

    cold = QueryEngine(store, enable_cache=False)
    t0 = time.perf_counter()
    for _ in range(n_engine_queries):
        result = cold.query(query, at=at)
    engine_cold_ms = (time.perf_counter() - t0) / n_engine_queries * 1e3

    cached = QueryEngine(store)
    cached.query(query, at=at)  # warm the cache
    t0 = time.perf_counter()
    for _ in range(n_engine_queries):
        cached.query(query, at=at)
    engine_cached_ms = (time.perf_counter() - t0) / n_engine_queries * 1e3

    series = result.first()
    match = (
        series is not None
        and np.allclose(series.times, naive_t)
        and np.allclose(series.values, naive_v, rtol=1e-9)
    )
    return {
        "n_series": float(n_series),
        "points": float(store.total_inserts),
        "range_over_step": range_s / step_s,
        "naive_ms": naive_ms,
        "engine_cold_ms": engine_cold_ms,
        "engine_cached_ms": engine_cached_ms,
        "speedup_cold": naive_ms / engine_cold_ms,
        "speedup_cached": naive_ms / engine_cached_ms,
        "rollup_served": float(result.source.startswith("rollup")),
        "cache_hit_rate": cached.stats()["cache_hit_rate"],
        "match": float(match),
    }


def run_cache_effectiveness(
    *,
    seed: int = 0,
    n_series: int = 128,
    horizon_s: float = 7200.0,
    n_dashboards: int = 8,
    refresh_period_s: float = 30.0,
    window_s: float = 3600.0,
    step_s: float = 60.0,
) -> Dict[str, float]:
    """A dashboard fleet re-polling the same panels inside one quantum."""
    store = _build_store(seed, n_series, horizon_s, sample_period_s=10.0)
    store.create_tiersets((60.0,), tier_capacity=8192)[0].fold(horizon_s)
    qe = QueryEngine(store)
    exprs = [
        f"mean(m[{window_s:g}s] by {step_s:g}s)",
        f"max(m[{window_s:g}s] by {step_s:g}s)",
        f"p95(m[{window_s:g}s] by {step_s:g}s)",
    ]
    t0 = time.perf_counter()
    for tick in range(n_dashboards):
        at = horizon_s + tick * refresh_period_s / n_dashboards  # inside one step quantum
        for expr in exprs:
            qe.query(expr, at=at)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    stats = qe.stats()
    return {
        "queries": stats["queries_total"],
        "elapsed_ms": elapsed_ms,
        "hit_rate": stats["cache_hit_rate"],
        "rollup_served": stats["served_rollup"],
    }

"""Process-parallel shard execution experiment (E18, Section IV).

The process-parallel tier keeps the store's columns in
``multiprocessing.shared_memory`` and runs the per-place scatter/fold
passes on a persistent worker-process pool (:mod:`repro.shard.parallel`).  The gather stays the canonical
single-process lexsort/reduceat merge, so the parallel tier must be
**bit-identical** to the same engine over the serial store for every worker
count — that is asserted here and property-tested against the
single-store oracle in ``tests/shard/test_parallel.py``.  E18 measures
five things on identical data:

* **Scatter speedup** — the E16 ``group_by`` dashboard query served by
  the :class:`~repro.query.engine.QueryEngine` over a plain sharded
  store vs the same engine over a store with a live worker pool,
  dispatching per-place partial aggregation to it.  Gated ≥2.5× at 4
  workers × 8 places (4096 series) on a multi-core host.
* **Shared-memory ingest** — the identical commit stream and periodic
  folds into plain sharded rings, shared-memory rings with the pool
  *off* (the pure layout cost, gated ≤1.2×) and with the pool *live*,
  forwarding columns to its workers (commits ≥0.9×, commits plus the
  delivering folds ≥0.8× of pool-off).  Ratios of paired walls, so the
  gates run on any host.
* **Small-pass tax** — a drill-down over 8 / 64 / 512 series served in
  process vs dispatched to the pool: the round trip's cost as a ratio,
  which is what the engine's ``INLINE_SCATTER_SERIES`` election is
  calibrated against.  Gated only where it is unambiguous on any host:
  in process wins at 8 series.
* **E15 fleet rerun** — the fused watch fleet hosted once on the serial
  sharded engine and once on the parallel engine; analyzer verdicts
  must match exactly.
* **E17 supervision rerun** — the self-healing scenario supervised over
  both engines; the audited action traces must be identical and the
  parallel run must still restore staleness within 2× of healthy.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence
from unittest import mock

import numpy as np

from repro.core.runtime import RuntimeConfig
from repro.experiments.loops_exp import _run_fleet
from repro.experiments.shard_exp import (
    _fill,
    _intern,
    _paired_ingest_walls,
    _results_bit_identical,
    _series_keys,
)
from repro.experiments.supervise_exp import run_supervision_scenario
from repro.query import engine as query_engine
from repro.query.engine import QueryEngine
from repro.query.model import LabelMatcher, MetricQuery
from repro.shard import ParallelShardedStore, ShardedTimeSeriesStore


def _check_queries(at: float, step_s: float) -> List[MetricQuery]:
    """The query shapes every scatter pass must serve bit-identically."""
    return [
        MetricQuery("m", agg="mean", range_s=at, step_s=step_s, group_by=("node",)),
        MetricQuery("m", agg="sum", range_s=at, step_s=step_s),
        MetricQuery("m", agg="p95", range_s=at, step_s=step_s, group_by=("node",)),
        MetricQuery("m", agg="rate", range_s=at, step_s=step_s, group_by=("node",)),
        MetricQuery("m", agg="max", range_s=at / 2.0),
    ]


def run_parallel_scatter_benchmark(
    *,
    seed: int = 0,
    n_series: int = 4096,
    n_shards: int = 8,
    workers: int = 4,
    ticks: int = 64,
    sample_period_s: float = 10.0,
    step_s: float = 60.0,
    n_queries: int = 5,
    repeats: int = 3,
    identical_worker_counts=(1, 2, 3),
) -> Dict[str, float]:
    """Parallel vs serial federated ``group_by`` serving on identical data.

    Exactness first: for every worker count in
    ``identical_worker_counts`` plus the measured ``workers``, a fresh
    parallel store is filled *through the pool* and every check query
    (range/instant/rate/p95) plus a raw ``samples()`` read must come out
    bit-identical to the engine over the serial store — partition invariance
    extended across process boundaries.  Then the E16 dashboard query is
    timed on both engines.
    """
    rng = np.random.default_rng(seed)
    keys = _series_keys(n_series)
    base = rng.normal(100.0, 15.0, size=n_series)
    capacity = ticks + 8
    at = ticks * sample_period_s

    serial_store = ShardedTimeSeriesStore(n_shards=n_shards, default_capacity=capacity)
    _fill(serial_store, _intern(serial_store, keys), ticks, sample_period_s, base)
    serial = QueryEngine(serial_store, enable_cache=False)
    queries = _check_queries(at, step_s)
    want = [serial.query(q, at=at) for q in queries]
    want_samples = serial.samples(queries[0], at=at)

    bit_identical = True
    counts = sorted(set(tuple(identical_worker_counts) + (workers,)))
    timed_engine = None
    timed_store = None
    for w in counts:
        store = ParallelShardedStore(
            n_shards=n_shards, default_capacity=capacity, workers=w
        )
        store.start_parallel()
        _fill(store, _intern(store, keys), ticks, sample_period_s, base)
        engine = QueryEngine(store, enable_cache=False)
        for q, ref in zip(queries, want):
            if not _results_bit_identical(engine.query(q, at=at), ref):
                bit_identical = False
        pt, pv = engine.samples(queries[0], at=at)
        if not (
            np.array_equal(pt, want_samples[0]) and np.array_equal(pv, want_samples[1])
        ):
            bit_identical = False
        if engine.serial_fallbacks:
            bit_identical = False  # a fallback means the pool never ran
        if w == workers:
            timed_engine, timed_store = engine, store
        else:
            store.close()

    query = queries[0]

    def timed(engine_obj) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for q_i in range(n_queries):
                engine_obj.query(query, at=at - q_i * sample_period_s)
            best = min(best, time.perf_counter() - t0)
        return best / n_queries

    serial_s = timed(serial)
    parallel_s = timed(timed_engine)
    scatters = timed_engine.parallel_scatters
    timed_store.close()
    return {
        "n_series": float(n_series),
        "n_shards": float(n_shards),
        "workers": float(workers),
        "points": float(serial_store.total_inserts),
        "serial_query_ms": serial_s * 1e3,
        "parallel_query_ms": parallel_s * 1e3,
        "serial_queries_per_s": 1.0 / serial_s,
        "parallel_queries_per_s": 1.0 / parallel_s,
        "scatter_speedup": serial_s / parallel_s,
        "parallel_scatters": float(scatters),
        "worker_counts_checked": float(len(counts)),
        "bit_identical": float(bit_identical),
    }


def run_parallel_ingest_benchmark(
    *,
    seed: int = 0,
    n_series: int = 4096,
    n_shards: int = 8,
    workers: int = 2,
    ticks: int = 64,
    sample_period_s: float = 10.0,
    repeats: int = 3,
    fold_every: int = 16,
) -> Dict[str, float]:
    """The identical commit stream through three ingest tiers, each a
    sharded store whose rollup cascade consumes its column stream and
    folds every ``fold_every`` commits (16: the fold cadence of the repo
    benchmark's ``ingest_stream``): rings and tiers on the heap; in
    shared memory with the pool **off** (``shm_overhead``, the pure
    layout cost of commits and folds, gated ≤1.2×); and with the pool
    **live** — the parent still writes the rings, every commit is
    forwarded to the owning worker instead of the in-process folder,
    and the fold is a pool dispatch.

    Two ratios of pool-off ÷ pool-live walls price the pool.
    ``parallel_ingest_speedup`` (gated ≥0.9) is the commits alone: a
    ring scatter and one queue entry — delivery is not in it.
    ``parallel_delivery_speedup`` (gated ≥0.8) adds the folds, where the
    forwarded columns reach their consumer: copied into the column
    logs, handed over and folded inside the timed dispatch.  On one core
    the workers fold one after the other and the hand-over is pure
    overhead (≈0.95 here); real cores only help.  All walls are paired
    per fold window and stall-trimmed
    (:func:`~repro.experiments.shard_exp._paired_ingest_walls`), so
    every gate runs on any host.  The three tiers must come out
    bit-identical: rings and fold counts.
    """
    rng = np.random.default_rng(seed)
    keys = _series_keys(n_series)
    base = rng.normal(100.0, 15.0, size=n_series)
    n_commits = ticks * repeats
    fold_every = min(fold_every, n_commits)
    capacity = n_commits + 8

    resolutions = (sample_period_s * 6, sample_period_s * 36)
    serial_store = ShardedTimeSeriesStore(n_shards=n_shards, default_capacity=capacity)
    shm_store = ParallelShardedStore(
        n_shards=n_shards, default_capacity=capacity, workers=workers
    )
    parallel_store = ParallelShardedStore(
        n_shards=n_shards, default_capacity=capacity, workers=workers
    )
    parallel_store.start_parallel()
    stores = (serial_store, shm_store, parallel_store)
    engines = [
        QueryEngine.with_rollups(store, resolutions=resolutions) for store in stores
    ]
    folded = [0, 0, 0]

    def fold(which: int, now: float) -> None:
        folded[which] += engines[which].fold_rollups(now)

    try:
        walls = _paired_ingest_walls(
            stores, [_intern(store, keys) for store in stores], n_commits,
            sample_period_s, base, window=fold_every, after_window=fold,
        )
        match = folded[0] == folded[1] == folded[2] > 0
        for key in keys:
            st, sv = serial_store.query(key, -np.inf, np.inf)
            for store in (shm_store, parallel_store):
                t, v = store.query(key, -np.inf, np.inf)
                if not (np.array_equal(st, t) and np.array_equal(sv, v)):
                    match = False
        stats = parallel_store.shard_stats()
    finally:
        shm_store.close()
        parallel_store.close()

    serial_wall, shm_wall, parallel_wall = walls.sum(axis=(0, 2)).tolist()
    shm_commits, parallel_commits = walls[0, 1:].sum(axis=1).tolist()
    samples = float(n_series * fold_every * walls.shape[2])
    return {
        "n_series": float(n_series),
        "n_shards": float(n_shards),
        "workers": float(workers),
        "samples": samples,
        "serial_samples_per_s": samples / serial_wall,
        "shm_samples_per_s": samples / shm_wall,
        "parallel_samples_per_s": samples / parallel_wall,
        "shm_overhead": shm_wall / serial_wall,
        "parallel_ingest_speedup": shm_commits / parallel_commits,
        "parallel_delivery_speedup": shm_wall / parallel_wall,
        "cols_forwarded_rows": stats["cols_forwarded_rows"],
        "cols_dropped_rows": stats["cols_dropped_rows"],
        "cols_flushes": stats["cols_flushes"],
        "serial_appends": stats["serial_appends"],
        # fold passes by executor: the live pool ran all of its engine's,
        # the stopped pool's engine ran every one in process, counted
        "parallel_folds": float(engines[2].parallel_folds),
        "serial_fallbacks": float(engines[1].serial_fallbacks),
        "match": float(match),
    }


def run_small_pass_tax_benchmark(
    *,
    seed: int = 0,
    n_series: int = 1024,
    n_shards: int = 4,
    workers: int = 2,
    ticks: int = 64,
    sample_period_s: float = 10.0,
    sizes: Sequence[int] = (8, 64, 512),
    n_queries: int = 40,
) -> Dict[str, float]:
    """What the pool round trip costs a scatter pass, by selection size.

    A drill-down over ``k`` of the series — a literal node alternation,
    grouped by node, the serving benchmark's ad-hoc shape — is timed on
    a plain sharded store (the pass runs in process) and on the same
    data beside a live pool with ``INLINE_SCATTER_SERIES`` pinned to 0,
    so that every pass is dispatched whatever its size.  Each query is
    planned before it is timed and runs on both sides back to back;
    ``tax_<k>`` is the ratio of the median walls, pool ÷ in process.
    Above 1 the round trip costs more than the workers save; the size
    where it crosses 1 is what ``INLINE_SCATTER_SERIES`` is calibrated
    against, and a ratio runs on any host.
    """
    rng = np.random.default_rng(seed)
    keys = _series_keys(n_series)
    base = rng.normal(100.0, 15.0, size=n_series)
    at = ticks * sample_period_s
    nodes = np.array([key.label("node") for key in keys], dtype=object)
    serial_store = ShardedTimeSeriesStore(n_shards=n_shards, default_capacity=ticks + 8)
    pool_store = ParallelShardedStore(
        n_shards=n_shards, default_capacity=ticks + 8, workers=workers
    )
    pool_store.start_parallel()
    row = {
        "n_series": float(n_series),
        "n_shards": float(n_shards),
        "workers": float(workers),
        "inline_scatter_series": float(query_engine.INLINE_SCATTER_SERIES),
    }
    try:
        for store in (serial_store, pool_store):
            _fill(store, _intern(store, keys), ticks, sample_period_s, base)
        inline = QueryEngine(serial_store, enable_cache=False)
        pooled = QueryEngine(pool_store, enable_cache=False)
        bit_identical = True
        with mock.patch.object(query_engine, "INLINE_SCATTER_SERIES", 0):
            for k in sizes:
                queries = [
                    MetricQuery(
                        "m", agg="mean", range_s=at / 2.0, step_s=60.0, group_by=("node",),
                        matchers=(LabelMatcher(
                            "node", "=~", "|".join(rng.choice(nodes, size=k, replace=False))
                        ),),
                    )
                    for _ in range(n_queries)
                ]
                walls = np.empty((2, n_queries))
                for i, q in enumerate(queries):
                    results = []
                    for side, engine in enumerate((inline, pooled)):
                        engine.plan(q)
                        t0 = time.perf_counter()
                        results.append(engine.query(q, at=at))
                        walls[side, i] = time.perf_counter() - t0
                    bit_identical &= _results_bit_identical(*results)
                inline_s, pool_s = np.median(walls, axis=1).tolist()
                row[f"inline_us_{k}"] = inline_s * 1e6
                row[f"pool_us_{k}"] = pool_s * 1e6
                row[f"tax_{k}"] = pool_s / inline_s
        row["pool_scatters"] = float(pooled.parallel_scatters)
        row["bit_identical"] = float(
            bit_identical and pooled.parallel_scatters == len(sizes) * n_queries
        )
    finally:
        pool_store.close()
    return row


# ---------------------------------------------------------------------------
# E15/E17 fleet reruns on the parallel engine


def _sharded_factories(n_shards: int):
    def make_store(capacity: int):
        return ShardedTimeSeriesStore(n_shards=n_shards, default_capacity=capacity)

    def make_engine(store, config):
        return QueryEngine(store, enable_cache=config.enable_cache)

    return make_store, make_engine


def _parallel_factories(n_shards: int, workers: int, captured: Dict):
    def make_store(capacity: int):
        store = ParallelShardedStore(
            n_shards=n_shards, default_capacity=capacity, workers=workers
        )
        store.start_parallel()
        return store

    def make_engine(store, config):
        engine = QueryEngine(store, enable_cache=config.enable_cache)
        captured["engine"] = engine
        return engine

    return make_store, make_engine


def run_parallel_fleet_benchmark(
    *,
    seed: int = 0,
    n_loops: int = 64,
    nodes_per_loop: int = 2,
    ticks: int = 6,
    n_shards: int = 4,
    workers: int = 2,
    period_s: float = 60.0,
    window_s: float = 600.0,
    sample_period_s: float = 10.0,
    hot_fraction: float = 0.1,
) -> Dict[str, float]:
    """E15 rerun: the fused watch fleet hosted on the parallel engine.

    The same fleet runs once over the serial sharded engine and once
    over the shared-memory/worker-pool engine; analyzer verdicts must
    match exactly (the fleet cannot tell which tier served it).
    """
    n_nodes = n_loops * nodes_per_loop
    common = dict(
        node_ids=[f"n{i:04d}" for i in range(n_nodes)],
        n_loops=n_loops,
        seed=seed,
        horizon_s=window_s + ticks * period_s,
        ticks=ticks,
        period_s=period_s,
        window_s=window_s,
        sample_period_s=sample_period_s,
        hot_fraction=hot_fraction,
    )
    s_store, s_engine = _sharded_factories(n_shards)
    serial = _run_fleet(
        config=RuntimeConfig(), make_store=s_store, make_query_engine=s_engine, **common
    )
    captured: Dict = {}
    p_store, p_engine = _parallel_factories(n_shards, workers, captured)
    parallel = _run_fleet(
        config=RuntimeConfig(), make_store=p_store, make_query_engine=p_engine, **common
    )
    engine = captured["engine"]
    return {
        "seed": seed,
        "n_loops": float(n_loops),
        "n_shards": float(n_shards),
        "workers": float(workers),
        "serial_wall_s": serial["wall_s"],
        "parallel_wall_s": parallel["wall_s"],
        "flags_serial": serial["flags"],
        "flags_parallel": parallel["flags"],
        "match": 1.0 if serial["flags"] == parallel["flags"] else 0.0,
        "iterations": parallel["iterations"],
        "parallel_scatters": float(engine.parallel_scatters),
        "serial_fallbacks": float(engine.serial_fallbacks),
    }


def run_parallel_supervision_benchmark(
    *,
    seed: int = 0,
    n_loops: int = 32,
    n_shards: int = 4,
    workers: int = 2,
    **kwargs,
) -> Dict[str, float]:
    """E17 rerun: self-healing supervision over the parallel engine.

    Both runs are deterministic and both engines serve bit-identical
    query results, so the supervisors must take the *identical* audited
    action trace on either tier — asserted here alongside the healing
    bound itself.
    """
    s_store, s_engine = _sharded_factories(n_shards)
    serial = run_supervision_scenario(
        seed=seed, n_loops=n_loops, supervise=True,
        make_store=s_store, make_query_engine=s_engine, **kwargs,
    )
    captured: Dict = {}
    p_store, p_engine = _parallel_factories(n_shards, workers, captured)
    parallel = run_supervision_scenario(
        seed=seed, n_loops=n_loops, supervise=True,
        make_store=p_store, make_query_engine=p_engine, **kwargs,
    )
    healthy = float(parallel["healthy_p95_s"])
    return {
        "seed": seed,
        "n_loops": float(n_loops),
        "n_shards": float(n_shards),
        "workers": float(workers),
        "healthy_p95_s": healthy,
        "final_p95_s": float(parallel["final_p95_s"]),
        "restores_within_2x": 1.0
        if parallel["final_p95_s"] <= 2.0 * healthy
        else 0.0,
        "restarts": float(parallel["restarts"]),
        "restarts_match": 1.0 if serial["restarts"] == parallel["restarts"] else 0.0,
        "trace_match": 1.0 if serial["trace"] == parallel["trace"] else 0.0,
        "serial_fallbacks": float(captured["engine"].serial_fallbacks),
    }

"""Sharded-store scaling experiment (E16, Section IV).

PR 4 partitions the MODA substrate: series hash-route across N shard
stores and reads federate back through scatter-gather.  This experiment
measures both halves at high cardinality on identical data:

* **Query federation** — cross-series ``group_by`` dashboard queries
  (the shape every per-node watch fleet issues) served by the
  :class:`~repro.query.engine.QueryEngine` over one store vs the same
  engine over 8 shards.  Both run the one algebra — plan, one pass per
  place, canonical gather — so the answers must be bit-identical and the
  ratio prices the partition alone: eight passes and a gather that sorts
  where one place's rows arrive canonical.

* **Sharded ingest** — the identical columnar commit stream through
  ``append_batch`` on one store vs the sharded facade's split-and-route
  path, asserting bit-identical stores and no throughput regression
  (the facade sorts once globally and hands shards pre-sorted
  segments).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.query.engine import QueryEngine, QueryResult
from repro.query.model import MetricQuery
from repro.query.standing import StandingQueryEngine
from repro.shard import ShardedTimeSeriesStore
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore


def _series_keys(n_series: int) -> List[SeriesKey]:
    return [SeriesKey.of("m", node=f"n{i:05d}") for i in range(n_series)]


def _tick_columns(
    keys_n: int, sids: np.ndarray, tick: int, period: float, base: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    times = np.full(keys_n, tick * period)
    values = base + 0.01 * tick
    return sids, times, values


def _fill(store, sids: np.ndarray, ticks: int, period: float, base: np.ndarray) -> float:
    """Drive the commit stream; returns the ingest wall-clock."""
    n = sids.size
    wall_t0 = time.perf_counter()
    for tick in range(ticks):
        store.append_batch(*_tick_columns(n, sids, tick, period, base))
    return time.perf_counter() - wall_t0


def _paired_ingest_walls(
    stores: Sequence, sids: Sequence[np.ndarray], n_commits: int, period: float, base: np.ndarray,
    *, window: int = 1, after_window: Optional[Callable[[int, float], None]] = None,
) -> np.ndarray:
    """Ingest walls of the identical commit stream into each of
    ``stores``, as ``(part, store, window)``: part 0 the commits, part 1
    ``after_window(which, now)``, run on that store's account after the
    last commit of each window.

    Best-of runs cannot resolve stores a few percent apart on a host
    whose speed drifts: here every commit lands on all stores back to
    back, the order rotating, and ``window`` commits make one paired
    sample.  Windows in which any side stalled (wall above 1.5× its
    side's median; the first, which admits every series, always is) are
    dropped from all sides.
    """
    walls = np.zeros((2, len(stores), n_commits // window))
    for tick in range(walls.shape[2] * window):
        for slot in range(len(stores)):
            which = (tick + slot) % len(stores)
            columns = _tick_columns(base.size, sids[which], tick, period, base)
            wall_t0 = time.perf_counter()
            stores[which].append_batch(*columns)
            wall_t1 = time.perf_counter()
            walls[0, which, tick // window] += wall_t1 - wall_t0
            if after_window is not None and tick % window == window - 1:
                after_window(which, (tick + 1) * period)
                walls[1, which, tick // window] = time.perf_counter() - wall_t1
    whole = walls.sum(axis=0)
    keep = (whole < 1.5 * np.median(whole, axis=1, keepdims=True)).all(axis=0)
    return walls[:, :, keep]


def _intern(store, keys: List[SeriesKey]) -> np.ndarray:
    return np.fromiter(
        (store.registry.id_for(k) for k in keys), dtype=np.int64, count=len(keys)
    )


def _results_bit_identical(a: QueryResult, b: QueryResult) -> bool:
    if len(a.series) != len(b.series):
        return False
    for sa, sb in zip(a.series, b.series):
        if sa.labels != sb.labels:
            return False
        if not (np.array_equal(sa.times, sb.times) and np.array_equal(sa.values, sb.values)):
            return False
    return True


def _results_close(a: QueryResult, b: QueryResult, rtol: float = 1e-9) -> bool:
    """Standing vs batch: a grid sums a bin commit by commit, a batch
    read in one pass — equal up to float association."""
    if len(a.series) != len(b.series):
        return False
    for sa, sb in zip(a.series, b.series):
        if sa.labels != sb.labels:
            return False
        if not (
            np.allclose(sa.times, sb.times, rtol=0, atol=1e-9)
            and np.allclose(sa.values, sb.values, rtol=rtol, atol=1e-9)
        ):
            return False
    return True


def run_federated_query_benchmark(
    *,
    seed: int = 0,
    n_series: int = 4096,
    n_shards: int = 8,
    ticks: int = 64,
    sample_period_s: float = 10.0,
    step_s: float = 60.0,
    n_queries: int = 5,
    repeats: int = 3,
) -> Dict[str, float]:
    """Federated vs unsharded ``group_by`` query serving at cardinality.

    The workload is the watch-fleet shape: one output series per node
    over the full retention window.  The 8-shard answer must equal the
    single store's bit for bit; the standing read over the shards must
    equal it to 1e-9.  The two engines are timed paired and
    stall-trimmed, ``repeats × n_queries`` queries each.
    """
    rng = np.random.default_rng(seed)
    keys = _series_keys(n_series)
    base = rng.normal(100.0, 15.0, size=n_series)
    capacity = ticks + 8

    single = TimeSeriesStore(default_capacity=capacity)
    sharded = ShardedTimeSeriesStore(n_shards=n_shards, default_capacity=capacity)

    at = ticks * sample_period_s
    query = MetricQuery(
        "m", agg="mean", range_s=at, step_s=step_s, group_by=("node",)
    )
    fed = QueryEngine(sharded, enable_cache=False)
    # register the bench shape *before* ingest so the standing pass
    # measures the incremental listener path, not a one-shot backfill
    standing = StandingQueryEngine(fed)
    standing.register(query)
    for store in (single, sharded):
        _fill(store, _intern(store, keys), ticks, sample_period_s, base)

    qe = QueryEngine(single, enable_cache=False)

    res_single = qe.query(query, at=at)
    res_fed = fed.query(query, at=at)
    res_standing = standing.query(query, at=at)
    bit_identical = _results_bit_identical(res_fed, res_single)
    standing_match = res_standing is not None and _results_close(res_standing, res_single)

    # paired like the ingest half: every query runs on both engines back
    # to back, the order rotating, so a drift in host speed lands on both
    # sides; pairs in which either side stalled are dropped from both
    engines = (qe, fed)
    walls = np.zeros((2, repeats * n_queries))
    for i in range(walls.shape[1]):
        # vary the evaluation point so the engines execute (the
        # benchmark measures serving, not the result cache)
        q_at = at - (i % n_queries) * sample_period_s
        for slot in range(2):
            which = (i + slot) % 2
            t0 = time.perf_counter()
            engines[which].query(query, at=q_at)
            walls[which, i] = time.perf_counter() - t0
    keep = (walls < 1.5 * np.median(walls, axis=1, keepdims=True)).all(axis=0)
    single_s, fed_s = walls[:, keep].mean(axis=1).tolist()

    def timed_standing() -> float:
        best = float("inf")
        for _ in range(repeats):
            standing.clear_snapshots()  # measure the merge, not dict hits
            t0 = time.perf_counter()
            for q_i in range(n_queries):
                standing.query(query, at=at - q_i * sample_period_s)
            best = min(best, time.perf_counter() - t0)
        return best / n_queries

    standing_s = timed_standing()
    st_stats = standing.stats()
    return {
        "n_series": float(n_series),
        "n_shards": float(n_shards),
        "points": float(single.total_inserts),
        "result_series": float(len(res_fed.series)),
        "single_query_ms": single_s * 1e3,
        "federated_query_ms": fed_s * 1e3,
        "single_queries_per_s": 1.0 / single_s,
        "federated_queries_per_s": 1.0 / fed_s,
        "query_speedup": single_s / fed_s,
        "fanout_mean": fed.stats()["fanout_mean"],
        "bit_identical": float(bit_identical),
        "standing_query_ms": standing_s * 1e3,
        "standing_queries_per_s": 1.0 / standing_s,
        "standing_speedup": single_s / standing_s,
        "standing_match": float(standing_match),
        "standing_registered_shapes": st_stats["registered_shapes"],
        "standing_updates_applied": st_stats["updates_applied"],
        "standing_scan_fallbacks": st_stats["scan_fallbacks"],
    }


def run_sharded_ingest_benchmark(
    *,
    seed: int = 0,
    n_series: int = 4096,
    n_shards: int = 8,
    ticks: int = 64,
    sample_period_s: float = 10.0,
    repeats: int = 3,
) -> Dict[str, float]:
    """Identical commit stream into one store vs the sharded facade.

    ``ticks × repeats`` commits, timed paired and stall-trimmed
    (:func:`_paired_ingest_walls`); stores must come out bit-identical.
    The sharded path pays the same single global lexsort and routes
    pre-sorted segments to shards with no per-shard re-sort, then one
    ring-scatter call per shard where the single store makes one in all
    — the ratio prices the routing and those calls.
    """
    rng = np.random.default_rng(seed)
    keys = _series_keys(n_series)
    base = rng.normal(100.0, 15.0, size=n_series)
    n_commits = ticks * repeats
    single = TimeSeriesStore(default_capacity=n_commits + 8)
    sharded = ShardedTimeSeriesStore(n_shards=n_shards, default_capacity=n_commits + 8)
    walls = _paired_ingest_walls(
        (single, sharded), [_intern(single, keys), _intern(sharded, keys)],
        n_commits, sample_period_s, base,
    )
    single_wall, sharded_wall = walls[0].sum(axis=1).tolist()

    match = single.cardinality() == sharded.cardinality()
    if match:
        for key in keys:
            st, sv = single.query(key, -np.inf, np.inf)
            ft, fv = sharded.query(key, -np.inf, np.inf)
            if not (np.array_equal(st, ft) and np.array_equal(sv, fv)):
                match = False
                break

    samples = float(n_series * walls.shape[2])
    cards = sharded.shard_cardinalities()
    return {
        "n_series": float(n_series),
        "n_shards": float(n_shards),
        "samples": samples,
        "single_wall_s": single_wall,
        "sharded_wall_s": sharded_wall,
        "single_samples_per_s": samples / single_wall,
        "sharded_samples_per_s": samples / sharded_wall,
        "ingest_speedup": single_wall / sharded_wall,
        "shard_balance": min(cards) / max(cards),
        "match": float(match),
    }


def run_shard_benchmark(
    *,
    seed: int = 0,
    n_series: int = 4096,
    n_shards: int = 8,
    ticks: int = 64,
    repeats: int = 3,
) -> Dict[str, Dict[str, float]]:
    """Both E16 halves with shared sizing (the CLI/CI entry)."""
    return {
        "query": run_federated_query_benchmark(
            seed=seed, n_series=n_series, n_shards=n_shards, ticks=ticks, repeats=repeats
        ),
        "ingest": run_sharded_ingest_benchmark(
            seed=seed, n_series=n_series, n_shards=n_shards, ticks=ticks, repeats=repeats
        ),
    }

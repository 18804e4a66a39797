"""Federated scatter-gather query engine over a sharded store.

:class:`FederatedQueryEngine` implements the full
:class:`~repro.query.engine.QueryEngine` API (``query`` / ``scalar`` /
``samples`` / ``select`` / caching) over a
:class:`~repro.shard.store.ShardedTimeSeriesStore`.  Execution is a
three-stage scatter-gather:

1. **Plan** — resolve matchers to series keys, assign each key its
   output group (``gidx``) and its canonical rank within the group, and
   partition the work by owning shard.
2. **Scatter** — each touched shard computes *per-series partial rows*:
   windowed reads stitched from the shard's rollup tier plus its raw
   tail, reduced per ``(series, bin)`` with ``reduceat`` over composite
   keys (sum/count/min/max/last partials, counter increases for
   ``rate``, pooled samples for percentiles).  No per-group Python
   loops — a shard's whole worklist is one vectorized pass.
3. **Gather** — partial rows from every shard are concatenated, sorted
   into one **canonical order** ``(group, bin, last_t, source, rank)``
   that is independent of how series are partitioned, and reduced to
   output bins with ``reduceat`` kernels.

The per-shard scatter passes are module-level functions parameterized by
a **shard reader** (:class:`KeyShardReader` here; the sid-addressed
worker-side reader in :mod:`repro.shard.parallel`), so the serial loop
below and the process-parallel tier execute literally the same pass code
— the engine's only serial/parallel difference is *where* the pass runs.
:meth:`FederatedQueryEngine._scatter` is that seam: the parallel engine
overrides it to dispatch the passes to worker processes over
shared-memory columns.

Because per-series arithmetic happens on exactly one shard (a series
never splits) and the cross-series reduction runs in a
partition-independent order, the result is **bit-identical for every
shard count** — the property tests pin the federated result against the
same engine running over a single-shard store.  Against the legacy
per-group :class:`QueryEngine`, results are equal up to floating-point
association (≤1e-9 relative), since that engine pools samples in a
different (but equally valid) summation order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.query.engine import (
    QueryEngine,
    QueryResult,
    ResultSeries,
    instant_tier_partials,
    instant_tier_rate,
)
from repro.obs.trace import TRACER
from repro.query.kernels import PARTIAL_AGGS, counter_increase, grouped_aggregate
from repro.query.model import MetricQuery
from repro.query.rollup import RollupManager, select_tier_index
from repro.query.standing import StoreStandingProvider, concat_entries
from repro.shard.store import ShardedTimeSeriesStore
from repro.telemetry.metric import SeriesKey

#: One shard's worklist as parallel columns: ``(items, group indices,
#: ranks within group)``.  Items are series keys for the in-process
#: reader and shard-local series ids for the worker-side reader.
ShardWork = Tuple[list, List[int], List[int]]


def _segment_bounds(comp: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` of the runs of a nondecreasing int array."""
    if comp.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    bounds = np.flatnonzero(comp[1:] != comp[:-1]) + 1
    return (
        np.concatenate(([0], bounds)),
        np.concatenate((bounds, [comp.size])),
    )


def _bin_of(times: np.ndarray, grid_t0: float, step: Optional[float]) -> np.ndarray:
    if step is None:  # instant query: everything pools into one bin
        return np.zeros(times.size, dtype=np.int64)
    return ((times - grid_t0) // step).astype(np.int64)


def _sample_entries(
    t_chunks: List[np.ndarray],
    v_chunks: List[np.ndarray],
    gidxs: List[int],
    ranks: List[int],
    grid_t0: float,
    step: Optional[float],
    n_bins: int,
) -> Dict[str, np.ndarray]:
    """Per-``(series, bin)`` partial rows from raw sample windows.

    Chunks are per-series and time-sorted, so the composite key
    ``series_pos * n_bins + bin`` is nondecreasing over the pooled
    columns and every statistic reduces with one ``reduceat`` pass —
    ``last`` falls out of the segment tails (latest time; ties resolve
    to the later sample, matching the single-store semantics).
    """
    lens = np.fromiter((c.size for c in t_chunks), dtype=np.int64, count=len(t_chunks))
    t = np.concatenate(t_chunks)
    v = np.concatenate(v_chunks)
    series_pos = np.repeat(np.arange(lens.size), lens)
    bins = _bin_of(t, grid_t0, step)
    starts, ends = _segment_bounds(series_pos * n_bins + bins)
    sel = series_pos[starts]
    return {
        "gidx": np.asarray(gidxs, dtype=np.int64)[sel],
        "rank": np.asarray(ranks, dtype=np.int64)[sel],
        "bin": bins[starts],
        "source": np.ones(starts.size, dtype=np.int64),  # samples beat rows on last_t ties
        "sum": np.add.reduceat(v, starts),
        "count": (ends - starts).astype(np.float64),
        "vmin": np.minimum.reduceat(v, starts),
        "vmax": np.maximum.reduceat(v, starts),
        "last_t": t[ends - 1],
        "last_v": v[ends - 1],
    }


def _row_entries(
    row_chunks: List[Dict[str, np.ndarray]],
    gidxs: List[int],
    ranks: List[int],
    grid_t0: float,
    step: float,
    n_bins: int,
) -> Dict[str, np.ndarray]:
    """Per-``(series, bin)`` partial rows from rollup-tier rows."""
    lens = np.fromiter(
        (c["time"].size for c in row_chunks), dtype=np.int64, count=len(row_chunks)
    )
    cols = {
        name: np.concatenate([c[name] for c in row_chunks])
        for name in ("time", "sum", "count", "min", "max", "last_t", "last_v")
    }
    series_pos = np.repeat(np.arange(lens.size), lens)
    bins = _bin_of(cols["time"], grid_t0, step)
    starts, ends = _segment_bounds(series_pos * n_bins + bins)
    sel = series_pos[starts]
    return {
        "gidx": np.asarray(gidxs, dtype=np.int64)[sel],
        "rank": np.asarray(ranks, dtype=np.int64)[sel],
        "bin": bins[starts],
        "source": np.zeros(starts.size, dtype=np.int64),
        "sum": np.add.reduceat(cols["sum"], starts),
        "count": np.add.reduceat(cols["count"], starts),
        "vmin": np.minimum.reduceat(cols["min"], starts),
        "vmax": np.maximum.reduceat(cols["max"], starts),
        # tier rows of one series are time-ordered, so the segment tail
        # carries the latest underlying sample of the (series, bin)
        "last_t": cols["last_t"][ends - 1],
        "last_v": cols["last_v"][ends - 1],
    }


# --------------------------------------------------------------------------
# Shard readers: the data-access surface the scatter passes run against.


class KeyShardReader:
    """Key-addressed reader over one in-process shard store.

    ``tier`` is the pre-selected rollup tier for the running query (or
    ``None``); ``manager`` is the shard's rollup cascade for the
    instant-query aged-out fallbacks (or ``None``).
    """

    __slots__ = ("shard", "manager", "tier")

    def __init__(self, shard, manager, tier) -> None:
        self.shard = shard
        self.manager = manager
        self.tier = tier

    def window(self, item, lo: float, hi: float):
        """Inclusive raw window ``[lo, hi]`` of one series."""
        return self.shard.query(item, lo, hi)

    def watermark(self, item) -> Optional[float]:
        return self.tier.watermark(item)

    def rows(self, item, lo: float, hi: float):
        """Selected-tier rows with bin start in ``[lo, hi)``."""
        return self.tier.window(item, lo, hi)

    def instant_partials(self, item, t0: float, t1: float):
        if self.manager is None:
            return None
        return instant_tier_partials(self.shard, self.manager, item, t0, t1)

    def instant_rate(self, item, t0: float, t1: float):
        if self.manager is None:
            return None
        return instant_tier_rate(self.shard, self.manager, item, t0, t1)


def _read_window(reader, item, lo: float, hi: float, right_exclusive: bool):
    """Raw window read: ``[lo, hi)`` for range queries (half-open bins),
    ``[lo, hi]`` inclusive for instant queries."""
    times, values = reader.window(item, lo, hi)
    if right_exclusive and times.size and times[-1] >= hi:
        keep = times < hi
        times, values = times[keep], values[keep]
    return times, values


# --------------------------------------------------------------------------
# Scatter passes.  Each computes one shard's contribution to one query
# kind from a reader + worklist columns, returning plain dict-of-array
# partials that the parent gathers.  Everything here must stay
# shard-local and partition-invariant — these functions run serially
# in-process *and* inside pool workers against shared-memory columns.


def scatter_partial(
    reader, items: list, gidxs: List[int], ranks: List[int],
    singleton: Optional[list], p: Dict,
) -> Optional[Tuple[List[Dict[str, np.ndarray]], bool]]:
    """Partial-aggregate pass: tier rows + raw tails + aged-out synth."""
    grid_t0, t1_hi, step, n_bins = p["grid_t0"], p["t1_hi"], p["step"], p["n_bins"]
    instant_tiers = p["instant_tiers"]
    tier = reader.tier
    st_chunks: List[np.ndarray] = []
    sv_chunks: List[np.ndarray] = []
    s_gidx: List[int] = []
    s_rank: List[int] = []
    row_chunks: List[Dict[str, np.ndarray]] = []
    r_gidx: List[int] = []
    r_rank: List[int] = []
    synth: List[Tuple[int, Dict[str, float]]] = []
    used_tier = False
    for i, item in enumerate(items):
        gidx, rank = gidxs[i], ranks[i]
        cut = grid_t0
        if tier is not None:
            wm = reader.watermark(item)
            if wm is not None:
                cut = min(max(wm, grid_t0), t1_hi)
            rows = reader.rows(item, grid_t0, cut)
            if rows is not None and rows["time"].size:
                row_chunks.append(rows)
                r_gidx.append(gidx)
                r_rank.append(rank)
        times, values = _read_window(reader, item, cut, t1_hi, step is not None)
        if times.size:
            st_chunks.append(times)
            sv_chunks.append(values)
            s_gidx.append(gidx)
            s_rank.append(rank)
        elif instant_tiers and singleton is not None and singleton[i]:
            # mirror the single-store engine: a singleton group whose raw
            # ring aged past the window is served from the shard's tiers
            # (per-series and shard-local, so still partition-invariant)
            row = reader.instant_partials(item, grid_t0, t1_hi)
            if row is not None:
                synth.append((gidx, row))
    entries: List[Dict[str, np.ndarray]] = []
    if row_chunks:
        used_tier = True
        entries.append(_row_entries(row_chunks, r_gidx, r_rank, grid_t0, step, n_bins))
    if st_chunks:
        entries.append(
            _sample_entries(st_chunks, sv_chunks, s_gidx, s_rank, grid_t0, step, n_bins)
        )
    if synth:
        used_tier = True
        entries.append(
            {
                "gidx": np.array([g for g, _ in synth], dtype=np.int64),
                "rank": np.zeros(len(synth), dtype=np.int64),
                "bin": np.zeros(len(synth), dtype=np.int64),
                "source": np.zeros(len(synth), dtype=np.int64),
                "sum": np.array([r["sum"] for _, r in synth]),
                "count": np.array([r["count"] for _, r in synth]),
                "vmin": np.array([r["min"] for _, r in synth]),
                "vmax": np.array([r["max"] for _, r in synth]),
                "last_t": np.array([r["last_t"] for _, r in synth]),
                "last_v": np.array([r["last_v"] for _, r in synth]),
            }
        )
    if not entries and not used_tier:
        return None
    return entries, used_tier


def scatter_rate(
    reader, items: list, gidxs: List[int], ranks: List[int],
    singleton: Optional[list], p: Dict,
) -> Optional[Dict[str, np.ndarray]]:
    """Range-rate pass: per-``(series, bin)`` reset-clamped increases."""
    grid_t0, t1_hi, step, n_bins = p["grid_t0"], p["t1_hi"], p["step"], p["n_bins"]
    inc_chunks: List[np.ndarray] = []
    bin_chunks: List[np.ndarray] = []
    g_list: List[int] = []
    r_list: List[int] = []
    for i, item in enumerate(items):
        times, values = _read_window(reader, item, grid_t0, t1_hi, True)
        if times.size < 2:
            continue
        inc_chunks.append(counter_increase(values))
        bin_chunks.append(_bin_of(times[1:], grid_t0, step))
        g_list.append(gidxs[i])
        r_list.append(ranks[i])
    if not inc_chunks:
        return None
    lens = np.fromiter((c.size for c in inc_chunks), dtype=np.int64, count=len(inc_chunks))
    inc = np.concatenate(inc_chunks)
    bins = np.concatenate(bin_chunks)
    series_pos = np.repeat(np.arange(lens.size), lens)
    starts, _ = _segment_bounds(series_pos * n_bins + bins)
    sel = series_pos[starts]
    return {
        "gidx": np.asarray(g_list, dtype=np.int64)[sel],
        "rank": np.asarray(r_list, dtype=np.int64)[sel],
        "bin": bins[starts],
        "inc": np.add.reduceat(inc, starts),
    }


def scatter_instant_rate(
    reader, items: list, gidxs: List[int], ranks: List[int],
    singleton: Optional[list], p: Dict,
) -> Optional[Tuple[Dict[str, np.ndarray], bool]]:
    """Instant-rate pass: per-series total increases (+ tier fallback)."""
    t0, t1 = p["t0"], p["t1"]
    inc_chunks: List[np.ndarray] = []
    g_list: List[int] = []
    r_list: List[int] = []
    synth_g: List[int] = []
    synth_r: List[int] = []
    synth_total: List[float] = []
    used_tier = False
    for i, item in enumerate(items):
        _, values = reader.window(item, t0, t1)
        inc = counter_increase(values)
        if inc.size:
            inc_chunks.append(inc)
            g_list.append(gidxs[i])
            r_list.append(ranks[i])
        elif p["tier_fallback"] and singleton is not None and singleton[i]:
            # aged-out singleton counter: the increase comes from rollup
            # bin-end values (see instant_tier_rate) — shard-local, so
            # still partition-invariant
            hit = reader.instant_rate(item, t0, t1)
            if hit is not None:
                synth_g.append(gidxs[i])
                synth_r.append(ranks[i])
                synth_total.append(hit[0])
                used_tier = True
    if not inc_chunks and not synth_total:
        return None
    if inc_chunks:
        lens = np.fromiter(
            (c.size for c in inc_chunks), dtype=np.int64, count=len(inc_chunks)
        )
        series_pos = np.repeat(np.arange(lens.size), lens)
        starts, _ = _segment_bounds(series_pos)
        totals = np.add.reduceat(np.concatenate(inc_chunks), starts)
    else:
        totals = np.empty(0)
    return {
        "gidx": np.concatenate(
            (np.asarray(g_list, dtype=np.int64), np.asarray(synth_g, dtype=np.int64))
        ),
        "rank": np.concatenate(
            (np.asarray(r_list, dtype=np.int64), np.asarray(synth_r, dtype=np.int64))
        ),
        "total": np.concatenate((totals, np.asarray(synth_total, dtype=np.float64))),
    }, used_tier


def scatter_sampled(
    reader, items: list, gidxs: List[int], ranks: List[int],
    singleton: Optional[list], p: Dict,
) -> Optional[Dict[str, np.ndarray]]:
    """Percentile pass: pooled raw samples keyed by ``(group, bin)``."""
    grid_t0, t1_hi, step, n_bins = p["grid_t0"], p["t1_hi"], p["step"], p["n_bins"]
    v_chunks: List[np.ndarray] = []
    comp_chunks: List[np.ndarray] = []
    for i, item in enumerate(items):
        times, values = _read_window(reader, item, grid_t0, t1_hi, step is not None)
        if times.size:
            v_chunks.append(values)
            comp_chunks.append(gidxs[i] * n_bins + _bin_of(times, grid_t0, step))
    if not v_chunks:
        return None
    return {"comp": np.concatenate(comp_chunks), "v": np.concatenate(v_chunks)}


def scatter_samples(
    reader, items: list, gidxs: List[int], ranks: List[int],
    singleton: Optional[list], p: Dict,
) -> Optional[Dict[str, list]]:
    """Raw-sample extraction pass (``samples()`` fan-out).

    ``gidxs`` carries each item's position in the engine's selection
    order; per-series chunks come back labeled with it so the gather
    can reproduce the single-store pooling order exactly.
    """
    t0, t1, since = p["t0"], p["t1"], p["since"]
    sels: List[int] = []
    t_chunks: List[np.ndarray] = []
    v_chunks: List[np.ndarray] = []
    for i, item in enumerate(items):
        times, values = reader.window(item, t0, t1)
        if since is not None and times.size and times[0] <= since:
            keep = times > since
            times, values = times[keep], values[keep]
        if times.size:
            sels.append(gidxs[i])
            t_chunks.append(times)
            v_chunks.append(values)
    if not sels:
        return None
    return {"sel": sels, "times": t_chunks, "values": v_chunks}


#: Scatter pass per query kind; the worker-side task handler indexes
#: this same table, so serial and parallel execution share one code path.
SCATTER_FNS = {
    "partial": scatter_partial,
    "rate": scatter_rate,
    "instant_rate": scatter_instant_rate,
    "sampled": scatter_sampled,
    "samples": scatter_samples,
}


class FederatedStandingProvider:
    """Shard-local standing state behind the single provider seam.

    One :class:`StoreStandingProvider` per shard store: every grid is
    fed by its own shard's ingest listener with shard-local series ids,
    so registration and incremental updates never cross the partition.
    Reads route the planned selection with the same hash partition as
    the scatter passes and concatenate the per-shard row chunks — the
    engine-side assembler's canonical lexsort+reduceat merge is
    partition-invariant, so the gathered result matches the single-store
    provider for every shard count.
    """

    def __init__(self, store: ShardedTimeSeriesStore) -> None:
        self.store = store
        self.shard_providers = [StoreStandingProvider(s) for s in store.shards]

    def register(self, metric: str, step: float, n_slots: int, *, want_rate: bool) -> None:
        for provider in self.shard_providers:
            provider.register(metric, step, n_slots, want_rate=want_rate)

    def entries(
        self,
        metric: str,
        step: float,
        keys: Sequence[SeriesKey],
        gidxs: np.ndarray,
        ranks: np.ndarray,
        b0: int,
        b1: int,
        *,
        want_rate: bool = False,
    ) -> Optional[Dict[str, np.ndarray]]:
        """Scatter the planned selection, gather per-shard partial rows.

        Any shard that cannot cover the window fails the whole read
        (``None`` -> batch fallback) — partial coverage would silently
        drop that shard's series from the merge.
        """
        work: List[ShardWork] = [([], [], []) for _ in range(self.store.n_shards)]
        shard_index = self.store.shard_index
        for i, key in enumerate(keys):
            wl = work[shard_index(key)]
            wl[0].append(key)
            wl[1].append(int(gidxs[i]))
            wl[2].append(int(ranks[i]))
        chunks: List[Dict[str, np.ndarray]] = []
        for s, (s_keys, s_gidxs, s_ranks) in enumerate(work):
            if not s_keys:
                continue
            with TRACER.span("standing.shard", shard=s, items=len(s_keys)):
                ent = self.shard_providers[s].entries(
                    metric,
                    step,
                    s_keys,
                    np.asarray(s_gidxs, dtype=np.int64),
                    np.asarray(s_ranks, dtype=np.int64),
                    b0,
                    b1,
                    want_rate=want_rate,
                )
            if ent is None:
                return None
            chunks.append(ent)
        return concat_entries(chunks)

    def stats(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for provider in self.shard_providers:
            for k, v in provider.stats().items():
                out[k] = out.get(k, 0.0) + v
        return out


class FederatedQueryEngine(QueryEngine):
    """Scatter-gather query serving over hash-partitioned shard stores."""

    def __init__(
        self,
        store: ShardedTimeSeriesStore,
        *,
        rollups: Optional[Sequence[RollupManager]] = None,
        cache=None,
        enable_cache: bool = True,
        instant_quantum_s: float = 1.0,
    ) -> None:
        if rollups is not None and len(rollups) != store.n_shards:
            raise ValueError(
                f"need one rollup manager per shard: got {len(rollups)} for "
                f"{store.n_shards} shards"
            )
        super().__init__(
            store,
            rollups=None,
            cache=cache,
            enable_cache=enable_cache,
            instant_quantum_s=instant_quantum_s,
        )
        #: per-shard rollup managers, parallel to ``store.shards``
        self.shard_rollups = list(rollups) if rollups is not None else None
        self._tier_resolutions: Optional[List[float]] = (
            [t.resolution_s for t in self.shard_rollups[0].tiers]
            if self.shard_rollups
            else None
        )
        self.federated_queries = 0
        self.fanout_total = 0
        self.fanout_last = 0
        self._fold_task = None
        #: scatter-plan memo keyed by the store's per-metric series
        #: generation: group labels, per-shard worklists, group sizes,
        #: and fanout are recomputed only when the metric's key set
        #: changes
        self._plan_cache: Dict[
            MetricQuery, Tuple[int, List, List[ShardWork], List[int], int]
        ] = {}

    # ------------------------------------------------------------- rollups
    @classmethod
    def with_rollups(
        cls,
        store: ShardedTimeSeriesStore,
        *,
        resolutions: Sequence[float] = (10.0, 60.0, 600.0),
        capacity: int = 4096,
        **kwargs,
    ) -> "FederatedQueryEngine":
        """Build the engine plus one rollup cascade per shard."""
        managers = [
            RollupManager(shard, resolutions, capacity=capacity) for shard in store.shards
        ]
        return cls(store, rollups=managers, **kwargs)

    def fold_rollups(self, now: float) -> int:
        """Fold every shard's tiers up to ``now``; returns rows written."""
        return sum(m.fold(now) for m in self.shard_rollups or ())

    def attach_rollups(self, engine, period_s: Optional[float] = None, *, start_at=None) -> None:
        """Drive per-shard folding from a simulation engine, one task.

        Behind a collection pipeline ``start_at`` must be at least its
        sample→commit latency, or samples stamped just before a bin
        boundary commit after the fold that closed their bin and are
        dropped as late (see :meth:`RollupManager.attach`).
        """
        if not self.shard_rollups:
            return
        if self._fold_task is not None and not self._fold_task.stopped:
            raise RuntimeError("federated rollups already attached")
        period = period_s if period_s is not None else self._tier_resolutions[0]
        self._fold_task = engine.every(
            period, lambda: self.fold_rollups(engine.now), start_at=start_at,
            label="federated-rollup-fold",
        )

    def tier_resolutions(self) -> List[float]:
        """Per-shard rollup resolutions (identical across shards)."""
        return list(self._tier_resolutions) if self._tier_resolutions else []

    # ------------------------------------------------------------ standing
    def make_standing_provider(self) -> FederatedStandingProvider:
        """Shard-local standing state for :class:`StandingQueryEngine`."""
        return FederatedStandingProvider(self.store)

    # ----------------------------------------------------------- execution
    def _cache_version(self, q: MetricQuery):
        """Instant results additionally depend on per-shard fold state
        (the aged-out tier fallback), so mix the summed fold counter in."""
        epoch = self.store.metric_epoch(q.metric)
        if q.step_s is None and self.shard_rollups is not None:
            return (epoch, sum(m.folds for m in self.shard_rollups))
        return epoch

    def _plan(self, q: MetricQuery) -> Tuple[List, List[ShardWork], List[int], int]:
        """Grouped, shard-partitioned worklists for ``q`` (memoized)."""
        gen = self.store.series_generation(q.metric)
        plan = self._plan_cache.get(q)
        if plan is not None and plan[0] == gen:
            return plan[1], plan[2], plan[3], plan[4]
        keys = self.select(q)
        groups: Dict[Tuple[Tuple[str, str], ...], List[SeriesKey]] = {}
        for key in keys:
            groups.setdefault(q.group_key(key), []).append(key)
        sorted_labels = sorted(groups)
        group_sizes = [len(groups[labels]) for labels in sorted_labels]
        work: List[ShardWork] = [([], [], []) for _ in range(self.store.n_shards)]
        shard_index = self.store.shard_index
        for gidx, labels in enumerate(sorted_labels):
            for rank, key in enumerate(sorted(groups[labels], key=str)):
                wl = work[shard_index(key)]
                wl[0].append(key)
                wl[1].append(gidx)
                wl[2].append(rank)
        fanout = sum(1 for wl in work if wl[0])
        if len(self._plan_cache) > 4096:  # unbounded query shapes: reset
            self._plan_cache.clear()
        self._plan_cache[q] = (gen, sorted_labels, work, group_sizes, fanout)
        return sorted_labels, work, group_sizes, fanout

    def _execute(self, q: MetricQuery, at: float) -> QueryResult:
        t1 = float(at)
        sorted_labels, work, group_sizes, fanout = self._plan(q)
        t0 = t1 - q.range_s if q.range_s is not None else self._earliest(self.select(q), t1)
        self.federated_queries += 1
        self.fanout_last = fanout
        self.fanout_total += fanout

        step = q.step_s
        used_tier = False
        if step is not None:
            grid_t0, n_bins = self._grid(t0, t1, step)
            t1_hi = grid_t0 + n_bins * step  # exclusive right edge
            if q.agg == "rate":
                series = self._fed_rate(q, work, sorted_labels, grid_t0, t1_hi, step, n_bins)
            elif q.agg in PARTIAL_AGGS:
                series, used_tier = self._fed_partial(
                    q, work, sorted_labels, grid_t0, t1_hi, step, n_bins, group_sizes
                )
            else:
                series = self._fed_sampled(q, work, sorted_labels, grid_t0, t1_hi, step, n_bins)
        elif q.agg == "rate":
            series, used_tier = self._fed_instant_rate(
                q, work, sorted_labels, t0, t1, group_sizes
            )
        elif q.agg in PARTIAL_AGGS:
            series, used_tier = self._fed_partial(
                q, work, sorted_labels, t0, t1, None, 1, group_sizes
            )
        else:
            series = self._fed_sampled(q, work, sorted_labels, t0, t1, None, 1)

        if used_tier:
            source = "federated:rollup"
            self.served_rollup += 1
        else:
            source = "federated:raw"
            self.served_raw += 1
        return QueryResult(q, t0, t1, tuple(series), source)

    # ----------------------------------------------------- scatter dispatch
    def _scatter(self, kind: str, work: List[ShardWork], params: Dict) -> List:
        """Run one scatter pass over every touched shard.

        Always exactly one ``federated.scatter`` span per pass (when
        tracing), with per-shard ``scatter.shard`` children — the
        process-parallel engine overrides :meth:`_scatter_impl`, not
        this wrapper, so a serial pass, a pool dispatch, and a
        worker-death fallback all produce the same span tree shape.
        """
        if TRACER.enabled:
            with TRACER.span(
                "federated.scatter", kind=kind,
                fanout=sum(1 for wl in work if wl[0]),
            ):
                return self._scatter_impl(kind, work, params)
        return self._scatter_impl(kind, work, params)

    def _scatter_impl(self, kind: str, work: List[ShardWork], params: Dict) -> List:
        """One scatter pass over every touched shard, serially
        in-process.  The process-parallel engine overrides exactly this
        method to dispatch the same passes (same functions, sid-addressed
        readers) to its worker pool — plan and gather stay identical.
        """
        fn = SCATTER_FNS[kind]
        tier_idx = params.get("tier_idx")
        group_sizes = params.get("group_sizes")
        traced = TRACER.enabled
        out: List = [None] * len(work)
        for s, wl in enumerate(work):
            items, gidxs, ranks = wl
            if not items:
                continue
            manager = self.shard_rollups[s] if self.shard_rollups is not None else None
            tier = manager.tiers[tier_idx] if manager is not None and tier_idx is not None else None
            reader = KeyShardReader(self.store.shards[s], manager, tier)
            singleton = (
                [group_sizes[g] == 1 for g in gidxs] if group_sizes is not None else None
            )
            if traced:
                with TRACER.span("scatter.shard", shard=s, items=len(items)):
                    out[s] = fn(reader, items, gidxs, ranks, singleton, params)
            else:
                out[s] = fn(reader, items, gidxs, ranks, singleton, params)
        return out

    def _tier_index(self, step: Optional[float], agg: str) -> Optional[int]:
        if self._tier_resolutions is None:
            return None
        return select_tier_index(self._tier_resolutions, step, agg)

    # --------------------------------------------------- partial-agg path
    def _fed_partial(
        self,
        q: MetricQuery,
        work: List[ShardWork],
        sorted_labels: List,
        grid_t0: float,
        t1_hi: float,
        step: Optional[float],
        n_bins: int,
        group_sizes: Optional[List[int]] = None,
    ) -> Tuple[List[ResultSeries], bool]:
        instant_tiers = (
            step is None and group_sizes is not None and self.shard_rollups is not None
        )
        params = {
            "grid_t0": grid_t0,
            "t1_hi": t1_hi,
            "step": step,
            "n_bins": n_bins,
            "tier_idx": self._tier_index(step, q.agg) if step is not None else None,
            "instant_tiers": instant_tiers,
            "group_sizes": group_sizes if instant_tiers else None,
        }
        entries: List[Dict[str, np.ndarray]] = []
        used_tier = False
        for res in self._scatter("partial", work, params):
            if res is None:
                continue
            entries.extend(res[0])
            used_tier = used_tier or res[1]
        if not entries:
            return [], used_tier
        return (
            self._reduce_partial(entries, q.agg, sorted_labels, grid_t0, step, n_bins),
            used_tier,
        )

    def _reduce_partial(
        self,
        entries: List[Dict[str, np.ndarray]],
        agg: str,
        sorted_labels: List,
        grid_t0: float,
        step: Optional[float],
        n_bins: int,
    ) -> List[ResultSeries]:
        """Merge per-series partial rows from every shard into output bins.

        The one canonical ``lexsort`` — ``(group, bin, last_t, source,
        rank)``, every key partition-independent — fixes both the
        summation order (bit-stable across shard counts) and the
        ``last`` winner (latest ``last_t``; ties prefer raw samples
        over tier rows, then the later-ranked series, exactly the
        single-store merge rule).
        """
        cols = {k: np.concatenate([e[k] for e in entries]) for k in entries[0]}
        order = np.lexsort(
            (cols["rank"], cols["source"], cols["last_t"], cols["bin"], cols["gidx"])
        )
        gidx = cols["gidx"][order]
        bins = cols["bin"][order]
        starts, ends = _segment_bounds(gidx * n_bins + bins)
        if agg == "mean":
            vals = np.add.reduceat(cols["sum"][order], starts) / np.add.reduceat(
                cols["count"][order], starts
            )
        elif agg == "sum":
            vals = np.add.reduceat(cols["sum"][order], starts)
        elif agg == "count":
            vals = np.add.reduceat(cols["count"][order], starts)
        elif agg == "min":
            vals = np.minimum.reduceat(cols["vmin"][order], starts)
        elif agg == "max":
            vals = np.maximum.reduceat(cols["vmax"][order], starts)
        else:  # last
            vals = cols["last_v"][order][ends - 1]
        return self._build_series(gidx[starts], bins[starts], vals, sorted_labels, grid_t0, step)

    # ------------------------------------------------------- sampled path
    def _fed_sampled(
        self,
        q: MetricQuery,
        work: List[ShardWork],
        sorted_labels: List,
        grid_t0: float,
        t1_hi: float,
        step: Optional[float],
        n_bins: int,
    ) -> List[ResultSeries]:
        """Percentiles: pool raw samples per ``(group, bin)`` across shards.

        Percentile is a multiset statistic (the kernel value-sorts each
        bin), so pooling order cannot affect the result — bit-identical
        for every shard count by construction.
        """
        params = {"grid_t0": grid_t0, "t1_hi": t1_hi, "step": step, "n_bins": n_bins}
        parts = [r for r in self._scatter("sampled", work, params) if r is not None]
        if not parts:
            return []
        comp = np.concatenate([r["comp"] for r in parts])
        vals_in = np.concatenate([r["v"] for r in parts])
        nz, vals = grouped_aggregate(comp, vals_in, q.agg)
        return self._build_series(nz // n_bins, nz % n_bins, vals, sorted_labels, grid_t0, step)

    # ---------------------------------------------------------- rate path
    def _fed_rate(
        self,
        q: MetricQuery,
        work: List[ShardWork],
        sorted_labels: List,
        grid_t0: float,
        t1_hi: float,
        step: float,
        n_bins: int,
    ) -> List[ResultSeries]:
        """Counter rate: per-series reset-clamped increases, summed per bin."""
        params = {"grid_t0": grid_t0, "t1_hi": t1_hi, "step": step, "n_bins": n_bins}
        parts = [r for r in self._scatter("rate", work, params) if r is not None]
        if not parts:
            return []
        e_gidx = np.concatenate([r["gidx"] for r in parts])
        e_rank = np.concatenate([r["rank"] for r in parts])
        e_bin = np.concatenate([r["bin"] for r in parts])
        e_inc = np.concatenate([r["inc"] for r in parts])
        order = np.lexsort((e_rank, e_bin, e_gidx))
        gidx = e_gidx[order]
        bin_o = e_bin[order]
        m_starts, _ = _segment_bounds(gidx * n_bins + bin_o)
        vals = np.add.reduceat(e_inc[order], m_starts) / step
        return self._build_series(
            gidx[m_starts], bin_o[m_starts], vals, sorted_labels, grid_t0, step
        )

    def _fed_instant_rate(
        self,
        q: MetricQuery,
        work: List[ShardWork],
        sorted_labels: List,
        t0: float,
        t1: float,
        group_sizes: Optional[List[int]] = None,
    ) -> Tuple[List[ResultSeries], bool]:
        span = t1 - t0
        if span <= 0:
            return [], False
        tier_fallback = group_sizes is not None and self.shard_rollups is not None
        params = {
            "t0": t0,
            "t1": t1,
            "tier_fallback": tier_fallback,
            "group_sizes": group_sizes if tier_fallback else None,
        }
        parts = []
        used_tier = False
        for res in self._scatter("instant_rate", work, params):
            if res is None:
                continue
            parts.append(res[0])
            used_tier = used_tier or res[1]
        if not parts:
            return [], used_tier
        e_gidx = np.concatenate([r["gidx"] for r in parts])
        e_rank = np.concatenate([r["rank"] for r in parts])
        e_total = np.concatenate([r["total"] for r in parts])
        order = np.lexsort((e_rank, e_gidx))
        gidx = e_gidx[order]
        m_starts, _ = _segment_bounds(gidx)
        totals = np.add.reduceat(e_total[order], m_starts)
        return self._build_series(
            gidx[m_starts],
            np.zeros(m_starts.size, dtype=np.int64),
            totals / span,
            sorted_labels,
            t0,
            None,
        ), used_tier

    # ------------------------------------------------------- samples path
    def samples(
        self,
        q: Union[str, MetricQuery],
        *,
        at: float,
        since: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Raw sample extraction fanned out across shards.

        Scatters per-shard window reads, then merges chunks back in the
        engine's **selection order** before the one stable time sort —
        reproducing the single-store pooling order exactly, so the
        result is bit-identical to :meth:`QueryEngine.samples` over the
        same data (cursor semantics included).
        """
        if isinstance(q, str):
            q = self.parse(q)
        self.samples_total += 1
        keys = self.select(q)
        t1 = float(at)
        t0 = t1 - q.range_s if q.range_s is not None else self._earliest(keys, t1)
        if since is not None:
            t0 = max(t0, since)
        work: List[ShardWork] = [([], [], []) for _ in range(self.store.n_shards)]
        shard_index = self.store.shard_index
        for sel_idx, key in enumerate(keys):
            wl = work[shard_index(key)]
            wl[0].append(key)
            wl[1].append(sel_idx)  # selection position, not a group index
            wl[2].append(0)
        params = {"t0": t0, "t1": t1, "since": since}
        chunks: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for res in self._scatter("samples", work, params):
            if res is None:
                continue
            chunks.extend(zip(res["sel"], res["times"], res["values"]))
        if not chunks:
            return np.empty(0), np.empty(0)
        chunks.sort(key=lambda c: c[0])
        times = np.concatenate([c[1] for c in chunks])
        values = np.concatenate([c[2] for c in chunks])
        if len(chunks) > 1:
            order = np.argsort(times, kind="stable")
            times, values = times[order], values[order]
        return times, values

    # ------------------------------------------------------------- output
    def _build_series(
        self,
        out_gidx: np.ndarray,
        out_bins: np.ndarray,
        vals: np.ndarray,
        sorted_labels: List,
        grid_t0: float,
        step: Optional[float],
    ) -> List[ResultSeries]:
        """Slice reduced ``(group, bin)`` rows into per-group result series."""
        series: List[ResultSeries] = []
        g_starts, g_ends = _segment_bounds(out_gidx)
        if step is None:
            times_all = np.full(out_bins.size, grid_t0)
        else:
            times_all = grid_t0 + out_bins * step
        times_all.flags.writeable = False
        vals = np.ascontiguousarray(vals, dtype=np.float64)
        vals.flags.writeable = False
        for g, lo, hi in zip(
            out_gidx[g_starts].tolist(), g_starts.tolist(), g_ends.tolist()
        ):
            # slices of frozen arrays inherit non-writeability — no
            # per-group freeze or copy needed
            series.append(ResultSeries(sorted_labels[g], times_all[lo:hi], vals[lo:hi]))
        return series

    # --------------------------------------------------------------- stats
    def stats(self) -> Dict[str, float]:
        out = super().stats()
        out["shards"] = float(self.store.n_shards)
        out["federated_queries"] = float(self.federated_queries)
        out["fanout_total"] = float(self.fanout_total)
        out["fanout_mean"] = self.fanout_total / max(1, self.federated_queries)
        if self.shard_rollups:
            folds = 0.0
            tier_rows: Dict[str, float] = {}
            for manager in self.shard_rollups:
                for k, v in manager.stats().items():
                    if k == "folds":
                        folds += v
                    else:
                        tier_rows[k] = tier_rows.get(k, 0.0) + v
            out["rollup_folds"] = folds
            out.update({f"rollup_{k}": v for k, v in tier_rows.items()})
        return out

"""Federated scatter-gather query engine over a sharded store.

:class:`FederatedQueryEngine` implements the full
:class:`~repro.query.engine.QueryEngine` API (``query`` / ``scalar`` /
``samples`` / ``select`` / caching) over a
:class:`~repro.shard.store.ShardedTimeSeriesStore`.  Execution is a
three-stage scatter-gather:

1. **Plan** — the base engine's memoised
   :class:`~repro.query.engine.QueryPlan` (matchers resolved, every
   series given its output group ``gidx`` and canonical ``rank``); the
   sharded store's label index carries each series' shard, so the plan
   comes partitioned: per shard the ``(local sid, gidx, rank)`` columns
   of the series it owns (:class:`ShardWork`).
2. **Run on shards** — each touched shard runs one *pass* over its
   :class:`ShardState`, read through the one sid-addressed
   :class:`ShardReader`.  Scatter passes compute *per-series partial
   rows*: windowed reads stitched from the shard's rollup tier plus its
   raw tail, reduced per ``(series, bin)`` with ``reduceat`` over
   composite keys (sum/count/min/max/last partials, counter increases
   for ``rate``, pooled samples for percentiles); the ``standing`` pass
   reads the maintained grids instead; the ``fold`` pass advances the
   tiers.  No per-group Python loops.
3. **Gather** — partial rows from every shard are concatenated, sorted
   into one **canonical order** ``(group, bin, last_t, source, rank)``
   that is independent of how series are partitioned, and reduced to
   output bins with ``reduceat`` kernels.

The passes are the plain functions of :data:`SHARD_PASSES`, and *who
runs them* is observed, not configured:
:meth:`FederatedQueryEngine._run_on_shards` dispatches a pass to the
store's worker pool while that is live (:mod:`repro.shard.parallel`) and
otherwise — or for a shard whose worker died, or for a scatter over so
few series that the round trip would cost more than the pass
(:data:`INLINE_SCATTER_SERIES`) — runs the very same function here.
Plan and gather never know which.

Because per-series arithmetic happens on exactly one shard (a series
never splits) and the cross-series reduction runs in a
partition-independent order, the result is **bit-identical for every
shard count and either executor** — the property tests pin the federated
result against the same engine running over a single-shard store.
Against the legacy per-group :class:`QueryEngine`, results are equal up
to floating-point association (≤1e-9 relative), since that engine pools
samples in a different (but equally valid) summation order.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.query.engine import (
    QueryEngine,
    QueryPlan,
    QueryResult,
    ResultSeries,
    ShardWork,
    instant_tier_partials,
    instant_tier_rate,
)
from repro.obs.trace import TRACER
from repro.query.kernels import PARTIAL_AGGS, counter_increase, grouped_aggregate
from repro.query.model import MetricQuery
from repro.query.rollup import CascadeFolder, RollupManager, TierStore, select_tier_index
from repro.query.standing import (
    StandingGrid,
    StoreStandingProvider,
    concat_entries,
    grid_stats,
    standing_rows,
)
from repro.shard.store import ShardedTimeSeriesStore
from repro.telemetry.tsdb import RawRings

#: Dispatch result of a task lost to a dead worker.
WORKER_DIED = object()

#: A scatter pass over at most this many series runs in process although
#: a pool is live.  Calibration (E18 ``small_pass_tax``, 4 shards × 2
#: workers): a dispatch costs a fixed F ≈ 0.65–0.9 ms over the same pass
#: run here (wake two workers, pickle ~40 small arrays, unpickle them),
#: and reading a series costs c ≈ 8 µs from raw rings, ≈ 16 µs stitched
#: from a tier, on either side.  W workers on cores of their own save at
#: most c·k·(1 − 1/W), so the pool breaks even no earlier than k = F /
#: (c·(1 − 1/W)): ≈ 80–220 series at W = 2, ≈ 55–150 at W = 4.  On the
#: 2-vCPU development host (one core's worth of throughput) the measured
#: crossover is 130–190 series with tiers and none up to 512 without.
#: 64 is below all of those: no pass kept here would have been faster
#: dispatched.  Tests and E18 pin it to 0 to send every pass to the pool.
INLINE_SCATTER_SERIES = 64


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
# Shard state and its reader: what the passes below run against.


class ShardState:
    """One shard as a pass sees it, on whichever side runs the pass.

    The parent builds it over the shard store's rings, its rollup
    cascade and the parent-side standing grids; a pool worker keeps one
    per shard it owns over its mappings of the same shared-memory
    blocks and its own grids.  Everything is addressed by shard-local
    series id.
    """

    __slots__ = ("raw", "tiers", "folder", "standing")

    def __init__(
        self,
        raw: RawRings,
        tiers: Optional[TierStore] = None,
        folder: Optional[CascadeFolder] = None,
        standing: Optional[Dict[float, StandingGrid]] = None,
    ) -> None:
        self.raw = raw
        self.tiers = tiers
        self.folder = folder
        #: standing grids by step; empty where the other side keeps them
        self.standing = standing if standing is not None else {}


class ShardReader:
    """Sid-addressed reads of one shard for the scatter passes.

    ``tier`` is the pre-selected rollup tier for the running query (or
    ``None``); the shard's whole cascade serves the instant-query
    aged-out fallbacks.
    """

    __slots__ = ("tier", "_raw", "_tiers")

    def __init__(self, state: ShardState, tier_idx: Optional[int]) -> None:
        self._raw = state.raw
        self._tiers = state.tiers
        self.tier = state.tiers.tiers[tier_idx] if tier_idx is not None else None

    def window(self, sid: int, lo: float, hi: float):
        """Inclusive raw window ``[lo, hi]`` of one series."""
        return self._raw.window(sid, lo, hi)

    def watermark(self, sid: int) -> Optional[float]:
        return self.tier.watermark(sid)

    def rows(self, sid: int, lo: float, hi: float):
        """Selected-tier rows with bin start in ``[lo, hi)``."""
        return self.tier.window(sid, lo, hi)

    def instant_partials(self, sid: int, t0: float, t1: float):
        if self._tiers is None:
            return None
        return instant_tier_partials(self._raw, self._tiers, sid, t0, t1)

    def instant_rate(self, sid: int, t0: float, t1: float):
        if self._tiers is None:
            return None
        return instant_tier_rate(self._raw, self._tiers, sid, t0, t1)


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
# kind from a reader + worklist columns (``items`` are shard-local
# series ids), returning plain dict-of-array partials that the parent
# gathers.  Everything here must stay shard-local and
# partition-invariant — these functions run in process *and* inside
# pool workers against shared-memory columns.


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


#: Scatter pass per query kind.
SCATTER_FNS = {
    "partial": scatter_partial,
    "rate": scatter_rate,
    "instant_rate": scatter_instant_rate,
    "sampled": scatter_sampled,
    "samples": scatter_samples,
}


# --------------------------------------------------------------------------
# The shard passes: ``(state, payload) -> result``, run by
# :meth:`FederatedQueryEngine._run_on_shards` in process or by the pool
# worker that owns the shard.  Payloads and results cross a pipe, so
# they hold only arrays and plain values.


def scatter_pass(state: ShardState, p: Dict):
    """One query kind's scatter over the planned series of the shard."""
    return SCATTER_FNS[p["kind"]](
        ShardReader(state, p["params"].get("tier_idx")),
        p["sids"], p["gidxs"], p["ranks"], p["singleton"], p["params"],
    )


def standing_pass(state: ShardState, p: Dict) -> Tuple[Optional[Dict[str, np.ndarray]], Dict]:
    """The shard's standing rows (``None``: not covered by the grids on
    this side) and the update counters of those grids."""
    rows = standing_rows(
        state.standing, state.raw, p["step"], p["sids"], p["gidxs"], p["ranks"],
        p["b0"], p["b1"], p["want_rate"],
    )
    return rows, grid_stats(state.standing)


def fold_pass(state: ShardState, p: Dict) -> Dict[str, int]:
    """Fold the shard's tiers up to a boundary; reports the rows written
    and the late samples dropped since the folder's last report."""
    written = state.folder.fold(p["boundary"])
    late, state.folder.late_dropped = state.folder.late_dropped, 0
    return {"written": written, "late": late}


#: Pass per task kind — the kinds :meth:`ShardWorkerPool.dispatch` carries.
SHARD_PASSES = {"scatter": scatter_pass, "standing": standing_pass, "fold": fold_pass}


class FederatedStandingProvider:
    """A sharded engine's standing state, kept where its passes run.

    Over a store without a worker pool that is here: one
    :class:`StoreStandingProvider` per shard store, every grid fed by
    its own shard's ingest listener with shard-local series ids, so
    registration and incremental updates never cross the partition.
    Over a store with a pool the workers keep the grids, built from the
    registrations the store announces.  A read is one ``standing`` pass
    over the planned partition and a concatenation of the per-shard row
    chunks — the engine-side assembler's canonical lexsort+reduceat
    merge is partition-invariant, so the gathered result matches the
    single-store provider for every shard count.  A pass that runs where
    no grid exists (in process, the pool stopped or its worker dead)
    reports the window as not covered: the read falls back to the batch
    engine.
    """

    def __init__(self, engine: "FederatedQueryEngine") -> None:
        self.engine = engine
        store = engine.store
        self.shard_providers = (
            [StoreStandingProvider(shard) for shard in store.shards] if store.pool is None else []
        )
        #: the parent-side grids of each shard (none under a pool)
        self.shard_grids = [p.grids for p in self.shard_providers] or [{}] * store.n_shards
        self._steps: set = set()
        self.standing_scatters = 0
        #: grid counters per shard, as of the shard's last read
        self._reported: Dict[int, Dict[str, float]] = {}

    def register(self, metric: str, step: float, n_slots: int, *, want_rate: bool) -> None:
        self._steps.add(step)
        for provider in self.shard_providers:
            provider.register(metric, step, n_slots, want_rate=want_rate)
        if not self.shard_providers:
            self.engine.store.register_standing(step, n_slots, want_rate)

    def entries(
        self, plan: QueryPlan, step: float, b0: int, b1: int, *, want_rate: bool = False
    ) -> Optional[Dict[str, np.ndarray]]:
        """Run the standing pass on every touched shard, gather the rows.

        Any shard that cannot cover the window fails the whole read
        (``None`` -> batch fallback) — partial coverage would silently
        drop that shard's series from the merge.
        """
        tasks = []
        for s, work in enumerate(plan.shards):
            if work.sids:
                sids, gidx, rank = work.arrays()
                tasks.append((s, {"step": step, "sids": sids, "gidxs": gidx, "ranks": rank,
                                  "b0": b0, "b1": b1, "want_rate": want_rate}))
        chunks = []
        for (s, _), (rows, stats) in zip(tasks, self.engine._run_on_shards("standing", tasks)):
            self._reported[s] = stats
            if rows is None:
                return None
            chunks.append(rows)
        self.standing_scatters += 1
        return concat_entries(chunks)

    def stats(self) -> Dict[str, float]:
        """``grids`` is registered step-grids summed over shards; the
        update counters are live for parent-side grids and as of each
        shard's last read for the workers'."""
        for s, provider in enumerate(self.shard_providers):
            self._reported[s] = grid_stats(provider.grids)
        out = {
            "grids": float(len(self._steps) * self.engine.store.n_shards),
            "standing_scatters": float(self.standing_scatters),
            "updates_applied": 0.0,
            "late_dropped": 0.0,
        }
        for stats in self._reported.values():
            for k, v in stats.items():
                out[k] += v
        return out


class FederatedQueryEngine(QueryEngine):
    """Scatter-gather query serving over hash-partitioned shard stores.

    Reads the store's per-shard rollup cascades (``store.tiersets``) and
    runs its shard passes on the store's worker pool while that is live
    (``store.pool``) — both observed, neither configured here.
    """

    def __init__(
        self,
        store: ShardedTimeSeriesStore,
        *,
        cache=None,
        enable_cache: bool = True,
        instant_quantum_s: float = 1.0,
    ) -> None:
        super().__init__(
            store,
            cache=cache,
            enable_cache=enable_cache,
            instant_quantum_s=instant_quantum_s,
        )
        self.federated_queries = 0
        self.fanout_total = 0
        self._fold_task = None
        #: passes the pool ran, by kind; passes it should have run and
        #: (partly) could not; scatters kept in process for their size
        self.pool_passes: Counter = Counter()
        self.serial_fallbacks = 0
        self.inline_by_size = 0

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
        """Give the store one rollup cascade per shard, build the engine."""
        store.create_tiersets(resolutions, tier_capacity=capacity)
        return cls(store, **kwargs)

    @property
    def parallel_scatters(self) -> int:
        """Scatter passes the worker pool ran."""
        return self.pool_passes["scatter"]

    @property
    def parallel_folds(self) -> int:
        """Fold passes the worker pool ran."""
        return self.pool_passes["fold"]

    @property
    def shard_rollups(self) -> Optional[List[RollupManager]]:
        """Per-shard rollup managers, parallel to ``store.shards``."""
        return self.store.tiersets

    def fold_rollups(self, now: float) -> int:
        """Fold every shard's tiers up to ``now``; returns rows written."""
        tiersets = self.shard_rollups
        if not tiersets:
            return 0
        res0 = tiersets[0].tiers[0].resolution_s
        task = {"boundary": math.floor(now / res0) * res0}
        for manager in tiersets:
            manager.ensure_sids()
        written = 0
        results = self._run_on_shards("fold", [(s, task) for s in range(len(tiersets))])
        for manager, data in zip(tiersets, results):
            written += data["written"]
            manager.note_fold(data["late"])
        return written

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
        period = period_s if period_s is not None else self.tier_resolutions()[0]
        self._fold_task = engine.every(
            period, lambda: self.fold_rollups(engine.now), start_at=start_at,
            label="federated-rollup-fold",
        )

    def tier_resolutions(self) -> List[float]:
        """Per-shard rollup resolutions (identical across shards)."""
        tiersets = self.shard_rollups
        return [t.resolution_s for t in tiersets[0].tiers] if tiersets else []

    # ------------------------------------------------------------ standing
    def _make_standing_provider(self) -> FederatedStandingProvider:
        return FederatedStandingProvider(self)

    # ------------------------------------------------------------ planning
    def _cache_version(self, q: MetricQuery):
        """Instant results additionally depend on per-shard fold state
        (the aged-out tier fallback), so mix the summed fold counter in."""
        epoch = self.store.metric_epoch(q.metric)
        if q.step_s is None and self.shard_rollups is not None:
            return (epoch, sum(m.folds for m in self.shard_rollups))
        return epoch

    # ----------------------------------------------------------- execution
    def _execute(self, q: MetricQuery, at: float) -> QueryResult:
        t1 = float(at)
        plan = self.plan(q)
        t0 = t1 - q.range_s if q.range_s is not None else self._earliest(plan.keys, t1)
        self.federated_queries += 1
        self.fanout_total += plan.fanout

        step = q.step_s
        used_tier = False
        if step is not None:
            grid_t0, n_bins = self._grid(t0, t1, step)
            t1_hi = grid_t0 + n_bins * step  # exclusive right edge
            if q.agg == "rate":
                series = self._fed_rate(q, plan, grid_t0, t1_hi, step, n_bins)
            elif q.agg in PARTIAL_AGGS:
                series, used_tier = self._fed_partial(q, plan, grid_t0, t1_hi, step, n_bins)
            else:
                series = self._fed_sampled(q, plan, grid_t0, t1_hi, step, n_bins)
        elif q.agg == "rate":
            series, used_tier = self._fed_instant_rate(q, plan, t0, t1)
        elif q.agg in PARTIAL_AGGS:
            series, used_tier = self._fed_partial(q, plan, t0, t1, None, 1)
        else:
            series = self._fed_sampled(q, plan, t0, t1, None, 1)

        if used_tier:
            source = "federated:rollup"
            self.served_rollup += 1
        else:
            source = "federated:raw"
            self.served_raw += 1
        return QueryResult(q, t0, t1, tuple(series), source)

    # ------------------------------------------------------- run on shards
    def _run_on_shards(self, kind: str, tasks: List[Tuple[int, Dict]]) -> List:
        """Run one pass of ``kind`` on the shards of ``tasks`` — ``(shard,
        payload)`` pairs — and return their results in task order.

        The one place that decides who runs a shard pass, from what it
        observes: the store's pool and the size of the pass.  One
        dispatch to the owning workers while the pool is live; the same
        :data:`SHARD_PASSES` function here, on the parent's view of the
        shard, where there is no pool, it is stopped, a worker died with
        its reply (the pool breaks, or respawns it) — or the pass is a
        scatter over no more than :data:`INLINE_SCATTER_SERIES` series,
        which a round trip would cost more than it reads.  Reads are
        idempotent, a re-run fold is skipped tier by tier by its
        watermarks, and parent state is authoritative throughout.  A
        pass the pool could not run, wholly or in part, counts once in
        ``serial_fallbacks``; one kept here for its size counts in
        ``inline_by_size`` instead and never looks at the pool, so a
        dead worker is noticed at the next dispatched pass (fold,
        standing, large scatter), not at the next small read.  Either
        way the pass traces as one ``<kind>.shard`` span per shard.
        """
        if not tasks:
            return []
        pool = self.store.pool
        results: List = [WORKER_DIED] * len(tasks)
        small = (
            pool is not None
            and kind == "scatter"
            and sum(len(payload["sids"]) for _, payload in tasks) <= INLINE_SCATTER_SERIES
        )
        if small:
            self.inline_by_size += 1
        elif pool is not None and pool.active:
            results = pool.dispatch([(shard, kind, payload) for shard, payload in tasks])
        here = [i for i, data in enumerate(results) if data is WORKER_DIED]
        if not here:
            self.pool_passes[kind] += 1
            return results
        if pool is not None and not small:
            self.serial_fallbacks += 1
        run = SHARD_PASSES[kind]
        for i in here:
            shard, payload = tasks[i]
            state = self._shard_state(shard)
            if TRACER.enabled:
                with TRACER.span(f"{kind}.shard", shard=shard):
                    results[i] = run(state, payload)
            else:
                results[i] = run(state, payload)
        return results

    def _shard_state(self, shard: int) -> ShardState:
        """The parent's view of one shard for a pass run in process."""
        manager = self.shard_rollups[shard] if self.shard_rollups else None
        return ShardState(
            self.store.shards[shard].rings,
            manager.dense if manager is not None else None,
            manager.folder if manager is not None else None,
            self._standing.shard_grids[shard] if self._standing is not None else None,
        )

    def _scatter(
        self, kind: str, plan: QueryPlan, params: Dict, *,
        singleton: bool = False, label: str = "gidx",
    ) -> List:
        """Run one scatter pass over every touched shard; the results of
        the shards that hold any of the selection.  Each series goes out
        under its ``label`` column of the plan; ``singleton`` sends along
        which ones are alone in their group (the aged-out instant
        fallbacks serve only those).

        Always exactly one ``federated.scatter`` span per pass (when
        tracing), with per-shard ``scatter.shard`` children — a pass run
        here, a pool dispatch, and a worker-death fallback all produce
        the same span tree shape.
        """
        alone = None
        if singleton:
            alone = [hi - lo == 1 for lo, hi in zip(plan.bounds, plan.bounds[1:])]
        tasks = [
            (s, {
                "kind": kind,
                "sids": w.sids,
                "gidxs": getattr(w, label),
                "ranks": w.rank,
                "singleton": [alone[g] for g in w.gidx] if singleton else None,
                "params": params,
            })
            for s, w in enumerate(plan.shards) if w.sids
        ]
        if TRACER.enabled:
            with TRACER.span("federated.scatter", kind=kind, fanout=len(tasks)):
                return self._run_on_shards("scatter", tasks)
        return self._run_on_shards("scatter", tasks)

    # --------------------------------------------------- partial-agg path
    def _fed_partial(
        self,
        q: MetricQuery,
        plan: QueryPlan,
        grid_t0: float,
        t1_hi: float,
        step: Optional[float],
        n_bins: int,
    ) -> Tuple[List[ResultSeries], bool]:
        # an instant read mirrors the single-store engine: a singleton
        # group whose raw ring aged out is served from the shard's tiers
        instant_tiers = step is None and self.shard_rollups is not None
        params = {
            "grid_t0": grid_t0,
            "t1_hi": t1_hi,
            "step": step,
            "n_bins": n_bins,
            "tier_idx": select_tier_index(self.tier_resolutions(), step, q.agg),
            "instant_tiers": instant_tiers,
        }
        entries: List[Dict[str, np.ndarray]] = []
        used_tier = False
        for res in self._scatter("partial", plan, params, singleton=instant_tiers):
            if res is None:
                continue
            entries.extend(res[0])
            used_tier = used_tier or res[1]
        if not entries:
            return [], used_tier
        return (
            self._reduce_partial(entries, q.agg, plan.labels, grid_t0, step, n_bins),
            used_tier,
        )

    def _reduce_partial(
        self,
        entries: List[Dict[str, np.ndarray]],
        agg: str,
        sorted_labels: Sequence,
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
        plan: QueryPlan,
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
        parts = [r for r in self._scatter("sampled", plan, params) if r is not None]
        if not parts:
            return []
        comp = np.concatenate([r["comp"] for r in parts])
        vals_in = np.concatenate([r["v"] for r in parts])
        nz, vals = grouped_aggregate(comp, vals_in, q.agg)
        return self._build_series(nz // n_bins, nz % n_bins, vals, plan.labels, grid_t0, step)

    # ---------------------------------------------------------- rate path
    def _fed_rate(
        self,
        q: MetricQuery,
        plan: QueryPlan,
        grid_t0: float,
        t1_hi: float,
        step: float,
        n_bins: int,
    ) -> List[ResultSeries]:
        """Counter rate: per-series reset-clamped increases, summed per bin."""
        params = {"grid_t0": grid_t0, "t1_hi": t1_hi, "step": step, "n_bins": n_bins}
        parts = [r for r in self._scatter("rate", plan, params) if r is not None]
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
        return self._build_series(gidx[m_starts], bin_o[m_starts], vals, plan.labels, grid_t0, step)

    def _fed_instant_rate(
        self,
        q: MetricQuery,
        plan: QueryPlan,
        t0: float,
        t1: float,
    ) -> Tuple[List[ResultSeries], bool]:
        span = t1 - t0
        if span <= 0:
            return [], False
        tier_fallback = self.shard_rollups is not None
        params = {"t0": t0, "t1": t1, "tier_fallback": tier_fallback}
        parts = []
        used_tier = False
        for res in self._scatter("instant_rate", plan, params, singleton=tier_fallback):
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
            plan.labels,
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
        plan = self.plan(q)
        t1 = float(at)
        t0 = t1 - q.range_s if q.range_s is not None else self._earliest(plan.keys, t1)
        if since is not None:
            t0 = max(t0, since)
        params = {"t0": t0, "t1": t1, "since": since}
        chunks: List[Tuple[int, np.ndarray, np.ndarray]] = []
        # chunks come back labeled with the selection position, not a group index
        for res in self._scatter("samples", plan, params, label="sel"):
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
        sorted_labels: Sequence,
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
        pool = self.store.pool
        if pool is not None:
            out["parallel_scatters"] = float(self.parallel_scatters)
            out["parallel_folds"] = float(self.parallel_folds)
            out["serial_fallbacks"] = float(self.serial_fallbacks)
            out["inline_by_size"] = float(self.inline_by_size)
            out.update({f"pool_{k}": v for k, v in pool.stats().items()})
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

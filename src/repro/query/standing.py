"""Standing queries: O(new samples) incremental monitor evaluation.

The batch :class:`~repro.query.engine.QueryEngine` re-scans a query's
full window on every evaluation, so fused monitoring cost grows as
``window x fleet size`` even though the store already knows exactly
which samples are new (ingest listeners + per-metric write epochs).
This module turns a *registered* :class:`~repro.query.model.MetricQuery`
into a **standing query**: per-series partial-aggregate state — ``(sum,
count, sumsq, min, max, last)`` per absolute time-grid bin, so ``mean``
/ ``std`` / ``rate`` derive exactly — maintained O(new samples) from
:meth:`TimeSeriesStore.add_ingest_listener` callbacks on commit.  A read
then gathers the maintained per-(series, bin) rows with the batch
engine's own canonical merge (:func:`~repro.query.engine.reduce_partial`)
instead of re-scanning raw rings.

Exactness contract (property-tested against the batch engine and the
brute-force reference): range queries always evaluate over *complete*
grid bins, so full-bin partials are sufficient statistics.  A grid adds
a bin's samples up commit by commit where a batch read adds them in one
pass, so results match the batch engine up to floating-point
association (<= 1e-9 relative), and bit-for-bit for the order
statistics ``min``/``max``/``count``/``last``.

Layout and lifecycle:

* :class:`StandingGrid` — the state itself, sid-addressed: dense
  ``(series, bin-slot)`` arrays over a ring of ``n_slots`` absolute
  bins.  Advancing past the newest bin recycles the oldest slots, so
  memory is bounded by ``series x window`` and **window eviction is
  delegated to the rollup tiers**: a read older than the bin ring falls
  back to the batch engine, which stitches tier rows under the raw tail.
* :class:`StandingGrids` — a store's grids (one per step), fed from its
  one ingest listener and bootstrapped at registration by backfilling
  retained ring windows (commits that already wrapped the ring mark the
  oldest retained bin incomplete, forcing batch fallback for windows
  that need it).
* :class:`StandingProvider` — an engine's standing state, one per
  engine (:meth:`QueryEngine.standing_provider`) and shared by every
  standing engine over it: one :class:`StandingGrids` over the engine's
  store, serving every place, or — beside a worker pool
  (``store.pool``) — the grids each worker keeps over its places.  A
  read is the ``standing`` pass of :mod:`repro.query.passes` run on
  every touched place through the engine's ``_run_on_shards``,
  wherever that runs it.
* :class:`StandingQueryEngine` — the serving layer: the read path's one
  promotion rule (an eligible shape read at its third distinct
  evaluation time is registered), reads merged from provider rows over
  the batch engine's memoised
  :class:`~repro.query.engine.QueryPlan`, and **epoch-keyed snapshots**
  — a result is keyed by ``(at, metric epoch, series generation)``, so
  repeated reads inside one tick are served from the snapshot and any
  in-flight commit mints a new key rather than racing the read.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.trace import TRACER
from repro.query.engine import (
    GroupLabels,
    QueryEngine,
    QueryPlan,
    QueryResult,
    ResultSeries,
    _Memo,
    build_series,
    concat_rows,
    reduce_partial,
)
from repro.query.kernels import PARTIAL_AGGS, segment_bounds
from repro.query.model import MetricQuery
from repro.query.passes import grid_stats
from repro.telemetry.tsdb import TimeSeriesStore

#: sentinel bin numbers: "complete since forever" / "complete nowhere"
_NEG_BIG = -(1 << 62)
_POS_BIG = 1 << 62

class StandingGrid:
    """Per-series partial aggregates over a ring of absolute grid bins.

    Bin ``k`` covers ``[k*step, (k+1)*step)`` on the absolute time grid
    (the same alignment the batch engine and rollup tiers use).  The bin
    dimension is a ring of ``n_slots`` slots addressed ``bin % n_slots``;
    advancing the newest bin clears the slots it recycles, so state
    covers exactly the trailing ``n_slots`` bins ending at ``hi_bin``.

    Per-series timestamps are non-decreasing (the store's append
    invariant), which is what makes single-pass incremental folding
    exact: within one commit a series' samples arrive time-sorted, and
    across commits each ``(series, bin)`` accumulator only ever appends.
    """

    def __init__(
        self,
        step_s: float,
        n_slots: int,
        *,
        track_rate: bool = False,
        tracks: Optional[Callable[[int], bool]] = None,
    ) -> None:
        if step_s <= 0:
            raise ValueError("step_s must be positive")
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        self.step = float(step_s)
        self.n_slots = int(n_slots)
        self.track_rate = bool(track_rate)
        self._tracks = tracks  # sid -> belongs to a registered metric (None = all)
        self.hi_bin: Optional[int] = None
        self.updates_applied = 0  # samples folded in
        self.late_dropped = 0  # samples older than the bin ring
        #: replay floors exist only after backfills; the live ingest
        #: path skips the per-sample floor gather until one is set
        self._has_floor = False
        self._cap = 0
        self._known = np.empty(0, dtype=bool)
        self._tracked = np.empty(0, dtype=bool)
        self._floor_t = np.empty(0, dtype=np.float64)
        #: per-series: bins >= complete_from hold every retained sample
        self.complete_from = np.empty(0, dtype=np.int64)
        self._prev_t = np.empty(0, dtype=np.float64)
        self._prev_v = np.empty(0, dtype=np.float64)
        shape = (0, self.n_slots)
        self.sum = np.empty(shape)
        self.count = np.empty(shape)
        self.sumsq = np.empty(shape)
        self.vmin = np.empty(shape)
        self.vmax = np.empty(shape)
        self.last_t = np.empty(shape)
        self.last_v = np.empty(shape)
        self.inc = np.empty(shape)
        self.first_inc = np.empty(shape)

    # ------------------------------------------------------------- sizing
    @staticmethod
    def widened(
        grid: Optional["StandingGrid"], step: float, n_slots: int, want_rate: bool, tracks=None
    ) -> Optional["StandingGrid"]:
        """A new, empty grid holding what ``grid`` (if any) does plus
        ``n_slots`` bins and, if asked, rate state — ``None`` when ``grid``
        already holds that.  A wider window or newly-needed rate state
        cannot be grown incrementally: the caller re-bootstraps the new
        grid from the rings."""
        slots, rate = (grid.n_slots, grid.track_rate) if grid is not None else (0, False)
        if grid is not None and n_slots <= slots and (rate or not want_rate):
            return None
        return StandingGrid(
            step, max(n_slots, slots), track_rate=want_rate or rate, tracks=tracks
        )

    def _grow(self, n: int) -> None:
        cap = max(self._cap * 2, n, 16)

        def grow1(old: np.ndarray, fill: float, dtype=np.float64) -> np.ndarray:
            arr = np.full(cap, fill, dtype=dtype)
            arr[: self._cap] = old
            return arr

        def grow2(old: np.ndarray, fill: float) -> np.ndarray:
            arr = np.full((cap, self.n_slots), fill)
            arr[: self._cap] = old
            return arr

        self._known = grow1(self._known, False, bool)
        self._tracked = grow1(self._tracked, False, bool)
        self._floor_t = grow1(self._floor_t, -np.inf)
        self.complete_from = grow1(self.complete_from, _POS_BIG, np.int64)
        self.sum = grow2(self.sum, 0.0)
        self.count = grow2(self.count, 0.0)
        self.sumsq = grow2(self.sumsq, 0.0)
        self.vmin = grow2(self.vmin, np.inf)
        self.vmax = grow2(self.vmax, -np.inf)
        self.last_t = grow2(self.last_t, -np.inf)
        self.last_v = grow2(self.last_v, np.nan)
        if self.track_rate:
            self._prev_t = grow1(self._prev_t, -np.inf)
            self._prev_v = grow1(self._prev_v, np.nan)
            self.inc = grow2(self.inc, 0.0)
            self.first_inc = grow2(self.first_inc, 0.0)
        self._cap = cap

    def _advance(self, hi_new: int) -> None:
        """Move the newest bin forward, recycling the slots it enters."""
        if self.hi_bin is None:
            self.hi_bin = hi_new
            return
        if hi_new <= self.hi_bin:
            return
        jump = hi_new - self.hi_bin
        if jump >= self.n_slots:
            cols: Union[slice, np.ndarray] = slice(None)
        else:
            cols = (self.hi_bin + 1 + np.arange(jump)) % self.n_slots
        self.sum[:, cols] = 0.0
        self.count[:, cols] = 0.0
        self.sumsq[:, cols] = 0.0
        self.vmin[:, cols] = np.inf
        self.vmax[:, cols] = -np.inf
        self.last_t[:, cols] = -np.inf
        self.last_v[:, cols] = np.nan
        if self.track_rate:
            self.inc[:, cols] = 0.0
            self.first_inc[:, cols] = 0.0
        self.hi_bin = hi_new

    # ------------------------------------------------------------- ingest
    def ingest(self, ids: np.ndarray, times: np.ndarray, values: np.ndarray) -> int:
        """Fold one committed batch (listener columns) into the grid.

        Columns are grouped by series and time-sorted within each series
        (the ingest-listener contract).  Returns the number of samples
        folded; untracked series, samples at or below a series' replay
        floor, and samples older than the bin ring are skipped.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return 0
        max_sid = int(ids.max())
        if max_sid >= self._cap:
            self._grow(max_sid + 1)
        unknown = ~self._known[ids]
        if unknown.any():
            # a series first seen live has its full history flowing
            # through this listener: complete from the very first bin
            for sid in np.unique(ids[unknown]).tolist():
                tracked = True if self._tracks is None else bool(self._tracks(sid))
                self._known[sid] = True
                self._tracked[sid] = tracked
                if tracked:
                    self.complete_from[sid] = _NEG_BIG
        keep = self._tracked[ids]
        if self._has_floor:
            keep &= times > self._floor_t[ids]
        if not keep.all():
            ids, times, values = ids[keep], times[keep], values[keep]
            if ids.size == 0:
                return 0
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        bins = np.floor(times / self.step).astype(np.int64)
        inc = has_pred = None
        if self.track_rate:
            inc, has_pred = self._commit_increases(ids, times, values)
        self._advance(int(bins.max()))
        lo_valid = self.hi_bin - self.n_slots + 1
        fresh = bins >= lo_valid
        if not fresh.all():
            self.late_dropped += int(ids.size - fresh.sum())
            ids, times, values, bins = ids[fresh], times[fresh], values[fresh], bins[fresh]
            if self.track_rate:
                inc, has_pred = inc[fresh], has_pred[fresh]
            if ids.size == 0:
                return 0
        self._fold_segments(ids, times, values, bins, inc, has_pred)
        self.updates_applied += int(ids.size)
        return int(ids.size)

    def _commit_increases(
        self, ids: np.ndarray, times: np.ndarray, values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Reset-clamped increase per sample, chained across commits via
        the per-series previous sample; advances that chain."""
        n = ids.size
        newser = np.empty(n, dtype=bool)
        newser[0] = True
        np.not_equal(ids[1:], ids[:-1], out=newser[1:])
        s_idx = np.nonzero(newser)[0]
        pv = np.empty(n)
        pv[1:] = values[:-1]
        pv[s_idx] = self._prev_v[ids[s_idx]]
        has_pred = np.ones(n, dtype=bool)
        has_pred[s_idx] = self._prev_t[ids[s_idx]] > -np.inf
        deltas = values - pv
        inc = np.where(deltas >= 0.0, deltas, values)
        inc[~has_pred] = 0.0  # exact additive identity: never shifts sums
        e_idx = np.append(s_idx[1:], n) - 1
        self._prev_t[ids[e_idx]] = times[e_idx]
        self._prev_v[ids[e_idx]] = values[e_idx]
        return inc, has_pred

    def _fold_segments(
        self,
        ids: np.ndarray,
        times: np.ndarray,
        values: np.ndarray,
        bins: np.ndarray,
        inc: Optional[np.ndarray],
        has_pred: Optional[np.ndarray],
    ) -> None:
        """Accumulate contiguous ``(series, bin)`` runs into the state.

        Runs are contiguous because the columns are grouped by series
        with non-decreasing times; distinct runs of one call land on
        distinct ``(series, slot)`` cells (two live bins of one series
        are less than ``n_slots`` apart), so fancy-indexed ``+=`` is
        exact.
        """
        n = ids.size
        seg = np.empty(n, dtype=bool)
        seg[0] = True
        seg[1:] = (ids[1:] != ids[:-1]) | (bins[1:] != bins[:-1])
        starts = np.nonzero(seg)[0]
        if starts.size == n:
            # every run is a single sample — the streamed-telemetry
            # common case (one point per series per commit): the reduceat
            # passes degenerate to the columns themselves
            sid_s, col = ids, bins % self.n_slots
            run_sums, run_counts = values, 1.0
            run_sumsq = values * values
            run_min = run_max = values
            tail_t, tail_v = times, values
            run_inc = inc
            inc_heads, pred_heads = inc, has_pred
        else:
            ends = np.append(starts[1:], n)
            sid_s = ids[starts]
            col = bins[starts] % self.n_slots
            run_sums = np.add.reduceat(values, starts)
            run_counts = ends - starts
            run_sumsq = np.add.reduceat(values * values, starts)
            run_min = np.minimum.reduceat(values, starts)
            run_max = np.maximum.reduceat(values, starts)
            tail_t, tail_v = times[ends - 1], values[ends - 1]
            if self.track_rate and inc is not None:
                run_inc = np.add.reduceat(inc, starts)
                inc_heads, pred_heads = inc[starts], has_pred[starts]
        # one flat index for every scatter: the state arrays are allocated
        # C-contiguous and never re-sliced, so the raveled views alias them
        flat = sid_s * self.n_slots + col
        cnt = self.count.ravel()
        cnt_before = cnt[flat]
        self.sum.ravel()[flat] += run_sums
        cnt[flat] = cnt_before + run_counts
        self.sumsq.ravel()[flat] += run_sumsq
        vmin = self.vmin.ravel()
        vmin[flat] = np.minimum(vmin[flat], run_min)
        vmax = self.vmax.ravel()
        vmax[flat] = np.maximum(vmax[flat], run_max)
        # non-decreasing per-series times: the run tail is the newest
        # sample of its bin, and timestamp ties resolve toward the later
        # sample — the same tie-break PartialBins applies
        self.last_t.ravel()[flat] = tail_t
        self.last_v.ravel()[flat] = tail_v
        if self.track_rate and inc is not None:
            self.inc.ravel()[flat] += run_inc
            newbin = cnt_before == 0.0
            if newbin.any():
                fi = np.where(pred_heads, inc_heads, 0.0)
                self.first_inc.ravel()[flat[newbin]] = fi[newbin]

    def backfill_series(
        self,
        sid: int,
        times: np.ndarray,
        values: np.ndarray,
        *,
        evicted: bool,
        floor: Optional[float] = None,
    ) -> None:
        """Bootstrap one series from its retained ring window.

        ``evicted`` marks a ring that has wrapped: the bin holding its
        oldest retained sample may have lost older samples, so the series
        is complete only from the *next* bin on.  ``floor`` (crash-
        respawn replay) additionally drops future listener deliveries at
        or below that time — best-effort boundary semantics shared with
        the parallel tier's recovery path.
        """
        sid = int(sid)
        if sid >= self._cap:
            self._grow(sid + 1)
        self._known[sid] = True
        self._tracked[sid] = True
        if floor is not None:
            self._floor_t[sid] = float(floor)
            self._has_floor = True
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.size == 0:
            self.complete_from[sid] = _NEG_BIG
            return
        bins = np.floor(times / self.step).astype(np.int64)
        inc = has_pred = None
        if self.track_rate:
            # increases over the retained trajectory; the oldest retained
            # sample has no known predecessor
            deltas = np.diff(values)
            inc = np.concatenate([[0.0], np.where(deltas >= 0.0, deltas, values[1:])])
            has_pred = np.ones(times.size, dtype=bool)
            has_pred[0] = False
            self._prev_t[sid] = times[-1]
            self._prev_v[sid] = values[-1]
        self._advance(int(bins[-1]))
        lo = int(bins[0]) + 1 if evicted else _NEG_BIG
        self.complete_from[sid] = lo
        lo_valid = self.hi_bin - self.n_slots + 1
        keep = bins >= max(lo, lo_valid)
        if not keep.all():
            times, values, bins = times[keep], values[keep], bins[keep]
            if self.track_rate:
                inc, has_pred = inc[keep], has_pred[keep]
            if times.size == 0:
                return
        ids = np.full(times.size, sid, dtype=np.int64)
        self._fold_segments(ids, times, values, bins, inc, has_pred)
        self.updates_applied += int(times.size)

    # -------------------------------------------------------------- reads
    def incomplete(self, sids: np.ndarray, b0: int) -> np.ndarray:
        """Subset of ``sids`` whose state cannot serve bins from ``b0``.

        A window starting before the bin ring fails for everyone; a
        never-seen series fails conservatively (the caller decides
        whether it actually holds data).
        """
        sids = np.asarray(sids, dtype=np.int64)
        if sids.size == 0:
            return sids
        if self.hi_bin is not None and b0 < self.hi_bin - self.n_slots + 1:
            return sids
        bad = np.ones(sids.size, dtype=bool)
        known = sids < self._cap
        ks = sids[known]
        bad[known] = ~self._tracked[ks] | (self.complete_from[ks] > b0)
        return sids[bad]

    def rows(
        self, sids: np.ndarray, b0: int, b1: int, *, want_rate: bool = False
    ) -> Dict[str, np.ndarray]:
        """Non-empty ``(series, bin)`` partial rows for absolute bins
        ``[b0, b1]``; ``spos`` indexes into ``sids``."""
        if want_rate and not self.track_rate:
            raise ValueError("grid does not maintain rate state")
        sids = np.asarray(sids, dtype=np.int64)
        b_hi = b0 - 1 if self.hi_bin is None else min(b1, self.hi_bin)
        pos = np.nonzero(sids < self._cap)[0]
        ssub = sids[pos]
        cols = (b0 + np.arange(max(b_hi - b0 + 1, 0))) % self.n_slots
        sub = self.count[np.ix_(ssub, cols)]
        r, c = np.nonzero(sub > 0.0)
        sel_s = ssub[r]
        sel_c = cols[c]
        out = {
            "spos": pos[r],
            "bin": (b0 + c).astype(np.int64),
            "sum": self.sum[sel_s, sel_c],
            "count": sub[r, c],
            "min": self.vmin[sel_s, sel_c],
            "max": self.vmax[sel_s, sel_c],
            "last_t": self.last_t[sel_s, sel_c],
            "last_v": self.last_v[sel_s, sel_c],
        }
        if want_rate:
            out["inc"] = self.inc[sel_s, sel_c]
            out["first_inc"] = self.first_inc[sel_s, sel_c]
        return out

    def moments(self, sid: int, b0: int, b1: int) -> Dict[str, np.ndarray]:
        """``(count, sum, sumsq)`` per bin of one series — the sufficient
        statistics for incremental ``std``/variance derivation."""
        rows = self.rows(np.array([sid], dtype=np.int64), b0, b1)
        sel = rows["bin"]
        col = sel % self.n_slots
        return {
            "bin": sel,
            "count": rows["count"],
            "sum": rows["sum"],
            "sumsq": self.sumsq[np.full(sel.size, int(sid)), col],
        }


class StandingGrids:
    """The standing grids of a store, fed by its ingest listener.

    One :class:`StandingGrid` per registered step over the store's
    series ids; registration backfills the metric's retained ring
    windows so a grid starts complete wherever the rings still are.
    """

    def __init__(self, store: TimeSeriesStore) -> None:
        self.store = store
        self.grids: Dict[float, StandingGrid] = {}
        self._step_metrics: Dict[float, set] = {}
        store.add_ingest_listener(self._on_ingest)

    def _on_ingest(self, ids: np.ndarray, times: np.ndarray, values: np.ndarray) -> None:
        for grid in self.grids.values():
            grid.ingest(ids, times, values)

    def _tracks_fn(self, step: float) -> Callable[[int], bool]:
        metrics = self._step_metrics[step]
        registry = self.store.registry
        return lambda sid: registry.key_for(sid).metric in metrics

    def register(self, metric: str, step: float, n_slots: int, *, want_rate: bool) -> None:
        metrics = self._step_metrics.setdefault(step, set())
        fresh_metric = metric not in metrics
        metrics.add(metric)
        grid = self.grids.get(step)
        rebuilt = StandingGrid.widened(grid, step, n_slots, want_rate, self._tracks_fn(step))
        if rebuilt is not None:
            self.grids[step] = rebuilt
            for name in sorted(metrics):
                self._backfill(rebuilt, name)
        elif fresh_metric:
            self._backfill(grid, metric)

    def _backfill(self, grid: StandingGrid, metric: str) -> None:
        for sid in self.store.series_ids(metric).tolist():
            times, values, evicted = self.store.rings.retained(sid)
            grid.backfill_series(sid, times, values, evicted=evicted)


class StandingProvider:
    """An engine's standing state, kept where its passes run.

    Over a store without a worker pool that is here: one
    :class:`StandingGrids` over the store, fed by its one ingest
    listener, whose grids serve every place's pass.  Over a store with a
    pool each worker keeps grids over its places' series, built from the
    registrations the store announces.  A read is one ``standing`` pass
    per touched place and the canonical gather over the rows they
    return.  A pass that runs where no grid exists (in process with the
    pool stopped or its worker dead) reports the window as not covered:
    the read falls back to the batch engine.
    """

    def __init__(self, engine: QueryEngine) -> None:
        self.engine = engine
        #: the grids on this side (none under a pool)
        self.local = StandingGrids(engine.store) if engine.store.pool is None else None
        self.grids: Dict[float, StandingGrid] = self.local.grids if self.local is not None else {}
        self._steps: set = set()
        self.standing_scatters = 0
        #: the grid counters of each worker, as of its last read
        self._reported: Dict[int, Dict[str, float]] = {}

    def register(self, metric: str, step: float, n_slots: int, *, want_rate: bool) -> None:
        self._steps.add(step)
        if self.local is not None:
            self.local.register(metric, step, n_slots, want_rate=want_rate)
        else:
            self.engine.store.register_standing(step, n_slots, want_rate)

    def entries(
        self, plan: QueryPlan, step: float, b0: int, b1: int, *, want_rate: bool = False
    ) -> Optional[List[Dict[str, np.ndarray]]]:
        """The standing rows of every touched place, bins counted from
        ``b0``.  Any place that cannot cover the window fails the whole
        read (``None`` -> batch fallback) — partial coverage would
        silently drop that place's series from the merge."""
        tasks = []
        for s, work in enumerate(plan.shards):
            if work.sids.size:
                tasks.append((s, {"step": step, "sids": work.sids, "gidxs": work.gidx,
                                  "ranks": work.rank,
                                  "b0": b0, "b1": b1, "want_rate": want_rate}))
        chunks = []
        pool = self.engine.store.pool
        for (s, _), (rows, stats) in zip(tasks, self.engine._run_on_shards("standing", tasks)):
            if pool is not None:
                self._reported[pool.worker_of(s)] = stats
            if rows is None:
                return None
            chunks.append(rows)
        self.standing_scatters += 1
        return chunks

    def stats(self) -> Dict[str, float]:
        """``grids`` is the registered steps; the update counters are
        live for grids on this side, and as of each worker's last read
        for the workers'."""
        out = {
            "grids": float(len(self._steps)),
            "standing_scatters": float(self.standing_scatters),
            "updates_applied": 0.0,
            "late_dropped": 0.0,
        }
        reported = [grid_stats(self.grids)] if self.local is not None else self._reported.values()
        for stats in reported:
            for k, v in stats.items():
                out[k] += v
        return out


def _assemble_rate(
    labels: Sequence[GroupLabels],
    chunks: List[Dict[str, np.ndarray]],
    grid_t0: float,
    step: float,
) -> List[ResultSeries]:
    """Windowed rate from maintained increases.

    Pass 1 applies the per-series window correction: the first non-empty
    bin of each series drops the increase carried in by its first sample
    (that sample's predecessor lies outside the window, which the batch
    engine never pairs), and counts it as touched only when the bin has
    a second sample.  Pass 2 pools per ``(group, bin)`` in member-rank
    order, matching the batch engine's per-series accumulation order.
    """
    chunks = [c for c in chunks if c["gidx"].size]
    if not chunks:
        return []
    ent = concat_rows(chunks)
    order = np.lexsort((ent["bin"], ent["rank"], ent["gidx"]))
    g = ent["gidx"][order]
    r = ent["rank"][order]
    b = ent["bin"][order]
    inc = ent["inc"][order].copy()
    cnt = ent["count"][order]
    newser = np.zeros(g.size, dtype=bool)
    newser[segment_bounds(g, r)[0]] = True
    inc[newser] -= ent["first_inc"][order][newser]
    touched = np.where(newser, cnt > 1.0, cnt > 0.0)
    order2 = np.lexsort((r, b, g))
    g2 = g[order2]
    b2 = b[order2]
    starts, _ = segment_bounds(g2, b2)
    pooled = np.add.reduceat(inc[order2], starts)
    any_touched = np.add.reduceat(touched[order2].astype(np.float64), starts) > 0.0
    return build_series(
        labels, g2[starts][any_touched], b2[starts][any_touched],
        pooled[any_touched] / step, grid_t0, step,
    )


class StandingQueryEngine:
    """Serving layer for standing queries: promotion, registration, reads.

    Wraps the batch engine, whatever its store's shape; ``query`` returns
    a :class:`QueryResult` with ``source="standing"`` when the
    registered state covers the request, or ``None`` so the caller falls
    back to the batch engine (cold shapes, percentiles, instant queries,
    windows older than the bin ring — where eviction hands over to the
    rollup tiers).

    ``query`` is also the one promotion rule of the read path, for the
    loops' hub and the tenants' front door alike: an eligible shape that
    is not registered yet is registered when it is read at its
    :data:`PROMOTE_AFTER`-th distinct evaluation time.  A promotion the
    ``max_shapes`` cap refuses is counted (``promotions_refused``).
    """

    #: extra bin slots beyond one window: absorbs grid phase plus ingest
    #: running ahead of the read frontier
    SLACK_BINS = 4
    #: distinct evaluation times an eligible shape is read at before it
    #: is maintained incrementally — the first two are batch reads
    PROMOTE_AFTER = 3

    def __init__(self, engine: QueryEngine, *, max_shapes: int = 64) -> None:
        self.engine = engine
        self.store = engine.store
        self.provider = engine.standing_provider()
        self.max_shapes = int(max_shapes)
        self.shapes: Dict[MetricQuery, float] = {}
        self.registered_total = 0
        self.reads_served = 0
        self.snapshot_hits = 0
        self.scan_fallbacks = 0
        self.promotions_refused = 0
        self._snaps: Dict[MetricQuery, Tuple[tuple, QueryResult]] = {}
        #: unregistered shape -> (sightings, evaluation time of the last)
        self._seen = _Memo()

    # ------------------------------------------------------- registration
    @staticmethod
    def eligible(q: MetricQuery) -> bool:
        """Shapes the partial algebra can maintain incrementally."""
        return (
            q.step_s is not None
            and q.range_s is not None
            and (q.agg in PARTIAL_AGGS or q.agg == "rate")
        )

    def register(self, q: Union[str, MetricQuery]) -> bool:
        """Compile ``q`` into maintained state; True when registered."""
        if isinstance(q, str):
            q = self.engine.parse(q)
        if q in self.shapes:
            return True
        if not self.eligible(q) or len(self.shapes) >= self.max_shapes:
            return False
        n_bins = int(math.floor(q.range_s / q.step_s)) + 1
        self.provider.register(
            q.metric, q.step_s, n_bins + 1 + self.SLACK_BINS, want_rate=q.agg == "rate"
        )
        self.shapes[q] = q.step_s
        self.registered_total += 1
        self._snaps.clear()  # provider state may have been rebuilt
        return True

    # -------------------------------------------------------------- reads
    def query(self, q: MetricQuery, *, at: float) -> Optional[QueryResult]:
        """Serve ``q`` from standing state, or ``None`` for batch fallback
        (promoting ``q`` first when this read makes it hot)."""
        if q not in self.shapes and not self._promote(q, at):
            return None
        if TRACER.enabled:
            with TRACER.span("standing.read", metric=q.metric):
                return self._query(q, at=at)
        return self._query(q, at=at)

    def _promote(self, q: MetricQuery, at: float) -> bool:
        """Count a read of unregistered ``q`` at ``at``; True when it
        registered ``q`` (the :data:`PROMOTE_AFTER`-th distinct time)."""
        if not self.eligible(q):
            return False
        seen, last = self._seen.get(q, (0, None))
        if at == last:
            return False
        if seen + 1 < self.PROMOTE_AFTER:
            self._seen.put(q, (seen + 1, at))
            return False
        del self._seen[q]
        if self.register(q):
            return True
        self.promotions_refused += 1
        return False

    def _query(self, q: MetricQuery, *, at: float) -> Optional[QueryResult]:
        version = (
            at,
            self.store.metric_epoch(q.metric),
            self.store.series_generation(q.metric),
        )
        snap = self._snaps.get(q)
        if snap is not None and snap[0] == version:
            self.snapshot_hits += 1
            return snap[1]
        result = self._read(q, float(at))
        if result is None:
            self.scan_fallbacks += 1
            return None
        self._snaps[q] = (version, result)
        self.reads_served += 1
        return result

    def clear_snapshots(self) -> None:
        """Drop memoized per-``(at, epoch)`` results.

        Benchmarks re-reading the same evaluation points call this
        between repeats so they measure the merge path, not dict hits.
        """
        self._snaps.clear()

    def _read(self, q: MetricQuery, at: float) -> Optional[QueryResult]:
        step = q.step_s
        t1 = at
        t0 = t1 - q.range_s
        grid_t0, n_bins = QueryEngine._grid(t0, t1, step)
        b0 = int(math.floor(t0 / step))
        b1 = b0 + n_bins - 1
        plan = self.engine.plan(q)
        ent = self.provider.entries(plan, step, b0, b1, want_rate=q.agg == "rate")
        if ent is None:
            return None
        if q.agg == "rate":
            series = _assemble_rate(plan.labels, ent, grid_t0, step)
        else:
            series = reduce_partial(ent, q.agg, plan.labels, grid_t0, step)
        return QueryResult(q, t0, t1, tuple(series), "standing")

    def stats(self) -> Dict[str, float]:
        out = {
            "registered_shapes": float(len(self.shapes)),
            "reads_served": float(self.reads_served),
            "snapshot_hits": float(self.snapshot_hits),
            "scan_fallbacks": float(self.scan_fallbacks),
            "promotions_refused": float(self.promotions_refused),
        }
        out.update(self.provider.stats())
        return out

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
takes that state as it is kept — one ``(series × bin)`` block per state
column, each place's rows landed at their plan positions — and reduces
the block instead of re-scanning raw rings.

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
  read is the ``standing`` pass of :mod:`repro.query.passes` run
  through the engine's ``_run_on_shards`` — once in process, once per
  touched place on a live pool — into one block in plan order without
  a sort.
* :class:`StandingQueryEngine` — the serving layer: the read path's one
  promotion rule (an eligible shape read at its third distinct
  evaluation time is registered), one reduction of the provider's block
  over the batch engine's memoised
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
    block_series,
    build_series,
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

    #: ``(series, bin-slot)`` state by the column name a read asks for:
    #: ``(attribute, empty value)``; the last two only with ``track_rate``
    CELLS = {"sum": ("sum", 0.0), "count": ("count", 0.0), "sumsq": ("sumsq", 0.0),
             "min": ("vmin", np.inf), "max": ("vmax", -np.inf), "last_t": ("last_t", -np.inf),
             "last_v": ("last_v", np.nan), "inc": ("inc", 0.0), "first_inc": ("first_inc", 0.0)}

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
        for attr, _ in self.CELLS.values():
            setattr(self, attr, np.empty((0, self.n_slots)))
        #: ``(attribute, empty value)`` of every state array kept here
        self._kept = list(self.CELLS.values())[: None if self.track_rate else -2]

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

        self._known = grow1(self._known, False, bool)
        self._tracked = grow1(self._tracked, False, bool)
        self._floor_t = grow1(self._floor_t, -np.inf)
        self.complete_from = grow1(self.complete_from, _POS_BIG, np.int64)
        if self.track_rate:
            self._prev_t = grow1(self._prev_t, -np.inf)
            self._prev_v = grow1(self._prev_v, np.nan)
        for attr, fill in self._kept:
            arr = np.full((cap, self.n_slots), fill)
            arr[: self._cap] = getattr(self, attr)
            setattr(self, attr, arr)
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
        for attr, fill in self._kept:
            getattr(self, attr)[:, cols] = fill
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

    def backfill_many(
        self,
        sids: np.ndarray,
        times: np.ndarray,
        values: np.ndarray,
        lens: np.ndarray,
        evicted: np.ndarray,
        floors: Optional[np.ndarray] = None,
    ) -> None:
        """Bootstrap the series ``sids`` from their retained ring windows
        (:meth:`RawRings.retained`: ``lens[i]`` points of ``sids[i]``,
        back to back) with one advance and one fold — the state each
        series would leave if bootstrapped by itself.

        ``evicted[i]`` marks a ring that has wrapped: the bin holding its
        oldest retained sample may have lost older samples, so the series
        is complete only from the *next* bin on.  ``floors`` (crash-
        respawn replay) additionally drops future listener deliveries at
        or below each series' floor — best-effort boundary semantics
        shared with the parallel tier's recovery path.
        """
        sids = np.asarray(sids, dtype=np.int64)
        if sids.size == 0:
            return
        if int(sids.max()) >= self._cap:
            self._grow(int(sids.max()) + 1)
        self._known[sids] = True
        self._tracked[sids] = True
        if floors is not None:
            self._floor_t[sids] = floors
            self._has_floor = True
        ids = np.repeat(sids, lens)
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        bins = np.floor(times / self.step).astype(np.int64)
        has = lens > 0
        lo = np.full(sids.size, _NEG_BIG, dtype=np.int64)
        lo[has] = np.where(evicted[has], bins[(np.cumsum(lens) - lens)[has]] + 1, _NEG_BIG)
        self.complete_from[sids] = lo
        if ids.size == 0:
            return
        inc = has_pred = None
        if self.track_rate:  # a series' oldest retained sample has no known predecessor
            self._prev_t[ids] = -np.inf
            inc, has_pred = self._commit_increases(ids, times, values)
        self._advance(int(bins.max()))
        keep = bins >= np.maximum(np.repeat(lo, lens), self.hi_bin - self.n_slots + 1)
        if not keep.all():
            ids, times, values, bins = ids[keep], times[keep], values[keep], bins[keep]
            if self.track_rate:
                inc, has_pred = inc[keep], has_pred[keep]
            if ids.size == 0:
                return
        self._fold_segments(ids, times, values, bins, inc, has_pred)
        self.updates_applied += int(ids.size)

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

    def block(
        self, sids: np.ndarray, b0: int, b1: int, columns: Sequence[str]
    ) -> Dict[str, np.ndarray]:
        """The state of ``sids`` over absolute bins ``[b0, b1]``: one
        ``(len(sids), b1 - b0 + 1)`` array per name of ``columns`` (keys
        of :data:`CELLS`), each one flat ``take`` at ``sid * n_slots +
        slot``.  Ids without state and bins the ring does not hold — past
        ``hi_bin``, or recycled — read as empty cells (``count == 0``)."""
        sids = np.asarray(sids, dtype=np.int64)
        lo, hi = b0, b0 - 1  # the bins of [b0, b1] the ring holds
        if self.hi_bin is not None:
            lo = max(b0, self.hi_bin - self.n_slots + 1)
            hi = max(min(b1, self.hi_bin), lo - 1)
        rows = np.flatnonzero(sids < self._cap)
        whole = rows.size == sids.size and (lo, hi) == (b0, b1)
        at = (sids[rows] * self.n_slots)[:, None] + np.arange(lo, hi + 1) % self.n_slots
        out = {}
        for name in columns:
            attr, fill = self.CELLS[name]
            cells = getattr(self, attr).take(at)
            if not whole:
                cells, held = np.full((sids.size, b1 - b0 + 1), fill), cells
                cells[rows, lo - b0:hi - b0 + 1] = held
            out[name] = cells
        return out

    def moments(self, sid: int, b0: int, b1: int) -> Dict[str, np.ndarray]:
        """``(count, sum, sumsq)`` per non-empty bin of one series — the
        sufficient statistics for incremental ``std``/variance derivation."""
        cells = self.block([sid], b0, b1, ("count", "sum", "sumsq"))
        keep = np.flatnonzero(cells["count"][0])
        return {"bin": b0 + keep, **{name: col[0, keep] for name, col in cells.items()}}


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
        sids = np.sort(self.store.series_ids(metric))
        grid.backfill_many(sids, *self.store.rings.retained(sids))


class StandingProvider:
    """An engine's standing state, kept where its passes run.

    Over a store without a worker pool that is here: one
    :class:`StandingGrids` over the store, fed by its one ingest
    listener, whose grids serve one pass over every planned series.
    Over a store with a pool each worker keeps grids over its places'
    series, built from the registrations the store announces, and a
    read is one ``standing`` pass per touched place.  A pass that runs
    where no grid exists (in process with the pool stopped or its worker
    dead) reports the window as not covered: the read falls back to the
    batch engine.
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

    def block(
        self, plan: QueryPlan, step: float, b0: int, b1: int, columns: Sequence[str]
    ) -> Optional[Dict[str, np.ndarray]]:
        """The state of every planned series over bins ``[b0, b1]``, one
        ``(series × bin)`` array per name of ``columns``, rows in plan
        order.  In process one pass reads the plan's rows as they are;
        on a pool each place's block lands at its rows' plan positions
        (``bounds[gidx] + rank``), so neither sorts.  A part that cannot
        cover the window fails the read (``None`` -> batch fallback):
        partial coverage would silently drop its series."""
        payload = {"step": step, "b0": b0, "b1": b1, "columns": columns}
        parts, results = self.engine._run_on_shards(
            "standing", lambda work: {**payload, "sids": work.sids}, plan.work)
        pool = self.engine.store.pool
        for (place, _), (_, stats) in zip(parts, results):
            if pool is not None and place is not None:  # a place's grids live on its worker
                self._reported[pool.worker_of(place)] = stats
        if any(cells is None for cells, _ in results):
            return None
        self.standing_scatters += 1
        if len(results) == 1:  # every row, or one place holding them all: plan order
            return results[0][0]
        n = len(plan.keys)
        out = {name: np.empty((n, b1 - b0 + 1)) for name in columns}
        # a group of one series sits at its group index
        starts = None if len(plan.labels) == n else np.asarray(plan.bounds)
        for (_, work), (cells, _) in zip(parts, results):
            at = work.gidx if starts is None else starts[work.gidx] + work.rank
            for name, col in cells.items():
                out[name][at] = col
        return out

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


#: the state column the value of a one-series group is read from
_VALUE_CELL = {"mean": "sum", "sum": "sum", "count": "count", "min": "min", "max": "max",
               "last": "last_v"}
#: the columns of a partial row of the canonical merge
_PARTIAL_CELLS = ("count", "sum", "min", "max", "last_t", "last_v")


def _block_columns(agg: str, singles: bool) -> Tuple[str, ...]:
    """What a read of ``agg`` takes: ``count`` (which cells hold samples)
    and, where every group is one series, the value column alone."""
    if agg == "rate":
        return ("count", "inc", "first_inc")
    return ("count", _VALUE_CELL[agg]) if singles else _PARTIAL_CELLS


def _reduce_block(
    cells: Dict[str, np.ndarray], agg: str, plan: QueryPlan, grid_t0: float, step: float
) -> List[ResultSeries]:
    """The one reduction of a standing read's block (rows in plan order).

    Every group one series and every cell holding samples — a fleet-wide
    read of live series: the values are the block, row for row.  Else
    its non-empty cells, row-major, are the partial rows in ``(group,
    rank, bin)`` order — canonical where groups are single series, so
    the merge takes its no-sort path."""
    count = cells["count"]
    if agg != "rate" and len(plan.labels) == count.shape[0] and count.all():
        vals = cells[_VALUE_CELL[agg]]
        if agg == "mean":
            vals = vals / count
        return block_series(plan.labels, grid_t0 + np.arange(count.shape[1]) * step, vals)
    pos, bins = np.nonzero(count)
    rows = {name: col[pos, bins] for name, col in cells.items()}
    sizes = np.diff(plan.bounds)
    group = np.repeat(np.arange(sizes.size), sizes)  # of each plan position
    rank = np.arange(group.size) - np.repeat(np.asarray(plan.bounds[:-1]), sizes)
    rows.update(gidx=group[pos], rank=rank[pos], bin=bins, source=np.ones(pos.size, np.int64))
    if agg == "rate":
        return _assemble_rate(plan.labels, rows, grid_t0, step)
    return reduce_partial([rows], agg, plan.labels, grid_t0, step)


def _assemble_rate(
    labels: Sequence[GroupLabels],
    rows: Dict[str, np.ndarray],
    grid_t0: float,
    step: float,
) -> List[ResultSeries]:
    """Windowed rate from maintained increases, rows in ``(group, rank,
    bin)`` order.

    Pass 1 applies the per-series window correction: the first non-empty
    bin of each series drops the increase carried in by its first sample
    (that sample's predecessor lies outside the window, which the batch
    engine never pairs), and counts it as touched only when the bin has
    a second sample.  Pass 2 pools per ``(group, bin)`` in member-rank
    order, matching the batch engine's per-series accumulation order.
    """
    g, r, b, inc, cnt = (rows[name] for name in ("gidx", "rank", "bin", "inc", "count"))
    if not g.size:
        return []
    newser = np.zeros(g.size, dtype=bool)
    newser[segment_bounds(g, r)[0]] = True
    inc[newser] -= rows["first_inc"][newser]
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
        t0 = at - q.range_s
        grid_t0, n_bins = QueryEngine._grid(t0, at, step)
        b0 = int(math.floor(t0 / step))
        plan = self.engine.plan(q)
        columns = _block_columns(q.agg, len(plan.labels) == len(plan.keys))
        cells = self.provider.block(plan, step, b0, b0 + n_bins - 1, columns)
        if cells is None:
            return None
        series = _reduce_block(cells, q.agg, plan, grid_t0, step)
        return QueryResult(q, t0, at, tuple(series), "standing")

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

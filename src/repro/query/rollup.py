"""Tiered rollups: continuous folding of raw series into coarse bins.

Production MODA stores (DCDB, LRZ's ODA deployment) keep raw telemetry
briefly and serve long-range queries from downsampled *rollups*.  This
module reproduces that design with **one tier store and one fold
kernel** shared by every execution shape:

* :class:`TierStore` / :class:`DenseTier` — the rows of a cascade of
  resolutions (e.g. 10s → 60s → 600s) for all series of one store,
  addressed by dense series id.  A tier is the
  :class:`~repro.telemetry.tsdb.DenseRings` the raw store is also built
  on: the seven :data:`ROW_COLUMNS` are 2-D ``(series, ring slot)``
  views of one dense block beside per-series ``head`` / ``count`` /
  watermark vectors, so a fold's rows land with one fancy-index scatter
  per column, a cascade reads its fine rows with one gather, and a
  query reads one series' window with one slice.  Storage comes from an
  injected allocator (process heap here, a shared-memory arena in
  :mod:`repro.shard.parallel`) and grows by appending series chunks.
* :class:`CascadeFolder` — the fold itself, one vectorised pass per tier
  over all series at once.  Tier 0 folds complete bins out of the
  committed ``(series_id, time, value)`` column stream; each coarser
  tier folds from the tier below it, so raw data is read exactly once
  per sample no matter how many tiers exist.
* :class:`RollupManager` — binds both to a store: registers the ingest
  listener and drives folding from a simulation clock.  Queries pick
  their tier with :func:`select_tier_index` and read it by series id,
  in the engine's scatter passes (:mod:`repro.query.passes`).

Each rollup row stores the *partial statistics* ``(sum, count, min,
max, last_t, last_v)`` of one time-grid-aligned bin, which is exactly
what :class:`repro.query.kernels.PartialBins` merges — so a query served
from a tier (plus the raw tail past the tier's watermark) is
bit-for-bit identical to a raw scan for every partial-servable
aggregator.  The batched kernel keeps the per-bin arithmetic of
``PartialBins`` (left-to-right ``bincount`` sums, ``reduceat`` extrema,
latest-sample tail), so its rows are byte-equal to a per-series fold —
``tests/query/rollup_oracle.py`` keeps that per-series fold as the
oracle.

A series folds purely from buffered columns once its *listener floor* —
the earliest sample time the listener ever saw for it — lies strictly
below its watermark; until that hand-off (data committed before the
manager existed, or a series first seen mid-fold) its region is folded
with a raw-ring scan, once per series.  Folding should still outpace raw
ring wraparound for that bootstrap case (``fold_period_s`` well under
``capacity × sample_period``); samples that wrap away before the first
fold are lost to the rollups, same as in any real collector.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.query.kernels import PARTIAL_AGGS, PartialBins
from repro.telemetry.batch import sort_series_columns
from repro.telemetry.tsdb import (
    Allocator,
    DenseRings,
    TimeSeriesStore,
    heap_alloc,
    ring_window,
)

#: Column names of one rollup row, in storage order.
ROW_COLUMNS = ("time", "sum", "count", "min", "max", "last_t", "last_v")


def select_tier_index(
    resolutions: Sequence[float], step_s: Optional[float], agg: str
) -> Optional[int]:
    """Index of the coarsest resolution serving ``(step, agg)`` exactly.

    A tier qualifies when the query is a range query whose step is a
    multiple of the tier resolution and the aggregator is servable from
    partial statistics.  ``resolutions`` must be sorted ascending (the
    tier order).  ``None`` → the engine scans raw.
    """
    if step_s is None or agg not in PARTIAL_AGGS:
        return None
    best = None
    for idx, res in enumerate(resolutions):
        if res <= step_s and step_s % res == 0.0:
            best = idx
    return best


# --------------------------------------------------------------------------
# Dense tier storage.


class DenseTier(DenseRings):
    """All series of one resolution, addressed by dense series id.

    The :class:`~repro.telemetry.tsdb.DenseRings` of the seven
    :data:`ROW_COLUMNS` plus a per-series fold watermark ``wm`` (end of
    the last folded bin; NaN = unset).  The query passes read every
    selected series at once (:meth:`watermarks`, the inherited
    :meth:`~repro.telemetry.tsdb.DenseRings.windows`); the scalar reads
    (:meth:`watermark`, :meth:`window`) serve the aged-out instant
    fallback and the tests' oracles; the other vector operations serve
    :class:`CascadeFolder`.
    """

    def __init__(self, resolution_s: float, capacity: int = 4096, lanes: int = 1) -> None:
        if resolution_s <= 0:
            raise ValueError("resolution_s must be positive")
        super().__init__(capacity, len(ROW_COLUMNS), (("wm", np.float64, np.nan),), lanes)
        self.resolution_s = float(resolution_s)

    @property
    def n_sids(self) -> int:
        """Series ids ``[0, n_sids)`` have storage."""
        return self.n_series

    def watermark(self, sid: int) -> Optional[float]:
        """End of the last complete bin folded for ``sid``."""
        loc = self._locate(sid)
        if loc is None:
            return None
        w = loc[0].wm.item(loc[1])
        return None if w != w else w

    def watermarks(self, sids: np.ndarray) -> np.ndarray:
        """:meth:`watermark` of each of ``sids`` (any order; NaN = unset)."""
        if len(self._chunks) == 1 and sids.max(initial=-1) < self.n_series:
            return self.take("wm", sids)
        out = np.full(sids.size, np.nan)
        pos = np.flatnonzero(sids < self.n_series)
        pos = pos[np.argsort(sids[pos], kind="stable")]
        out[pos] = self.take("wm", sids[pos])
        return out

    def window(self, sid: int, t0: float, t1: float) -> Optional[Dict[str, np.ndarray]]:
        """Rows whose bin start lies in the half-open range ``[t0, t1)``,
        copying only the selected rows; ``None`` when ``sid`` has none."""
        loc = self._locate(sid)
        if loc is None:
            return None
        chunk, i = loc
        count = chunk.count.item(i)
        if count == 0:
            return None
        rows = ring_window(chunk.rows[i], chunk.head.item(i), count, t0, t1, right_inclusive=False)
        return dict(zip(ROW_COLUMNS, rows))

    def oldest_time(self, sids: np.ndarray) -> np.ndarray:
        """Bin start of the oldest retained row of each (non-empty) series."""
        slots = (self.take("head", sids) - self.take("count", sids)) % self.capacity
        return self.gather(sids, slots, (0,))[0]


class TierStore:
    """The tiers of one cascade over one allocator.

    Validates the resolution lattice (ascending, each a multiple of the
    previous) and grows all tiers together by whole series chunks, in
    ``lanes`` (:class:`~repro.telemetry.tsdb.DenseRings`).
    """

    def __init__(
        self,
        resolutions: Sequence[float],
        capacity: int = 4096,
        alloc: Optional[Allocator] = heap_alloc,
        lanes: int = 1,
    ) -> None:
        if not resolutions:
            raise ValueError("need at least one rollup resolution")
        res = sorted(float(r) for r in resolutions)
        if len(set(res)) != len(res):
            raise ValueError("duplicate rollup resolutions")
        for fine, coarse in zip(res, res[1:]):
            if coarse % fine != 0.0:
                raise ValueError(
                    f"each tier must be a multiple of the previous: {coarse} % {fine} != 0"
                )
        self.tiers: List[DenseTier] = [DenseTier(r, capacity, lanes) for r in res]
        self._alloc = alloc

    @property
    def n_sids(self) -> int:
        return self.tiers[0].n_sids

    def grow(self, n_sids: int) -> Optional[Tuple[int, int, List[object]]]:
        """Cover series ids ``[0, n_sids)``: append one chunk per tier.

        Returns ``(first series id, series count, per-tier block
        descriptors)`` of the appended chunk for the owner to announce
        (the arguments of :meth:`attach`), ``None`` when already
        covered.  Chunks at least double the store, so a store holds
        O(log n) of them.
        """
        have = self.n_sids
        if n_sids <= have:
            return None
        lanes = self.tiers[0].lanes
        n = -(-max(64, have, n_sids - have) // lanes) * lanes
        descs = []
        for tier in self.tiers:
            block, desc = self._alloc(tier.block_size(n))
            tier.add_chunk(block, n, fresh=True)
            descs.append(desc)
        return have, n, descs

    def attach(self, sid0: int, n: int, blocks: Sequence[np.ndarray]) -> None:
        """Map a chunk another process created (one block per tier).

        Idempotent: a chunk starting below :attr:`n_sids` is already
        mapped and is skipped, so an announcement may be delivered more
        than once; chunks must otherwise arrive in order.
        """
        if sid0 < self.n_sids:
            return
        if sid0 > self.n_sids:
            raise ValueError(f"tier chunk at {sid0} leaves a gap after {self.n_sids}")
        for tier, block in zip(self.tiers, blocks):
            tier.add_chunk(block, n, fresh=False)


# --------------------------------------------------------------------------
# The fold.


def fold_rawscan_rows(
    times: np.ndarray, values: np.ndarray, start: float, boundary: float, resolution: float
) -> Optional[Dict[str, np.ndarray]]:
    """Rows of one series from a raw-ring window scan of ``[start, boundary)``.

    ``times``/``values`` come from an inclusive window query over
    ``[start, boundary]``; the boundary sample (start of the still-open
    bin) is excluded here.  ``None`` when nothing complete remains.
    """
    keep = times < boundary  # half-open bins; window queries are inclusive
    times, values = times[keep], values[keep]
    if times.size == 0:
        return None
    n_bins = int(round((boundary - start) / resolution))
    bin_idx = np.floor((times - start) / resolution).astype(np.int64)
    partial = PartialBins(n_bins)
    partial.add_samples(bin_idx, times, values)
    nz = partial.nonempty()
    return {
        "time": start + nz * resolution,
        "sum": partial.sum[nz],
        "count": partial.count[nz],
        "min": partial.vmin[nz],
        "max": partial.vmax[nz],
        "last_t": partial.last_t[nz],
        "last_v": partial.last_v[nz],
    }


class _Runs:
    """Contiguous ``(series, bin)`` groups of columns sorted that way."""

    __slots__ = ("starts", "ends", "gid", "seg", "bin", "first", "rows")

    def __init__(self, seg: np.ndarray, bins: np.ndarray) -> None:
        new = np.empty(seg.size, dtype=bool)
        new[0] = True
        np.logical_or(seg[1:] != seg[:-1], bins[1:] != bins[:-1], out=new[1:])
        self.starts = np.flatnonzero(new)  # first input row of each group
        self.ends = np.append(self.starts[1:], seg.size)
        self.gid = np.cumsum(new) - 1  # dense group id per input row
        self.seg = seg[self.starts]  # series position per group
        self.bin = bins[self.starts]
        #: first group of every series present, and its group count
        self.first = np.flatnonzero(np.append(True, self.seg[1:] != self.seg[:-1]))
        self.rows = np.diff(np.append(self.first, self.starts.size))


class CascadeFolder:
    """Batched rollup fold of one store's series over a tier cascade.

    One pass per tier: buffered ingest columns are sorted once, every
    ``(series, bin)`` group gets a dense id, and all partial rows fall
    out of one ``bincount`` per additive statistic, one ``reduceat`` per
    extremum and the group tails for ``last``.  ``raw`` is the
    series-id-addressed raw reader (``len(raw)``, ``earliest_time(sid)``,
    ``window(sid, t0, t1)``) the once-per-series bootstrap scan uses.
    Series ids beyond the tiers' current storage are deferred to a later
    fold (the owner grows the store between folds).  ``places`` limits
    the folder to the series of some places — series ``sid`` lives in
    place ``sid % places.size``, folded where ``places`` is true — and it
    is then handed only their columns; ``None`` folds every series.
    """

    def __init__(
        self, tiers: Sequence[DenseTier], raw, *, buffer_cap: int = 1 << 18,
        places: Optional[np.ndarray] = None,
    ) -> None:
        self.tiers = list(tiers)
        self._raw = raw
        self._buffer_cap = int(buffer_cap)
        self._places = places
        #: committed-but-unfolded columns, newest last: ``(ids, times, values)``
        self._buffered: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.buffered_rows = 0
        #: earliest sample time this folder ever saw, per series (NaN = none)
        self._floors = np.empty(0, dtype=np.float64)
        self.late_dropped = 0

    def on_columns(self, ids: np.ndarray, times: np.ndarray, values: np.ndarray) -> None:
        """Queue committed columns for the next fold.

        If folding falls far behind ingest the buffer is drained early
        (complete bins folded, open-bin tail kept), bounding memory
        without ever rescanning raw rings.
        """
        self._buffered.append((ids, times, values))
        self.buffered_rows += int(ids.size)
        if self.buffered_rows > self._buffer_cap:
            res = self.tiers[0].resolution_s
            # chunks are sorted by (series, time), so the true max is a
            # per-chunk .max(), not the last element
            max_t = max(float(c[1].max()) for c in self._buffered if c[1].size)
            self._fold_tier0(math.floor(max_t / res) * res)

    def fold(self, boundary: float) -> int:
        """Fold complete tier-0 bins up to ``boundary`` and cascade;
        returns the rows written.  Idempotent per bin."""
        written = self._fold_tier0(boundary)
        for fine, coarse in zip(self.tiers, self.tiers[1:]):
            written += self._fold_cascade(fine, coarse)
        return written

    def restart(self) -> None:
        """Forget the column stream seen so far (another folder has it
        from here on): the next fold starts from the tiers' watermarks
        and the raw rings, as a new folder's would.  The late-sample
        count is kept."""
        self._buffered = []
        self.buffered_rows = 0
        self._floors = np.empty(0, dtype=np.float64)

    def _sids(self, n: int) -> np.ndarray:
        """The series ids below ``n`` this folder folds."""
        sids = np.arange(n)
        return sids if self._places is None else sids[self._places[sids % self._places.size]]

    # ---------------------------------------------------------------- tier 0
    def _floors_upto(self, n: int) -> np.ndarray:
        """The listener floors of series ``[0, n)`` (a view)."""
        if n > self._floors.size:
            grown = np.full(max(n, 2 * self._floors.size), np.nan)
            grown[: self._floors.size] = self._floors
            self._floors = grown
        return self._floors[:n]

    def _fold_tier0(self, boundary: float) -> int:
        tier = self.tiers[0]
        written = 0
        if self._buffered:
            chunks, self._buffered = self._buffered, []
            self.buffered_rows = 0
            if len(chunks) == 1:
                ids, times, values = chunks[0]
            else:
                ids = np.concatenate([c[0] for c in chunks])
                times = np.concatenate([c[1] for c in chunks])
                values = np.concatenate([c[2] for c in chunks])
            complete = times < boundary
            if not complete.all():
                keep = ~complete
                self._buffered.append((ids[keep], times[keep], values[keep]))
                self.buffered_rows = int(keep.sum())
                ids, times, values = ids[complete], times[complete], values[complete]
            if ids.size:
                written += self._fold_columns(ids, times, values, boundary)
        n = min(len(self._raw), tier.n_sids)
        sids = self._sids(n)
        if sids.size == 0:
            return written
        wm = tier.take("wm", sids)
        stale = ~(wm >= boundary)  # unset (NaN) or behind the boundary
        covered = stale & (self._floors_upto(n)[sids] < wm)  # the buffer held everything
        tier.put("wm", sids[covered], boundary)
        boot = stale & ~covered
        if boot.any():
            written += self._fold_rawscan(sids[boot], wm[boot], boundary)
        return written

    def _fold_columns(
        self, ids: np.ndarray, times: np.ndarray, values: np.ndarray, boundary: float
    ) -> int:
        """Tier-0 rows of every handed-off series from complete columns."""
        tier = self.tiers[0]
        res = tier.resolution_s
        ids, times, values, starts, ends = sort_series_columns(ids, times, values)
        seg_sids = ids[starts]
        all_floors = self._floors_upto(int(seg_sids[-1]) + 1)
        floors = all_floors[seg_sids]
        unseen = np.isnan(floors)
        if unseen.any():
            floors[unseen] = times[starts[unseen]]
            all_floors[seg_sids] = floors
        wm = np.full(seg_sids.size, np.nan)
        stored = seg_sids < tier.n_sids  # the rest waits for the store to grow
        wm[stored] = tier.take("wm", seg_sids[stored])
        handed = floors < wm  # false while the watermark is unset
        if not handed.any():
            return 0
        seg = np.repeat(np.arange(seg_sids.size), ends - starts)
        live = handed[seg]
        # samples behind the watermark are late: their bin already
        # folded, so they are dropped, same as any real collector
        fresh = live & (times >= wm[seg])
        self.late_dropped += int(live.sum()) - int(fresh.sum())
        if not fresh.any():
            return 0
        if not fresh.all():
            seg, times, values = seg[fresh], times[fresh], values[fresh]
        runs = _Runs(seg, np.floor(times / res).astype(np.int64))
        base = np.repeat(runs.bin[runs.first], runs.rows)  # first bin per series
        n_rows = runs.starts.size
        out_sids = seg_sids[runs.seg[runs.first]]
        tier.append_rows(out_sids, runs.rows, [
            base * res + (runs.bin - base) * res,
            np.bincount(runs.gid, weights=values, minlength=n_rows),
            (runs.ends - runs.starts).astype(np.float64),
            np.minimum.reduceat(values, runs.starts),
            np.maximum.reduceat(values, runs.starts),
            # columns are time-sorted per series: a group's tail is its
            # latest sample (ties resolve to the later one)
            times[runs.ends - 1],
            values[runs.ends - 1],
        ])
        tier.put("wm", out_sids, boundary)
        return n_rows

    def _fold_rawscan(self, sids: np.ndarray, wms: np.ndarray, boundary: float) -> int:
        """Raw-ring scan fold of not-yet-handed-off series (per series:
        it runs once for each, at bootstrap)."""
        tier = self.tiers[0]
        res = tier.resolution_s
        marked: List[int] = []
        with_rows: List[int] = []
        parts: List[Dict[str, np.ndarray]] = []
        for sid, start in zip(sids.tolist(), wms.tolist()):
            if start != start:  # NaN: never folded
                first = self._raw.earliest_time(sid)
                if first is None:
                    continue
                start = math.floor(first / res) * res
            if boundary <= start:
                continue
            rows = fold_rawscan_rows(*self._raw.window(sid, start, boundary), start, boundary, res)
            marked.append(sid)
            if rows is not None:
                with_rows.append(sid)
                parts.append(rows)
        if not marked:
            return 0
        written = 0
        if parts:
            counts = np.array([p["time"].size for p in parts], dtype=np.int64)
            tier.append_rows(
                np.array(with_rows, dtype=np.int64),
                counts,
                [np.concatenate([p[name] for p in parts]) for name in ROW_COLUMNS],
            )
            written = int(counts.sum())
        tier.put("wm", np.array(marked, dtype=np.int64), boundary)
        return written

    # --------------------------------------------------------------- cascade
    def _fold_cascade(self, fine: DenseTier, coarse: DenseTier) -> int:
        """Coarse rows of every series from the fine rows the fine
        watermark has completed since the coarse one."""
        sids = self._sids(min(len(self._raw), fine.n_sids))
        if sids.size == 0:
            return 0
        res = coarse.resolution_s
        fine_wm = fine.take("wm", sids)
        start = coarse.take("wm", sids)
        boundary = np.floor(fine_wm / res) * res
        unset = np.flatnonzero(np.isnan(start) & ~np.isnan(fine_wm))
        if unset.size:  # first cascade of a series: begin at its oldest fine row
            unset = unset[fine.take("count", sids[unset]) > 0]
            start[unset] = np.floor(fine.oldest_time(sids[unset]) / res) * res
        pos = np.flatnonzero(boundary > start)
        if pos.size == 0:
            return 0
        go, start, boundary = sids[pos], start[pos], boundary[pos]
        # fine rows at or after ``start`` are the newest rows of the
        # ring, one per fine bin at most: bound the tail, then mask
        tail = np.floor((fine_wm[pos] - start) / fine.resolution_s).astype(np.int64) + 2
        tail = np.minimum(tail, fine.take("count", go))
        seg = np.repeat(np.arange(go.size), tail)
        rank = np.arange(seg.size) - np.repeat(np.cumsum(tail) - tail, tail)
        slots = ((fine.take("head", go) - tail)[seg] + rank) % fine.capacity
        row_sids = go[seg]
        row_t = fine.gather(row_sids, slots, (0,))[0]
        inside = (row_t >= start[seg]) & (row_t < boundary[seg])
        written = 0
        if inside.any():
            seg, row_t = seg[inside], row_t[inside]
            sums, counts, mins, maxs, last_t, last_v = fine.gather(
                row_sids[inside], slots[inside], range(1, len(ROW_COLUMNS))
            )
            runs = _Runs(seg, np.floor((row_t - start[seg]) / res).astype(np.int64))
            written = runs.starts.size
            # the latest underlying sample of a group: stable sort by
            # last_t inside each group, ties to the later row
            newest = np.lexsort((last_t, runs.gid))[runs.ends - 1]
            coarse.append_rows(go[runs.seg[runs.first]], runs.rows, [
                start[runs.seg] + runs.bin * res,
                np.bincount(runs.gid, weights=sums, minlength=written),
                np.bincount(runs.gid, weights=counts, minlength=written),
                np.minimum.reduceat(mins, runs.starts),
                np.maximum.reduceat(maxs, runs.starts),
                last_t[newest],
                last_v[newest],
            ])
        coarse.put("wm", go, boundary)
        return written


# --------------------------------------------------------------------------
# Store binding.


class RollupManager:
    """A cascade of rollup tiers continuously folded from ingested batches."""

    def __init__(
        self,
        store: TimeSeriesStore,
        resolutions: Sequence[float] = (10.0, 60.0, 600.0),
        *,
        capacity: int = 4096,
        ingest_buffer_cap: int = 1 << 18,
    ) -> None:
        self.store = store
        #: the sid-addressed tier store and the fold kernel over it — what
        #: a shard pass reads and runs (:mod:`repro.query.passes`)
        self.dense = self._make_tier_store(resolutions, capacity)
        #: the tiers, finest first, addressed by the store's series ids
        self.tiers: List[DenseTier] = self.dense.tiers
        self.folder = CascadeFolder(self.dense.tiers, store.rings, buffer_cap=ingest_buffer_cap)
        self.folds = 0
        self._task = None
        store.add_ingest_listener(self._on_ingest)

    def _make_tier_store(self, resolutions: Sequence[float], capacity: int) -> TierStore:
        """Where the tiers live; subclasses relocate them (shared memory)."""
        return TierStore(resolutions, capacity)

    def ensure_sids(self) -> None:
        """Give every interned series tier storage."""
        self.dense.grow(len(self.store.registry))

    @property
    def late_samples_dropped(self) -> int:
        """Samples that arrived behind their series' watermark."""
        return self.folder.late_dropped

    @property
    def _buffered_rows(self) -> int:
        return self.folder.buffered_rows

    # -------------------------------------------------------------- ingest
    def _on_ingest(self, ids: np.ndarray, times: np.ndarray, values: np.ndarray) -> None:
        """Store listener: queue committed columns for the next fold."""
        self.ensure_sids()
        self.folder.on_columns(ids, times, values)

    # ------------------------------------------------------------- folding
    def fold(self, now: float) -> int:
        """Fold all complete bins up to ``now`` through every tier.

        Returns the number of rollup rows written.  Idempotent per bin:
        re-folding the same ``now`` writes nothing new.
        """
        self.ensure_sids()
        res = self.tiers[0].resolution_s
        written = self.folder.fold(math.floor(now / res) * res)
        self.folds += 1
        return written

    def note_fold(self, late: int) -> None:
        """Account one fold a shard pass ran over :attr:`dense` — here
        or in the owning worker; ``late`` is what that pass's folder
        dropped since its last report (so a respawned worker's fresh
        count loses nothing)."""
        self.folder.late_dropped += late
        self.folds += 1

    # ---------------------------------------------------------- scheduling
    def attach(self, engine, period_s: Optional[float] = None, *, start_at=None) -> None:
        """Drive folding from a simulation engine on a fixed cadence.

        A fold at time ``T`` closes every bin ending at or before ``T``;
        a sample stamped before ``T`` that commits after the fold is
        *late* — counted in :attr:`late_samples_dropped`, never folded,
        so the tier then disagrees with the raw ring.  Behind a
        collection pipeline, ``start_at`` must therefore be at least the
        pipeline's sample→commit latency (hops plus ingest), so that
        folds trail each bin boundary by it.
        """
        if self._task is not None and not self._task.stopped:
            raise RuntimeError("rollup manager already attached")
        period = period_s if period_s is not None else self.tiers[0].resolution_s
        self._task = engine.every(
            period, lambda: self.fold(engine.now), start_at=start_at, label="rollup-fold"
        )

    def stats(self) -> Dict[str, float]:
        """Rows and watermark coverage per tier (for dashboards/benchmarks)."""
        out: Dict[str, float] = {"folds": float(self.folds)}
        for tier in self.tiers:
            out[f"tier_{int(tier.resolution_s)}s_rows"] = float(len(tier))
        return out

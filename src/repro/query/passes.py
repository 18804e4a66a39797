"""Shard passes: what runs over the places of a store.

A *place* is where series live — the one place of a plain
:class:`~repro.telemetry.tsdb.TimeSeriesStore`, or one shard of a
sharded store.  :class:`ShardState` is the store as a pass sees it: its
raw rings, rollup tiers, fold kernel and standing grids, every one
addressed by series id.  :data:`SHARD_PASSES` are the functions
``(state, payload) -> result`` that run there — the scatter passes of a
query, the standing read and the rollup fold.  The engine
(:meth:`~repro.query.engine.QueryEngine._run_on_shards`) runs one pass
in process over every planned series, whatever the place count; a pool
worker (:mod:`repro.shard.parallel`) runs the very same functions over
its shared-memory mappings of the same columns, one pass per place it
owns, so payloads and results hold only arrays and plain values.

Scatter passes compute *per-series partial rows*: windowed reads
stitched from the rollup tier plus the raw tail, reduced per ``(series,
bin)`` with ``reduceat`` (sum/count/min/max/last partials, counter
increases for ``rate``, pooled samples for percentiles).  A pass reads
the windows of its series with one
:meth:`~repro.telemetry.tsdb.DenseRings.windows` call per store it
reads (the windows back to back, one length per series): the fold
watermarks with one take, the tier rows below them, the raw tails past
them — no call where every watermark is past the window — then the
reductions, which pass rows through where each ``(series, bin)`` holds
one.  Over more than :data:`~repro.telemetry.tsdb.WINDOW_LOOP_SERIES`
series a read is a fixed number of array operations however many series
it covers; over fewer it goes ring by ring, a few microseconds a ring.
Only an aged-out instant singleton is read by itself.
Every row comes from one series' data alone, so the engine's canonical
gather sees the same rows whether one pass or one per place made them —
which is what makes every execution shape answer alike.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.query.kernels import counter_increase, segment_bounds
from repro.query.rollup import ROW_COLUMNS, CascadeFolder, TierStore
from repro.telemetry.tsdb import RawRings


class ShardState:
    """The store as a pass sees it, on whichever side runs the pass.

    The engine builds it over the store's rings, its rollup cascade and
    the standing grids kept beside it, serving every place; a pool
    worker keeps one over its mappings of the same shared-memory blocks
    and its own grids, serving the places it owns.
    """

    __slots__ = ("raw", "tiers", "folder", "standing")

    def __init__(
        self,
        raw: RawRings,
        tiers: Optional[TierStore] = None,
        folder: Optional[CascadeFolder] = None,
        standing: Optional[Dict] = None,
    ) -> None:
        self.raw = raw
        self.tiers = tiers
        self.folder = folder
        #: standing grids by step; empty where the other side keeps them
        self.standing = standing if standing is not None else {}


def _aged_out_rows(state: ShardState, sid: int, t0: float, t1: float, need: int):
    """``(resolution, rows)``: the rows of the finest tier holding at
    least ``need`` bins **fully inside** ``[t0, t1]`` for a series whose
    raw ring no longer reaches back to ``t0`` — else ``None``.  The one
    read a pass makes series by series.

    While the ring still covers the window the raw scan (and the
    brute-force reference) sees it all, so the tiers serve only what
    the ring has lost: strictly more history, never a different answer
    for data the ring still holds.  Partially overlapping bins are left
    out — their statistics would mix samples from outside the window.
    """
    if state.tiers is None:
        return None
    earliest = state.raw.earliest_time(sid)
    if earliest is None or earliest <= t0:
        return None
    for tier in state.tiers.tiers:  # finest first: freshest detail
        rows = tier.window(sid, t0, t1)
        if rows is None:
            continue
        keep = rows["time"] + tier.resolution_s <= t1
        if int(keep.sum()) >= need:
            return tier.resolution_s, {name: col[keep] for name, col in rows.items()}
    return None


def _instant_partials(state: ShardState, sid: int, t0: float, t1: float) -> Optional[Dict]:
    """Pooled ``(sum, count, min, max, last_t, last_v, resolution)`` of
    an aged-out instant window, from the tiers."""
    hit = _aged_out_rows(state, sid, t0, t1, 1)
    if hit is None:
        return None
    res, rows = hit
    return {
        "sum": float(np.sum(rows["sum"])),
        "count": float(np.sum(rows["count"])),
        "min": float(np.min(rows["min"])),
        "max": float(np.max(rows["max"])),
        # rows are time-ordered, so the tail is the freshest sample
        "last_t": float(rows["last_t"][-1]),
        "last_v": float(rows["last_v"][-1]),
        "resolution": res,
    }


def _instant_rate(state: ShardState, sid: int, t0: float, t1: float) -> Optional[Tuple]:
    """``(increase, resolution)`` of an aged-out counter window: the
    reset-clamped deltas of consecutive bins' ``last_v`` — the counter
    sampled at bin ends, so increases swallowed by an intra-bin reset are
    lost and the answer is a floor, never an overcount."""
    hit = _aged_out_rows(state, sid, t0, t1, 2)
    if hit is None:
        return None
    res, rows = hit
    return float(np.sum(counter_increase(rows["last_v"]))), res


def _bin_of(times: np.ndarray, grid_t0: float, step: Optional[float]) -> np.ndarray:
    if step is None:  # instant query: everything pools into one bin
        return np.zeros(times.size, dtype=np.int64)
    return ((times - grid_t0) // step).astype(np.int64)


def _partial_rows(cols: Dict, lens: np.ndarray, gidxs, ranks, grid_t0, step, source: int):
    """Per-``(series, bin)`` partial rows of windows read back to back
    (``lens[i]`` time-sorted rows of series ``i``) with the row columns
    ``cols`` — a raw window's are its samples, ``count`` ``None``.  Each
    statistic reduces with one ``reduceat``; ``last`` is the segment
    tail, the latest underlying sample of the ``(series, bin)``.  Where
    every segment is one row — tier rows read at their own resolution —
    each reduction would be the identity, and the rows come back as
    they are."""
    series_pos = np.repeat(np.arange(lens.size), lens)
    bins = _bin_of(cols["time"], grid_t0, step)
    starts, ends = segment_bounds(series_pos, bins)
    count = cols["count"]
    if starts.size == bins.size:
        return {
            "gidx": gidxs[series_pos],
            "rank": ranks[series_pos],
            "bin": bins,
            "source": np.full(bins.size, source, dtype=np.int64),
            "sum": cols["sum"],
            "count": np.ones(bins.size) if count is None else count,
            "min": cols["min"],
            "max": cols["max"],
            "last_t": cols["last_t"],
            "last_v": cols["last_v"],
        }
    sel = series_pos[starts]
    return {
        "gidx": gidxs[sel],
        "rank": ranks[sel],
        "bin": bins[starts],
        "source": np.full(starts.size, source, dtype=np.int64),
        "sum": np.add.reduceat(cols["sum"], starts),
        "count": (ends - starts).astype(np.float64) if count is None
        else np.add.reduceat(count, starts),
        "min": np.minimum.reduceat(cols["min"], starts),
        "max": np.maximum.reduceat(cols["max"], starts),
        "last_t": cols["last_t"][ends - 1],
        "last_v": cols["last_v"][ends - 1],
    }


def _first_rows(lens: np.ndarray, total: int) -> np.ndarray:
    """Mask of the rows of back-to-back windows that open their series' window."""
    first = np.zeros(total, dtype=bool)
    first[(np.cumsum(lens) - lens)[lens > 0]] = True
    return first


# --------------------------------------------------------------------------
# Scatter passes.  Each computes its series' contribution to one query
# kind from the state and a worklist ``w`` (``sids`` are the series ids
# of the pass, with their ``gidxs`` and ``ranks``; ``singleton``
# marks the series alone in their group; ``params`` the query's),
# returning plain dict-of-array partials that the engine gathers.


def scatter_partial(state: ShardState, w: Dict):
    """Partial-aggregate pass: tier rows below each series' fold
    watermark, the raw tail past it, aged-out instant synth.  Returns
    the row tables and the coarsest tier resolution that served any of
    them (``None``: raw only)."""
    sids, gidxs, ranks, p = w["sids"], w["gidxs"], w["ranks"], w["params"]
    grid_t0, t1_hi, step = p["grid_t0"], p["t1_hi"], p["step"]
    tier = state.tiers.tiers[p["tier_idx"]] if p["tier_idx"] is not None else None
    entries: List[Dict[str, np.ndarray]] = []
    tier_res: Optional[float] = None
    cut = grid_t0
    if tier is not None:
        wm = tier.watermarks(sids)
        cut = np.minimum(np.fmax(wm, grid_t0), t1_hi)  # fmax: an unset (NaN) mark is grid_t0
        cols, lens = tier.windows(sids, grid_t0, cut, right_inclusive=False)
        if cols[0].size:
            tier_res = tier.resolution_s
            rows = dict(zip(ROW_COLUMNS, cols))
            entries.append(_partial_rows(rows, lens, gidxs, ranks, grid_t0, step, 0))
        if not (cut < t1_hi).any():  # every window folded: no raw tail
            return (entries, tier_res) if entries else None
    t, v, lens = state.raw.windows(sids, cut, t1_hi, right_inclusive=step is None)
    if t.size:
        # source 1: samples beat tier rows on last_t ties
        samples = {"time": t, "sum": v, "count": None, "min": v, "max": v, "last_t": t, "last_v": v}
        entries.append(_partial_rows(samples, lens, gidxs, ranks, grid_t0, step, 1))
    singleton = w["singleton"]
    if p["instant_tiers"] and singleton is not None and not lens.all():
        # a singleton group whose raw ring aged past the window is served
        # from the tiers (per series, so still partition-invariant)
        synth = []
        for i in np.flatnonzero((lens == 0) & singleton).tolist():
            row = _instant_partials(state, int(sids[i]), grid_t0, t1_hi)
            if row is not None:
                synth.append((int(gidxs[i]), row))
        if synth:
            tier_res = max([r["resolution"] for _, r in synth] + [tier_res or 0.0])
            entries.append({
                "gidx": np.array([g for g, _ in synth], dtype=np.int64),
                "rank": np.zeros(len(synth), dtype=np.int64),
                "bin": np.zeros(len(synth), dtype=np.int64),
                "source": np.zeros(len(synth), dtype=np.int64),
                **{
                    name: np.array([r[name] for _, r in synth])
                    for name in ("sum", "count", "min", "max", "last_t", "last_v")
                },
            })
    if not entries:
        return None
    return entries, tier_res


def scatter_rate(state: ShardState, w: Dict):
    """Range-rate pass: per-``(series, bin)`` reset-clamped increases,
    each attributed to the bin of its later sample."""
    sids, gidxs, ranks, p = w["sids"], w["gidxs"], w["ranks"], w["params"]
    grid_t0, t1_hi, step = p["grid_t0"], p["t1_hi"], p["step"]
    t, v, lens = state.raw.windows(sids, grid_t0, t1_hi, right_inclusive=False)
    later = ~_first_rows(lens, t.size)  # every sample but a window's first closes an increase
    if not later.any():
        return None
    inc = counter_increase(v)[later[1:]]
    series_pos = np.repeat(np.arange(lens.size), lens)[later]
    bins = _bin_of(t[later], grid_t0, step)
    starts, _ = segment_bounds(series_pos, bins)
    sel = series_pos[starts]
    return {
        "gidx": gidxs[sel],
        "rank": ranks[sel],
        "bin": bins[starts],
        "inc": np.add.reduceat(inc, starts),
    }


def scatter_instant_rate(state: ShardState, w: Dict):
    """Instant-rate pass: per-series total increases (+ tier fallback);
    returns them and the coarsest tier resolution used (``None``: raw)."""
    sids, gidxs, ranks, p = w["sids"], w["gidxs"], w["ranks"], w["params"]
    t0, t1 = p["t0"], p["t1"]
    t, v, lens = state.raw.windows(sids, t0, t1, right_inclusive=True)
    inc = counter_increase(v)[~_first_rows(lens, t.size)[1:]]
    n_inc = np.maximum(lens - 1, 0)
    totals = np.zeros(sids.size)
    # sum each series' increases as a whole-array reduce would (pairwise):
    # the windows of one length as the rows of one 2-D block
    inc_start = np.cumsum(n_inc) - n_inc
    for n in np.unique(n_inc[n_inc > 0]).tolist():
        rows = np.flatnonzero(n_inc == n)
        totals[rows] = np.add.reduce(inc[inc_start[rows, None] + np.arange(n)], axis=1)
    has = n_inc > 0
    tier_res: Optional[float] = None
    singleton = w["singleton"]
    if p["tier_fallback"] and singleton is not None and not has.all():
        # aged-out singleton counter: the increase comes from rollup
        # bin-end values (see _instant_rate) — per series, so still
        # partition-invariant
        for i in np.flatnonzero(~has & singleton).tolist():
            hit = _instant_rate(state, int(sids[i]), t0, t1)
            if hit is not None:
                totals[i], has[i] = hit[0], True
                tier_res = max(tier_res or 0.0, hit[1])
    if not has.any():
        return None
    return {"gidx": gidxs[has], "rank": ranks[has], "total": totals[has]}, tier_res


def scatter_sampled(state: ShardState, w: Dict):
    """Percentile pass: pooled raw samples keyed by ``(group, bin)``."""
    sids, gidxs, p = w["sids"], w["gidxs"], w["params"]
    grid_t0, t1_hi, step, n_bins = p["grid_t0"], p["t1_hi"], p["step"], p["n_bins"]
    t, v, lens = state.raw.windows(sids, grid_t0, t1_hi, right_inclusive=step is None)
    if not t.size:
        return None
    return {"comp": np.repeat(gidxs * n_bins, lens) + _bin_of(t, grid_t0, step), "v": v}


def scatter_samples(state: ShardState, w: Dict):
    """Raw-sample extraction pass (``samples()``): the samples with
    ``t0 <= t <= t1`` and ``t > since``.

    ``gidxs`` carries each series' position in the engine's selection
    order; every sample comes back labeled with it (``sel``) so the
    gather pools them in selection order whatever the partition.
    """
    sids, gidxs, p = w["sids"], w["gidxs"], w["params"]
    t0, t1, since = p["t0"], p["t1"], p["since"]
    if since is not None:
        t0 = max(t0, float(np.nextafter(since, np.inf)))
    t, v, lens = state.raw.windows(sids, t0, t1, right_inclusive=True)
    if not t.size:
        return None
    return {"sel": np.repeat(gidxs, lens), "times": t, "values": v}


#: Scatter pass per query kind.
SCATTER_FNS = {
    "partial": scatter_partial,
    "rate": scatter_rate,
    "instant_rate": scatter_instant_rate,
    "sampled": scatter_sampled,
    "samples": scatter_samples,
}


def grid_stats(grids: Dict) -> Dict[str, float]:
    """Update counters summed over the standing grids of one place."""
    return {
        "updates_applied": float(sum(g.updates_applied for g in grids.values())),
        "late_dropped": float(sum(g.late_dropped for g in grids.values())),
    }


# --------------------------------------------------------------------------
# The shard passes: ``(state, payload) -> result``.


def scatter_pass(state: ShardState, p: Dict):
    """One query kind's scatter over the planned series of the pass."""
    return SCATTER_FNS[p["kind"]](state, p)


def standing_pass(state: ShardState, p: Dict) -> Tuple[Optional[Dict[str, np.ndarray]], Dict]:
    """The standing block of the pass — :meth:`StandingGrid.block` of
    its planned ``sids``, or ``None`` when the state here cannot cover the
    window: no grid of ``step`` on this side, or a series whose ring
    holds data the grid never saw — and the update counters of the
    grids here."""
    grid = state.standing.get(p["step"])
    sids, b0 = p["sids"], p["b0"]
    if grid is None or any(state.raw.count(sid) > 0 for sid in grid.incomplete(sids, b0).tolist()):
        cells = None  # incomplete state only matters for a series holding data
    else:
        cells = grid.block(sids, b0, p["b1"], p["columns"])
    return cells, grid_stats(state.standing)


def fold_pass(state: ShardState, p: Dict) -> Dict[str, int]:
    """Fold the place's tiers up to a boundary; reports the rows written
    and the late samples dropped since the folder's last report."""
    written = state.folder.fold(p["boundary"])
    late, state.folder.late_dropped = state.folder.late_dropped, 0
    return {"written": written, "late": late}


#: Pass per task kind — the kinds a worker pool's dispatch carries.
SHARD_PASSES = {"scatter": scatter_pass, "standing": standing_pass, "fold": fold_pass}

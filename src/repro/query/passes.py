"""Shard passes: what runs on one place of a store.

A *place* is where series live — the one place of a plain
:class:`~repro.telemetry.tsdb.TimeSeriesStore`, or one shard of a
sharded store.  :class:`ShardState` is a place as a pass sees it: its
raw rings, rollup tiers, fold kernel and standing grids, every one
addressed by the place's own series ids.  :data:`SHARD_PASSES` are the
functions ``(state, payload) -> result`` that run there — the scatter
passes of a query, the standing read and the rollup fold.  The engine
(:meth:`~repro.query.engine.QueryEngine._run_on_shards`) runs them in
process; a pool worker (:mod:`repro.shard.parallel`) runs the very same
functions over its shared-memory mappings of the same columns, so
payloads and results hold only arrays and plain values.

Scatter passes compute *per-series partial rows*: windowed reads
stitched from the place's rollup tier plus its raw tail, reduced per
``(series, bin)`` with ``reduceat`` (sum/count/min/max/last partials,
counter increases for ``rate``, pooled samples for percentiles).  A
series never splits across places and its arithmetic happens here, so
the engine's canonical gather sees the same rows whatever the store's
partition — which is what makes every execution shape answer alike.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.query.kernels import counter_increase, segment_bounds
from repro.query.rollup import CascadeFolder, TierStore
from repro.telemetry.tsdb import RawRings


class ShardState:
    """One place as a pass sees it, on whichever side runs the pass.

    The engine builds it over the place's rings, its rollup cascade and
    the standing grids kept beside it; a pool worker keeps one per shard
    it owns over its mappings of the same shared-memory blocks and its
    own grids.
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


class ShardReader:
    """Sid-addressed reads of one place for the scatter passes.

    ``tier`` is the pre-selected rollup tier for the running query (or
    ``None``); the place's whole cascade serves the instant-query
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

    def _aged_out_rows(self, sid: int, t0: float, t1: float, need: int):
        """``(resolution, rows)``: the rows of the finest tier holding at
        least ``need`` bins **fully inside** ``[t0, t1]`` for a series
        whose raw ring no longer reaches back to ``t0`` — else ``None``.

        While the ring still covers the window the raw scan (and the
        brute-force reference) sees it all, so the tiers serve only what
        the ring has lost: strictly more history, never a different
        answer for data the ring still holds.  Partially overlapping
        bins are left out — their statistics would mix samples from
        outside the window.
        """
        if self._tiers is None:
            return None
        earliest = self._raw.earliest_time(sid)
        if earliest is None or earliest <= t0:
            return None
        for tier in self._tiers.tiers:  # finest first: freshest detail
            rows = tier.window(sid, t0, t1)
            if rows is None:
                continue
            keep = rows["time"] + tier.resolution_s <= t1
            if int(keep.sum()) >= need:
                return tier.resolution_s, {name: col[keep] for name, col in rows.items()}
        return None

    def instant_partials(self, sid: int, t0: float, t1: float) -> Optional[Dict[str, float]]:
        """Pooled ``(sum, count, min, max, last_t, last_v, resolution)``
        of an aged-out instant window, from the tiers."""
        hit = self._aged_out_rows(sid, t0, t1, 1)
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

    def instant_rate(self, sid: int, t0: float, t1: float) -> Optional[Tuple[float, float]]:
        """``(increase, resolution)`` of an aged-out counter window: the
        reset-clamped deltas of consecutive bins' ``last_v`` — the
        counter sampled at bin ends, so increases swallowed by an
        intra-bin reset are lost and the answer is a floor, never an
        overcount."""
        hit = self._aged_out_rows(sid, t0, t1, 2)
        if hit is None:
            return None
        res, rows = hit
        return float(np.sum(counter_increase(rows["last_v"]))), res


def _bin_of(times: np.ndarray, grid_t0: float, step: Optional[float]) -> np.ndarray:
    if step is None:  # instant query: everything pools into one bin
        return np.zeros(times.size, dtype=np.int64)
    return ((times - grid_t0) // step).astype(np.int64)


def _series_pos(lens: List[int]) -> np.ndarray:
    """Chunk position of every row of chunks of ``lens`` rows."""
    return np.repeat(np.arange(len(lens)), lens)


def _read_window(reader, sid, lo: float, hi: float, right_exclusive: bool):
    """Raw window read: ``[lo, hi)`` for range queries (half-open bins),
    ``[lo, hi]`` inclusive for instant queries."""
    times, values = reader.window(sid, lo, hi)
    if right_exclusive and times.size and times[-1] >= hi:
        keep = times < hi
        times, values = times[keep], values[keep]
    return times, values


def _sample_entries(
    t_chunks: List[np.ndarray],
    v_chunks: List[np.ndarray],
    gidxs: List[int],
    ranks: List[int],
    grid_t0: float,
    step: Optional[float],
) -> Dict[str, np.ndarray]:
    """Per-``(series, bin)`` partial rows from raw sample windows.

    Chunks are per-series and time-sorted, so the rows of one ``(series,
    bin)`` are adjacent and every statistic reduces with one ``reduceat``
    pass — ``last`` falls out of the segment tails (latest time; ties
    resolve to the later sample).
    """
    t = np.concatenate(t_chunks)
    v = np.concatenate(v_chunks)
    series_pos = _series_pos([c.size for c in t_chunks])
    bins = _bin_of(t, grid_t0, step)
    starts, ends = segment_bounds(series_pos, bins)
    sel = series_pos[starts]
    return {
        "gidx": np.asarray(gidxs, dtype=np.int64)[sel],
        "rank": np.asarray(ranks, dtype=np.int64)[sel],
        "bin": bins[starts],
        "source": np.ones(starts.size, dtype=np.int64),  # samples beat rows on last_t ties
        "sum": np.add.reduceat(v, starts),
        "count": (ends - starts).astype(np.float64),
        "min": np.minimum.reduceat(v, starts),
        "max": np.maximum.reduceat(v, starts),
        "last_t": t[ends - 1],
        "last_v": v[ends - 1],
    }


def _row_entries(
    row_chunks: List[Dict[str, np.ndarray]],
    gidxs: List[int],
    ranks: List[int],
    grid_t0: float,
    step: float,
) -> Dict[str, np.ndarray]:
    """Per-``(series, bin)`` partial rows from rollup-tier rows."""
    cols = {
        name: np.concatenate([c[name] for c in row_chunks])
        for name in ("time", "sum", "count", "min", "max", "last_t", "last_v")
    }
    series_pos = _series_pos([c["time"].size for c in row_chunks])
    bins = _bin_of(cols["time"], grid_t0, step)
    starts, ends = segment_bounds(series_pos, bins)
    sel = series_pos[starts]
    return {
        "gidx": np.asarray(gidxs, dtype=np.int64)[sel],
        "rank": np.asarray(ranks, dtype=np.int64)[sel],
        "bin": bins[starts],
        "source": np.zeros(starts.size, dtype=np.int64),
        "sum": np.add.reduceat(cols["sum"], starts),
        "count": np.add.reduceat(cols["count"], starts),
        "min": np.minimum.reduceat(cols["min"], starts),
        "max": np.maximum.reduceat(cols["max"], starts),
        # tier rows of one series are time-ordered, so the segment tail
        # carries the latest underlying sample of the (series, bin)
        "last_t": cols["last_t"][ends - 1],
        "last_v": cols["last_v"][ends - 1],
    }


# --------------------------------------------------------------------------
# Scatter passes.  Each computes one place's contribution to one query
# kind from a reader + worklist columns (``sids`` are the place's series
# ids), returning plain dict-of-array partials that the engine gathers.


def scatter_partial(
    reader, sids: list, gidxs: List[int], ranks: List[int],
    singleton: Optional[list], p: Dict,
) -> Optional[Tuple[List[Dict[str, np.ndarray]], Optional[float]]]:
    """Partial-aggregate pass: tier rows + raw tails + aged-out synth.
    Returns the row tables and the coarsest tier resolution that served
    any of them (``None``: raw only)."""
    grid_t0, t1_hi, step = p["grid_t0"], p["t1_hi"], p["step"]
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
    for i, sid in enumerate(sids):
        gidx, rank = gidxs[i], ranks[i]
        cut = grid_t0
        if tier is not None:
            wm = reader.watermark(sid)
            if wm is not None:
                cut = min(max(wm, grid_t0), t1_hi)
            rows = reader.rows(sid, grid_t0, cut)
            if rows is not None and rows["time"].size:
                row_chunks.append(rows)
                r_gidx.append(gidx)
                r_rank.append(rank)
        times, values = _read_window(reader, sid, cut, t1_hi, step is not None)
        if times.size:
            st_chunks.append(times)
            sv_chunks.append(values)
            s_gidx.append(gidx)
            s_rank.append(rank)
        elif instant_tiers and singleton is not None and singleton[i]:
            # a singleton group whose raw ring aged past the window is
            # served from the place's tiers (per series and local to the
            # place, so still partition-invariant)
            row = reader.instant_partials(sid, grid_t0, t1_hi)
            if row is not None:
                synth.append((gidx, row))
    entries: List[Dict[str, np.ndarray]] = []
    tier_res: Optional[float] = None
    if row_chunks:
        tier_res = tier.resolution_s
        entries.append(_row_entries(row_chunks, r_gidx, r_rank, grid_t0, step))
    if st_chunks:
        entries.append(_sample_entries(st_chunks, sv_chunks, s_gidx, s_rank, grid_t0, step))
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


def scatter_rate(
    reader, sids: list, gidxs: List[int], ranks: List[int],
    singleton: Optional[list], p: Dict,
) -> Optional[Dict[str, np.ndarray]]:
    """Range-rate pass: per-``(series, bin)`` reset-clamped increases."""
    grid_t0, t1_hi, step = p["grid_t0"], p["t1_hi"], p["step"]
    inc_chunks: List[np.ndarray] = []
    bin_chunks: List[np.ndarray] = []
    g_list: List[int] = []
    r_list: List[int] = []
    for i, sid in enumerate(sids):
        times, values = _read_window(reader, sid, grid_t0, t1_hi, True)
        if times.size < 2:
            continue
        inc_chunks.append(counter_increase(values))
        bin_chunks.append(_bin_of(times[1:], grid_t0, step))
        g_list.append(gidxs[i])
        r_list.append(ranks[i])
    if not inc_chunks:
        return None
    bins = np.concatenate(bin_chunks)
    series_pos = _series_pos([c.size for c in inc_chunks])
    starts, _ = segment_bounds(series_pos, bins)
    sel = series_pos[starts]
    return {
        "gidx": np.asarray(g_list, dtype=np.int64)[sel],
        "rank": np.asarray(r_list, dtype=np.int64)[sel],
        "bin": bins[starts],
        "inc": np.add.reduceat(np.concatenate(inc_chunks), starts),
    }


def scatter_instant_rate(
    reader, sids: list, gidxs: List[int], ranks: List[int],
    singleton: Optional[list], p: Dict,
) -> Optional[Tuple[Dict[str, np.ndarray], Optional[float]]]:
    """Instant-rate pass: per-series total increases (+ tier fallback);
    returns them and the coarsest tier resolution used (``None``: raw)."""
    t0, t1 = p["t0"], p["t1"]
    totals: List[float] = []
    g_list: List[int] = []
    r_list: List[int] = []
    tier_res: Optional[float] = None
    for i, sid in enumerate(sids):
        _, values = reader.window(sid, t0, t1)
        inc = counter_increase(values)
        if inc.size:
            totals.append(np.add.reduce(inc))
        elif p["tier_fallback"] and singleton is not None and singleton[i]:
            # aged-out singleton counter: the increase comes from rollup
            # bin-end values (see ShardReader.instant_rate) — local to the place,
            # so still partition-invariant
            hit = reader.instant_rate(sid, t0, t1)
            if hit is None:
                continue
            totals.append(hit[0])
            tier_res = max(tier_res or 0.0, hit[1])
        else:
            continue
        g_list.append(gidxs[i])
        r_list.append(ranks[i])
    if not totals:
        return None
    return {
        "gidx": np.asarray(g_list, dtype=np.int64),
        "rank": np.asarray(r_list, dtype=np.int64),
        "total": np.asarray(totals, dtype=np.float64),
    }, tier_res


def scatter_sampled(
    reader, sids: list, gidxs: List[int], ranks: List[int],
    singleton: Optional[list], p: Dict,
) -> Optional[Dict[str, np.ndarray]]:
    """Percentile pass: pooled raw samples keyed by ``(group, bin)``."""
    grid_t0, t1_hi, step, n_bins = p["grid_t0"], p["t1_hi"], p["step"], p["n_bins"]
    v_chunks: List[np.ndarray] = []
    comp_chunks: List[np.ndarray] = []
    for i, sid in enumerate(sids):
        times, values = _read_window(reader, sid, grid_t0, t1_hi, step is not None)
        if times.size:
            v_chunks.append(values)
            comp_chunks.append(gidxs[i] * n_bins + _bin_of(times, grid_t0, step))
    if not v_chunks:
        return None
    return {"comp": np.concatenate(comp_chunks), "v": np.concatenate(v_chunks)}


def scatter_samples(
    reader, sids: list, gidxs: List[int], ranks: List[int],
    singleton: Optional[list], p: Dict,
) -> Optional[Dict[str, list]]:
    """Raw-sample extraction pass (``samples()``).

    ``gidxs`` carries each series' position in the engine's selection
    order; per-series chunks come back labeled with it so the gather
    pools them in selection order whatever the partition.
    """
    t0, t1, since = p["t0"], p["t1"], p["since"]
    sels: List[int] = []
    t_chunks: List[np.ndarray] = []
    v_chunks: List[np.ndarray] = []
    for i, sid in enumerate(sids):
        times, values = reader.window(sid, t0, t1)
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


def standing_rows(
    grids: Dict, raw: RawRings, step: float, sids: np.ndarray, gidx: np.ndarray,
    rank: np.ndarray, b0: int, b1: int, want_rate: bool,
) -> Optional[Dict[str, np.ndarray]]:
    """The standing read of one place: partial rows of the planned series
    ``sids`` (with their ``gidx`` / ``rank`` attached, bins counted from
    ``b0``) from the grid of ``step``, or ``None`` when the state here
    cannot cover the window — no such grid on this side, or a series
    whose ring holds data the grid never saw."""
    grid = grids.get(step)
    if grid is None:
        return None
    for sid in grid.incomplete(sids, b0).tolist():
        # incomplete state only matters if the series actually holds
        # data the batch scan would see
        if raw.count(sid) > 0:
            return None
    rows = grid.rows(sids, b0, b1, want_rate=want_rate)
    spos = rows.pop("spos")
    rows["gidx"] = gidx[spos]
    rows["rank"] = rank[spos]
    rows["bin"] -= b0
    rows["source"] = np.ones(spos.size, dtype=np.int64)  # grid rows are pooled samples
    return rows


def grid_stats(grids: Dict) -> Dict[str, float]:
    """Update counters summed over the standing grids of one place."""
    return {
        "updates_applied": float(sum(g.updates_applied for g in grids.values())),
        "late_dropped": float(sum(g.late_dropped for g in grids.values())),
    }


# --------------------------------------------------------------------------
# The shard passes: ``(state, payload) -> result``.


def scatter_pass(state: ShardState, p: Dict):
    """One query kind's scatter over the planned series of the place."""
    return SCATTER_FNS[p["kind"]](
        ShardReader(state, p["params"].get("tier_idx")),
        p["sids"], p["gidxs"], p["ranks"], p["singleton"], p["params"],
    )


def standing_pass(state: ShardState, p: Dict) -> Tuple[Optional[Dict[str, np.ndarray]], Dict]:
    """The place's standing rows (``None``: not covered by the grids on
    this side) and the update counters of those grids."""
    rows = standing_rows(
        state.standing, state.raw, p["step"], p["sids"], p["gidxs"], p["ranks"],
        p["b0"], p["b1"], p["want_rate"],
    )
    return rows, grid_stats(state.standing)


def fold_pass(state: ShardState, p: Dict) -> Dict[str, int]:
    """Fold the place's tiers up to a boundary; reports the rows written
    and the late samples dropped since the folder's last report."""
    written = state.folder.fold(p["boundary"])
    late, state.folder.late_dropped = state.folder.late_dropped, 0
    return {"written": written, "late": late}


#: Pass per task kind — the kinds a worker pool's dispatch carries.
SHARD_PASSES = {"scatter": scatter_pass, "standing": standing_pass, "fold": fold_pass}

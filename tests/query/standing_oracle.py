"""The sparse standing read and the per-series backfill: the oracle for
the block read and for ``StandingGrid.backfill_many``.

This is the standing read as it ran before reads moved ``(series ×
bin)`` blocks: each place's grid taken apart into its non-empty
``(series, bin)`` partial rows (:func:`grid_rows`), the rows of every
place merged by the batch engine's canonical gather
(:func:`~repro.query.engine.reduce_partial`) or assembled into a rate
(:func:`assemble_rate`).  It runs as a shard pass of its own kind,
:data:`KIND`, so it reads the very grids a block read does — in process
or inside the pool workers, which fork from a process where
:func:`install` put the pass in the pass table.  The arithmetic is
unchanged, so the comparison is exact, not a tolerance.
"""

import math
from typing import Dict, List, Optional

import numpy as np

from repro.query import passes
from repro.query.engine import QueryEngine, ResultSeries, build_series, concat_rows, reduce_partial
from repro.query.kernels import segment_bounds
from repro.query.standing import _NEG_BIG, StandingGrid, StandingQueryEngine

#: the pass kind the sparse read runs under
KIND = "standing_rows"


def install(monkeypatch) -> None:
    """Add the sparse read to the shard pass table — before any pool
    whose workers should run it starts (they fork with the table)."""
    monkeypatch.setitem(passes.SHARD_PASSES, KIND, rows_pass)


def grid_rows(
    grid: StandingGrid, sids: np.ndarray, b0: int, b1: int, *, want_rate: bool = False
) -> Dict[str, np.ndarray]:
    """Non-empty ``(series, bin)`` partial rows for absolute bins
    ``[b0, b1]``; ``spos`` indexes into ``sids``."""
    if want_rate and not grid.track_rate:
        raise ValueError("grid does not maintain rate state")
    sids = np.asarray(sids, dtype=np.int64)
    b_hi = b0 - 1 if grid.hi_bin is None else min(b1, grid.hi_bin)
    pos = np.nonzero(sids < grid._cap)[0]
    ssub = sids[pos]
    cols = (b0 + np.arange(max(b_hi - b0 + 1, 0))) % grid.n_slots
    sub = grid.count[np.ix_(ssub, cols)]
    r, c = np.nonzero(sub > 0.0)
    sel_s = ssub[r]
    sel_c = cols[c]
    out = {
        "spos": pos[r],
        "bin": (b0 + c).astype(np.int64),
        "sum": grid.sum[sel_s, sel_c],
        "count": sub[r, c],
        "min": grid.vmin[sel_s, sel_c],
        "max": grid.vmax[sel_s, sel_c],
        "last_t": grid.last_t[sel_s, sel_c],
        "last_v": grid.last_v[sel_s, sel_c],
    }
    if want_rate:
        out["inc"] = grid.inc[sel_s, sel_c]
        out["first_inc"] = grid.first_inc[sel_s, sel_c]
    return out


def rows_pass(state, p: Dict) -> Optional[Dict[str, np.ndarray]]:
    """The sparse standing read of one place: partial rows of the planned
    series (their ``gidx`` / ``rank`` attached, bins counted from ``b0``),
    or ``None`` when the state here cannot cover the window."""
    grid = state.standing.get(p["step"])
    if grid is None:
        return None
    for sid in grid.incomplete(p["sids"], p["b0"]).tolist():
        if state.raw.count(sid) > 0:
            return None
    rows = grid_rows(grid, p["sids"], p["b0"], p["b1"], want_rate=p["want_rate"])
    spos = rows.pop("spos")
    rows["gidx"] = p["gidxs"][spos]
    rows["rank"] = p["ranks"][spos]
    rows["bin"] -= p["b0"]
    rows["source"] = np.ones(spos.size, dtype=np.int64)
    return rows


def assemble_rate(labels, chunks: List[Dict[str, np.ndarray]], grid_t0: float, step: float):
    """Windowed rate from the maintained increases of every place's rows."""
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


def read(st: StandingQueryEngine, q, at: float) -> Optional[List[ResultSeries]]:
    """The sparse read of registered ``q`` at ``at`` over the grids of
    ``st`` (``None``: not covered, the batch engine would answer)."""
    step = q.step_s
    t0 = at - q.range_s
    grid_t0, n_bins = QueryEngine._grid(t0, at, step)
    b0 = int(math.floor(t0 / step))
    plan = st.engine.plan(q)
    tasks = [
        (s, {"step": step, "sids": w.sids, "gidxs": w.gidx, "ranks": w.rank,
             "b0": b0, "b1": b0 + n_bins - 1, "want_rate": q.agg == "rate"})
        for s, w in enumerate(plan.shards) if w.sids.size
    ]
    chunks = st.engine._run_on_shards(KIND, tasks)
    if any(rows is None for rows in chunks):
        return None
    if q.agg == "rate":
        return assemble_rate(plan.labels, chunks, grid_t0, step)
    return reduce_partial(chunks, q.agg, plan.labels, grid_t0, step)


def backfill_series(
    grid: StandingGrid, sid: int, times: np.ndarray, values: np.ndarray, *,
    evicted: bool, floor: Optional[float] = None,
) -> None:
    """Bootstrap one series from its retained ring window, by itself."""
    sid = int(sid)
    if sid >= grid._cap:
        grid._grow(sid + 1)
    grid._known[sid] = True
    grid._tracked[sid] = True
    if floor is not None:
        grid._floor_t[sid] = float(floor)
        grid._has_floor = True
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.size == 0:
        grid.complete_from[sid] = _NEG_BIG
        return
    bins = np.floor(times / grid.step).astype(np.int64)
    inc = has_pred = None
    if grid.track_rate:
        deltas = np.diff(values)
        inc = np.concatenate([[0.0], np.where(deltas >= 0.0, deltas, values[1:])])
        has_pred = np.ones(times.size, dtype=bool)
        has_pred[0] = False
        grid._prev_t[sid] = times[-1]
        grid._prev_v[sid] = values[-1]
    grid._advance(int(bins[-1]))
    lo = int(bins[0]) + 1 if evicted else _NEG_BIG
    grid.complete_from[sid] = lo
    lo_valid = grid.hi_bin - grid.n_slots + 1
    keep = bins >= max(lo, lo_valid)
    if not keep.all():
        times, values, bins = times[keep], values[keep], bins[keep]
        if grid.track_rate:
            inc, has_pred = inc[keep], has_pred[keep]
        if times.size == 0:
            return
    ids = np.full(times.size, sid, dtype=np.int64)
    grid._fold_segments(ids, times, values, bins, inc, has_pred)
    grid.updates_applied += int(times.size)

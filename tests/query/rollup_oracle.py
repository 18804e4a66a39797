"""Per-series rollup fold: the oracle for the batched kernel.

This is the fold as it ran before :class:`repro.query.rollup.CascadeFolder`
batched it — one series at a time through ``PartialBins``, a row ring per
``(tier, series)`` — kept as the reference the batched fold must match
byte for byte: rows, watermarks, late-sample and written counts.  The
arithmetic is unchanged, so the comparison is exact, not a tolerance.
"""

import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.query.kernels import PartialBins
from repro.query.rollup import ROW_COLUMNS
from repro.telemetry.batch import sort_series_columns
from repro.telemetry.tsdb import ring_window


def ring_extend(
    arrays: Iterable[np.ndarray],
    head: int,
    count: int,
    new_cols: Iterable[np.ndarray],
) -> Tuple[int, int]:
    """Bulk-append parallel columns into parallel ring arrays.

    Returns the new ``(head, count)``.  Handles the three write shapes:
    whole-ring replacement (``n >= capacity``), contiguous, and split
    across the wrap point.  Callers validate ordering/overlap.
    """
    arrays = list(arrays)
    new_cols = list(new_cols)
    capacity = arrays[0].shape[0]
    n = int(new_cols[0].size)
    if n == 0:
        return head, count
    if n >= capacity:
        for dst, src in zip(arrays, new_cols):
            dst[:] = src[-capacity:]
        return 0, capacity
    end = head + n
    if end <= capacity:
        for dst, src in zip(arrays, new_cols):
            dst[head:end] = src
    else:
        split = capacity - head
        for dst, src in zip(arrays, new_cols):
            dst[head:] = src[:split]
            dst[: end % capacity] = src[split:]
    return end % capacity, min(count + n, capacity)


class StatRing:
    """Fixed-capacity ring of one series' rollup rows."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._cols = {name: np.empty(capacity, dtype=np.float64) for name in ROW_COLUMNS}
        self._head = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def append_rows(self, cols: Dict[str, np.ndarray]) -> None:
        self._head, self._count = ring_extend(
            (self._cols[name] for name in ROW_COLUMNS),
            self._head,
            self._count,
            (cols[name] for name in ROW_COLUMNS),
        )

    def window(self, t0: float, t1: float) -> Dict[str, np.ndarray]:
        rings = np.stack([self._cols[name] for name in ROW_COLUMNS])
        rows = ring_window(rings, self._head, self._count, t0, t1, right_inclusive=False)
        return dict(zip(ROW_COLUMNS, rows))


def _partial_to_rows(
    partial: PartialBins, grid_t0: float, resolution: float
) -> Dict[str, np.ndarray]:
    nz = partial.nonempty()
    return {
        "time": grid_t0 + nz * resolution,
        "sum": partial.sum[nz],
        "count": partial.count[nz],
        "min": partial.vmin[nz],
        "max": partial.vmax[nz],
        "last_t": partial.last_t[nz],
        "last_v": partial.last_v[nz],
    }


def fold_segment_rows(
    times: np.ndarray, values: np.ndarray, wm: float, resolution: float
) -> Tuple[Optional[Dict[str, np.ndarray]], int]:
    """Rows from one series' buffered columns (time-sorted, all below the
    fold boundary); returns ``(rows, late_samples_dropped)``."""
    if times[-1] < wm:
        return None, int(times.size)
    dropped = 0
    if times[0] < wm:
        cut = int(np.searchsorted(times, wm, side="left"))
        dropped = cut
        times, values = times[cut:], values[cut:]
    bin_idx = np.floor(times / resolution).astype(np.int64)
    base = int(bin_idx[0])
    partial = PartialBins(int(bin_idx[-1]) - base + 1)
    partial.add_samples(bin_idx - base, times, values)
    return _partial_to_rows(partial, base * resolution, resolution), dropped


def fold_rawscan_rows(
    times: np.ndarray, values: np.ndarray, start: float, boundary: float, resolution: float
) -> Optional[Dict[str, np.ndarray]]:
    """Rows from a raw-ring window scan of ``[start, boundary)``."""
    keep = times < boundary
    times, values = times[keep], values[keep]
    if times.size == 0:
        return None
    n_bins = int(round((boundary - start) / resolution))
    bin_idx = np.floor((times - start) / resolution).astype(np.int64)
    partial = PartialBins(n_bins)
    partial.add_samples(bin_idx, times, values)
    return _partial_to_rows(partial, start, resolution)


def fold_cascade_rows(
    rows: Dict[str, np.ndarray], start: float, boundary: float, resolution: float
) -> Dict[str, np.ndarray]:
    """Coarse rows folded from fine-tier rows of ``[start, boundary)``."""
    n_bins = int(round((boundary - start) / resolution))
    bin_idx = np.floor((rows["time"] - start) / resolution).astype(np.int64)
    partial = PartialBins(n_bins)
    partial.add_rows(
        bin_idx,
        rows["sum"],
        rows["count"],
        rows["min"],
        rows["max"],
        rows["last_t"],
        rows["last_v"],
    )
    return _partial_to_rows(partial, start, resolution)


class OracleFolder:
    """The per-series cascade fold over ``{sid: StatRing}`` tiers.

    ``raw`` is the sid-addressed raw reader (``len``, ``earliest_time``,
    ``window``); ``n_sids`` is how many series ids currently have tier
    storage — ids beyond it are deferred, as in the dense store.
    """

    def __init__(self, resolutions, capacity: int, raw, buffer_cap: int = 1 << 18) -> None:
        self.resolutions = [float(r) for r in resolutions]
        self.capacity = capacity
        self._raw = raw
        self._buffer_cap = buffer_cap
        self.n_sids = 0
        self.wm: List[Dict[int, float]] = [dict() for _ in self.resolutions]
        self.rings: List[Dict[int, StatRing]] = [dict() for _ in self.resolutions]
        self._buffered: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._buffered_rows = 0
        self._floors: Dict[int, float] = {}
        self.late_dropped = 0

    # ---------------------------------------------------------------- reads
    def watermark(self, tier_idx: int, sid: int) -> Optional[float]:
        return self.wm[tier_idx].get(sid)

    def window(self, tier_idx: int, sid: int, t0: float, t1: float):
        ring = self.rings[tier_idx].get(sid)
        if ring is None or len(ring) == 0:
            return None
        return ring.window(t0, t1)

    # ----------------------------------------------------------------- fold
    def on_columns(self, ids: np.ndarray, times: np.ndarray, values: np.ndarray) -> None:
        self._buffered.append((ids, times, values))
        self._buffered_rows += int(ids.size)
        if self._buffered_rows > self._buffer_cap:
            res = self.resolutions[0]
            max_t = max(float(c[1].max()) for c in self._buffered if c[1].size)
            self._fold_tier0(math.floor(max_t / res) * res)

    def fold(self, boundary: float) -> int:
        written = self._fold_tier0(boundary)
        for ti in range(len(self.resolutions) - 1):
            for sid in range(min(len(self._raw), self.n_sids)):
                written += self._fold_cascade(ti, sid)
        return written

    def _append_rows(self, tier_idx: int, sid: int, rows: Dict[str, np.ndarray]) -> int:
        ring = self.rings[tier_idx].get(sid)
        if ring is None:
            ring = self.rings[tier_idx][sid] = StatRing(self.capacity)
        ring.append_rows(rows)
        return int(rows["time"].size)

    def _fold_tier0(self, boundary: float) -> int:
        res = self.resolutions[0]
        wm0 = self.wm[0]
        written = 0
        if self._buffered:
            chunks, self._buffered = self._buffered, []
            self._buffered_rows = 0
            ids = np.concatenate([c[0] for c in chunks])
            times = np.concatenate([c[1] for c in chunks])
            values = np.concatenate([c[2] for c in chunks])
            complete = times < boundary
            if not complete.all():
                keep = ~complete
                self._buffered.append((ids[keep], times[keep], values[keep]))
                self._buffered_rows = int(keep.sum())
                ids, times, values = ids[complete], times[complete], values[complete]
            if ids.size:
                ids, times, values, starts, ends = sort_series_columns(ids, times, values)
                for lo, hi in zip(starts.tolist(), ends.tolist()):
                    sid = int(ids[lo])
                    floor_t = self._floors.get(sid)
                    if floor_t is None:
                        floor_t = float(times[lo])
                        self._floors[sid] = floor_t
                    if sid >= self.n_sids:
                        continue  # no tier storage yet; rawscan later
                    wm = wm0.get(sid)
                    if wm is not None and floor_t < wm:
                        rows, dropped = fold_segment_rows(times[lo:hi], values[lo:hi], wm, res)
                        self.late_dropped += dropped
                        if rows is not None:
                            written += self._append_rows(0, sid, rows)
                            wm0[sid] = boundary
        for sid in range(min(len(self._raw), self.n_sids)):
            wm = wm0.get(sid)
            if wm is not None and wm >= boundary:
                continue
            floor_t = self._floors.get(sid)
            if wm is not None and floor_t is not None and floor_t < wm:
                wm0[sid] = boundary  # buffer path covered it
            else:
                written += self._fold_tier0_rawscan(sid, wm, boundary)
        return written

    def _fold_tier0_rawscan(self, sid: int, start: Optional[float], boundary: float) -> int:
        res = self.resolutions[0]
        if start is None:
            first = self._raw.earliest_time(sid)
            if first is None:
                return 0
            start = math.floor(first / res) * res
        if boundary <= start:
            return 0
        times, values = self._raw.window(sid, start, boundary)
        rows = fold_rawscan_rows(times, values, start, boundary, res)
        self.wm[0][sid] = boundary
        if rows is None:
            return 0
        return self._append_rows(0, sid, rows)

    def _fold_cascade(self, ti: int, sid: int) -> int:
        fine_wm = self.wm[ti].get(sid)
        if fine_wm is None:
            return 0
        res = self.resolutions[ti + 1]
        boundary = math.floor(fine_wm / res) * res
        start = self.wm[ti + 1].get(sid)
        if start is None:
            rows = self.window(ti, sid, -np.inf, np.inf)
            if rows is None or rows["time"].size == 0:
                return 0
            start = math.floor(rows["time"][0] / res) * res
        if boundary <= start:
            return 0
        rows = self.window(ti, sid, start, boundary)
        self.wm[ti + 1][sid] = boundary
        if rows is None or rows["time"].size == 0:
            return 0
        return self._append_rows(ti + 1, sid, fold_cascade_rows(rows, start, boundary, res))

"""Vectorized binned-aggregation kernels.

These are the shared compute primitives of the query layer: every
downsample, rollup fold, and cross-series aggregation in the repo runs
through them.  The design constraint is **no per-bin Python loops** —
aggregation over an arbitrary number of bins costs a constant number of
NumPy passes (``np.bincount`` for additive statistics, one ``lexsort``
plus gather arithmetic for order statistics).

Two representations are used:

* :func:`grouped_aggregate` — sparse: maps ``(bin_idx, values)`` sample
  arrays straight to ``(unique_bins, aggregated)``.  This is the
  downsample/percentile path.
* :class:`PartialBins` — dense mergeable per-bin statistics
  ``(sum, count, min, max, last)``.  Partials computed from raw samples
  and from pre-aggregated rollup rows merge exactly, which is what lets
  the engine stitch a coarse historical tier onto a raw tail without
  approximation.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: Aggregators servable from (sum, count, min, max, last) partials.
PARTIAL_AGGS = ("mean", "sum", "count", "min", "max", "last")

#: Aggregators needing the full sample distribution (raw-only).
SAMPLE_ONLY_AGGS = ("p50", "p95", "p99")

#: Everything :func:`grouped_aggregate` understands.
ALL_AGGS = PARTIAL_AGGS + SAMPLE_ONLY_AGGS

_PERCENTILE_Q = {"p50": 50.0, "p95": 95.0, "p99": 99.0}


def _check_agg(agg: str) -> None:
    if agg not in ALL_AGGS:
        raise ValueError(f"unknown aggregator {agg!r}; choose from {sorted(ALL_AGGS)}")


def _bin_boundaries(compact: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-bin (start, count) offsets into an array sorted by compact bin."""
    counts = np.bincount(compact, minlength=k)
    ends = np.cumsum(counts)
    return ends - counts, counts


def _percentile_sorted(v_sorted: np.ndarray, starts: np.ndarray, counts: np.ndarray, q: float) -> np.ndarray:
    """Linear-interpolation percentile per bin over value-sorted samples.

    Matches ``np.percentile(..., method="linear")`` bin by bin without a
    Python loop: position arithmetic plus two gathers.
    """
    pos = (counts - 1) * (q / 100.0)
    lo = np.floor(pos).astype(np.int64)
    hi = np.ceil(pos).astype(np.int64)
    frac = pos - lo
    return v_sorted[starts + lo] * (1.0 - frac) + v_sorted[starts + hi] * frac


def grouped_aggregate(
    bin_idx: np.ndarray,
    values: np.ndarray,
    agg: str,
    times: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Aggregate ``values`` grouped by integer ``bin_idx``.

    Returns ``(unique_bins, aggregated)`` with empty bins absent, both
    sorted by bin.  ``times`` is required for ``last`` (latest-sample
    semantics; ties broken by input position, later wins).  Inputs need
    not be sorted.
    """
    _check_agg(agg)
    bin_idx = np.asarray(bin_idx, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if bin_idx.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    nz_bins, compact = np.unique(bin_idx, return_inverse=True)
    k = nz_bins.size
    if agg == "sum":
        out = np.bincount(compact, weights=values, minlength=k)
    elif agg == "count":
        out = np.bincount(compact, minlength=k).astype(np.float64)
    elif agg == "mean":
        out = np.bincount(compact, weights=values, minlength=k) / np.bincount(
            compact, minlength=k
        )
    elif agg == "last":
        if times is None:
            raise ValueError("agg='last' requires sample times")
        order = np.lexsort((np.arange(values.size), np.asarray(times), compact))
        v = values[order]
        starts, counts = _bin_boundaries(compact[order], k)
        out = v[starts + counts - 1]
    else:  # order statistics: min/max/percentiles over value-sorted bins
        order = np.lexsort((values, compact))
        v = values[order]
        starts, counts = _bin_boundaries(compact[order], k)
        if agg == "min":
            out = v[starts]
        elif agg == "max":
            out = v[starts + counts - 1]
        else:
            out = _percentile_sorted(v, starts, counts, _PERCENTILE_Q[agg])
    return nz_bins, out


def segment_bounds(*keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` of the runs of equal rows of the parallel key
    columns (rows sorted so that equal rows are adjacent)."""
    n = keys[0].size
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(keys[0][1:], keys[0][:-1], out=new[1:])
    for key in keys[1:]:
        new[1:] |= key[1:] != key[:-1]
    starts = new.nonzero()[0]
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = n
    return starts, ends


def counter_increase(values: np.ndarray) -> np.ndarray:
    """Reset-clamped per-sample increases of a counter series.

    Element ``i`` is the increase attributed to sample ``i+1``: the plain
    delta when the counter grew, or the new value itself after a reset
    (the counter restarted from zero, so everything it now shows is new
    growth).  Length is ``len(values) - 1``; empty for < 2 samples.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        return np.empty(0, dtype=np.float64)
    deltas = np.diff(values)
    return np.where(deltas >= 0.0, deltas, values[1:])


class PartialBins:
    """Dense mergeable per-bin statistics over a fixed bin grid.

    Holds ``(sum, count, min, max, last_t, last_v)`` per bin.  Samples
    and pre-aggregated rollup rows both fold in exactly, and two partial
    tables over the same grid merge exactly — the algebra behind tiered
    query serving.
    """

    __slots__ = ("n_bins", "sum", "count", "vmin", "vmax", "last_t", "last_v")

    def __init__(self, n_bins: int) -> None:
        if n_bins <= 0:
            raise ValueError("n_bins must be positive")
        self.n_bins = int(n_bins)
        self.sum = np.zeros(self.n_bins, dtype=np.float64)
        self.count = np.zeros(self.n_bins, dtype=np.float64)
        self.vmin = np.full(self.n_bins, np.inf)
        self.vmax = np.full(self.n_bins, -np.inf)
        self.last_t = np.full(self.n_bins, -np.inf)
        self.last_v = np.full(self.n_bins, np.nan)

    # ------------------------------------------------------------- folding
    def _fold(
        self,
        bin_idx: np.ndarray,
        sums: np.ndarray,
        counts: Optional[np.ndarray],
        mins: np.ndarray,
        maxs: np.ndarray,
        last_ts: np.ndarray,
        last_vs: np.ndarray,
    ) -> None:
        """Shared fold: one lexsort, then bincount/reduceat per statistic.

        ``lexsort((last_t, bin))`` groups rows by bin with the latest
        timestamp last in each segment — min/max only need the grouping
        (``reduceat`` scans each segment), and ``last`` falls out of the
        segment tail; lexsort stability breaks timestamp ties toward the
        later input position.
        """
        self.sum += np.bincount(bin_idx, weights=sums, minlength=self.n_bins)
        if counts is None:
            seg_counts = np.bincount(bin_idx, minlength=self.n_bins)
            self.count += seg_counts
        else:
            seg_counts = np.bincount(bin_idx, minlength=self.n_bins)
            self.count += np.bincount(bin_idx, weights=counts, minlength=self.n_bins)
        nz = np.nonzero(seg_counts)[0]
        order = np.lexsort((last_ts, bin_idx))
        ends = np.cumsum(seg_counts)[nz]
        starts = ends - seg_counts[nz]
        self.vmin[nz] = np.minimum(self.vmin[nz], np.minimum.reduceat(mins[order], starts))
        self.vmax[nz] = np.maximum(self.vmax[nz], np.maximum.reduceat(maxs[order], starts))
        tail = order[ends - 1]
        lt, lv = last_ts[tail], last_vs[tail]
        newer = lt >= self.last_t[nz]
        upd = nz[newer]
        self.last_t[upd] = lt[newer]
        self.last_v[upd] = lv[newer]

    def add_samples(self, bin_idx: np.ndarray, times: np.ndarray, values: np.ndarray) -> None:
        """Fold raw samples into the table (vectorized, any order)."""
        bin_idx = np.asarray(bin_idx, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if bin_idx.size == 0:
            return
        self._fold(bin_idx, values, None, values, values, times, values)

    def add_rows(
        self,
        bin_idx: np.ndarray,
        sums: np.ndarray,
        counts: np.ndarray,
        mins: np.ndarray,
        maxs: np.ndarray,
        last_ts: np.ndarray,
        last_vs: np.ndarray,
    ) -> None:
        """Fold pre-aggregated rollup rows into the table."""
        bin_idx = np.asarray(bin_idx, dtype=np.int64)
        if bin_idx.size == 0:
            return
        self._fold(bin_idx, sums, counts, mins, maxs, last_ts, last_vs)

    # ----------------------------------------------------------- finishing
    def nonempty(self) -> np.ndarray:
        return np.nonzero(self.count > 0)[0]

    def finalize(self, agg: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(bin_indices, values)`` for non-empty bins under ``agg``."""
        if agg not in PARTIAL_AGGS:
            raise ValueError(f"aggregator {agg!r} cannot be served from partials")
        nz = self.nonempty()
        if agg == "mean":
            out = self.sum[nz] / self.count[nz]
        elif agg == "sum":
            out = self.sum[nz]
        elif agg == "count":
            out = self.count[nz]
        elif agg == "min":
            out = self.vmin[nz]
        elif agg == "max":
            out = self.vmax[nz]
        else:  # last
            out = self.last_v[nz]
        return nz, out

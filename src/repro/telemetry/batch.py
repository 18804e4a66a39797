"""Columnar sample movement: struct-of-arrays batches and series interning.

Samples move through the pipeline as packed columnar frames, the way
production collectors (LDMS transport, DCDB Wintermute) move telemetry,
never as one Python object per point:

* :class:`SeriesRegistry` — interns :class:`~repro.telemetry.metric.SeriesKey`
  objects to dense integer ids, so hot-path code moves ``int64`` arrays
  and resolves keys only at the edges (sensor registration, store
  commit).
* :class:`SampleBatch` — one struct-of-arrays record ``(series_ids,
  times, values)`` carrying an entire sampling round (or the
  concatenation of many) through the aggregation tree.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.telemetry.metric import SeriesKey


def sort_series_columns(
    series_ids: np.ndarray, times: np.ndarray, values: np.ndarray
) -> tuple:
    """Stable-sort parallel columns by ``(series_id, time)``.

    Returns ``(ids, times, values, starts, ends)`` where ``starts``/
    ``ends`` delimit one ``[lo, hi)`` segment per distinct series, in id
    order.  This is *the* grouping idiom of the columnar pipeline —
    store commits and rollup folds both run on its output, so the
    sort-stability and segmentation invariants live in one place.
    """
    order = np.lexsort((times, series_ids))
    ids_s = series_ids[order]
    times_s = times[order]
    values_s = values[order]
    n = ids_s.size
    if n and ids_s[0] == ids_s[-1]:  # single-series fast path
        starts = np.zeros(1, dtype=np.int64)
        ends = np.array([n], dtype=np.int64)
    else:
        bounds = np.flatnonzero(ids_s[1:] != ids_s[:-1]) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [n]))
    return ids_s, times_s, values_s, starts, ends


class SeriesRegistry:
    """Bidirectional intern table ``SeriesKey ↔ int`` (dense ids from 0).

    Ids are assigned on first sight and never recycled; the registry is
    append-only, so an id handed to a sensor bank stays valid for the
    lifetime of the store that owns the registry.
    """

    __slots__ = ("_ids", "_keys")

    def __init__(self) -> None:
        self._ids: Dict[SeriesKey, int] = {}
        self._keys: List[SeriesKey] = []

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: SeriesKey) -> bool:
        return key in self._ids

    def id_for(self, key: SeriesKey) -> int:
        """The interned id of ``key``, assigning a fresh one if needed."""
        sid = self._ids.get(key)
        if sid is None:
            sid = len(self._keys)
            self._ids[key] = sid
            self._keys.append(key)
        return sid

    def get(self, key: SeriesKey) -> Optional[int]:
        """The interned id of ``key`` without interning; ``None`` if unseen."""
        return self._ids.get(key)

    def ids_for(self, keys: Iterable[SeriesKey]) -> np.ndarray:
        """Vector of interned ids for ``keys`` (int64)."""
        return np.fromiter((self.id_for(k) for k in keys), dtype=np.int64)

    def key_for(self, sid: int) -> SeriesKey:
        """The key behind an id; raises ``IndexError`` for unknown ids."""
        if sid < 0:
            raise IndexError(f"series id must be non-negative, got {sid}")
        return self._keys[sid]


class SampleBatch:
    """Struct-of-arrays record of samples: ``(series_ids, times, values)``.

    All three columns are parallel 1-D arrays; ``series_ids`` indexes a
    :class:`SeriesRegistry`.  Rows need not be sorted — the store groups
    and orders them on commit.  Instances are treated as immutable once
    submitted into the pipeline.
    """

    __slots__ = ("series_ids", "times", "values")

    def __init__(
        self,
        series_ids: np.ndarray,
        times: np.ndarray,
        values: np.ndarray,
    ) -> None:
        self.series_ids = np.asarray(series_ids, dtype=np.int64)
        self.times = np.asarray(times, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        if not (self.series_ids.shape == self.times.shape == self.values.shape):
            raise ValueError(
                "series_ids, times, values must be parallel 1-D arrays, got shapes "
                f"{self.series_ids.shape}/{self.times.shape}/{self.values.shape}"
            )
        if self.series_ids.ndim != 1:
            raise ValueError("batch columns must be 1-D")

    def __len__(self) -> int:
        return int(self.series_ids.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SampleBatch n={len(self)}>"

    @classmethod
    def _trusted(
        cls, series_ids: np.ndarray, times: np.ndarray, values: np.ndarray
    ) -> "SampleBatch":
        """Hot-path constructor for columns already known to be parallel
        1-D arrays of the right dtypes (skips validation)."""
        batch = object.__new__(cls)
        batch.series_ids = series_ids
        batch.times = times
        batch.values = values
        return batch

    @staticmethod
    def empty() -> "SampleBatch":
        return SampleBatch(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
        )

    @staticmethod
    def concat(batches: Sequence["SampleBatch"]) -> "SampleBatch":
        """One batch holding every row of ``batches``, in order."""
        if not batches:
            return SampleBatch.empty()
        if len(batches) == 1:
            return batches[0]
        return SampleBatch(
            np.concatenate([b.series_ids for b in batches]),
            np.concatenate([b.times for b in batches]),
            np.concatenate([b.values for b in batches]),
        )

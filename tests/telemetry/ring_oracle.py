"""Per-series raw-ring write: the oracle for the dense append kernel.

This is the commit as it ran before :class:`repro.telemetry.tsdb.RawRings`
made it one vectorised scatter — one ``RingBuffer`` object per series, a
Python loop over a commit's segments, ``_extend_sorted`` per segment —
kept as the reference the kernel must match byte for byte: ring cells,
``head`` / ``count`` / ``written``, write epochs, listener columns and
the ``ValueError`` on overlap.  Two things differ from that loop, both
where its behaviour was an accident of iteration order: every segment's
overlap check runs before the first write (the loop raised half-way
through a commit, leaving the earlier series written), and an empty
segment writes nothing at all (the loop created the series, and raised
``IndexError`` if the ring already held samples).
"""

from typing import Callable, Dict, List, Tuple

import numpy as np


class OracleRing:
    """One series' fixed-capacity (time, value) ring."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._times = np.empty(capacity, dtype=np.float64)
        self._values = np.empty(capacity, dtype=np.float64)
        self._head = 0
        self._count = 0
        self._written = 0

    def last_time(self) -> float:
        return float(self._times[(self._head - 1) % self.capacity])

    def append(self, t: float, v: float) -> None:
        if self._count and t < self.last_time():
            raise ValueError(f"out-of-order append: t={t} < last={self.last_time()}")
        self._times[self._head] = t
        self._values[self._head] = v
        self._head = (self._head + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)
        self._written += 1

    def _extend_sorted(self, times: np.ndarray, values: np.ndarray) -> None:
        n = times.size
        if n == 0:
            return
        if self._count and times[0] < self._times[(self._head - 1) % self.capacity]:
            raise ValueError("bulk append overlaps existing data")
        capacity = self.capacity
        head = self._head
        if n >= capacity:
            self._times[:] = times[-capacity:]
            self._values[:] = values[-capacity:]
            self._head, self._count = 0, capacity
        else:
            end = head + n
            if end <= capacity:
                self._times[head:end] = times
                self._values[head:end] = values
            else:
                split = capacity - head
                self._times[head:] = times[:split]
                self._values[head:] = values[:split]
                self._times[: end % capacity] = times[split:]
                self._values[: end % capacity] = values[split:]
            self._head = end % capacity
            self._count = min(self._count + n, capacity)
        self._written += n

    def cells(self) -> Tuple[np.ndarray, np.ndarray]:
        """The written cells in slot order (all of them once wrapped)."""
        return self._times[: self._count], self._values[: self._count]


class OracleStore:
    """The store-level commit loop over :class:`OracleRing` objects.

    ``capacity_of(sid)`` and ``metric_of(sid)`` stand in for the key
    registry and the per-metric capacity overrides.
    """

    def __init__(self, capacity_of: Callable[[int], int], metric_of: Callable[[int], str]) -> None:
        self._capacity_of = capacity_of
        self._metric_of = metric_of
        self.rings: Dict[int, OracleRing] = {}
        self.epochs: Dict[str, int] = {}
        self.total_inserts = 0
        #: listener columns of every commit, in order
        self.notified: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def _ring(self, sid: int) -> OracleRing:
        ring = self.rings.get(sid)
        if ring is None:
            ring = self.rings[sid] = OracleRing(self._capacity_of(sid))
        return ring

    def _committed(self, metrics, ids, times, values) -> None:
        self.total_inserts += int(ids.size)
        for metric in metrics:
            self.epochs[metric] = self.epochs.get(metric, 0) + 1
        self.notified.append((ids, times, values))

    def insert(self, sid: int, t: float, v: float) -> None:
        self._ring(sid).append(t, v)
        self._committed(
            {self._metric_of(sid)}, np.array([sid], dtype=np.int64), np.array([t]), np.array([v])
        )

    def append_segments(self, seg_ids, times, values, starts, ends) -> None:
        segments = [
            (sid, lo, hi)
            for sid, lo, hi in zip(seg_ids.tolist(), starts.tolist(), ends.tolist())
            if hi > lo
        ]
        for sid, lo, _hi in segments:
            ring = self.rings.get(sid)
            if ring is not None and ring._count and times[lo] < ring.last_time():
                raise ValueError("bulk append overlaps existing data")
        if not segments:
            return
        for sid, lo, hi in segments:
            self._ring(sid)._extend_sorted(times[lo:hi], values[lo:hi])
        rows = np.concatenate([np.arange(lo, hi) for _, lo, hi in segments])
        ids = np.repeat(
            np.array([sid for sid, _, _ in segments], dtype=np.int64),
            [hi - lo for _, lo, hi in segments],
        )
        self._committed({self._metric_of(sid) for sid, _, _ in segments}, ids, times[rows], values[rows])

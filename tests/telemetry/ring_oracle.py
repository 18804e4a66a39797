"""Per-series raw-ring write: the oracle for the dense append kernel.

This is the commit as it ran before :class:`repro.telemetry.tsdb.RawRings`
made it one vectorised scatter — one :class:`RingBuffer` per series, a
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


class RingBuffer:
    """One series' fixed-capacity (time, value) ring.

    Timestamps must arrive in non-decreasing order; violating that
    raises, because an unsorted ring would corrupt window reads.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._times = np.empty(self.capacity, dtype=np.float64)
        self._values = np.empty(self.capacity, dtype=np.float64)
        self._head = 0  # next write position
        self._count = 0  # valid entries
        self._written = 0  # total appends ever

    def __len__(self) -> int:
        return self._count

    @property
    def total_appended(self) -> int:
        """Total points ever appended (including overwritten ones)."""
        return self._written

    def append(self, t: float, v: float) -> None:
        if self._count and t < self.last_time():
            raise ValueError(f"out-of-order append: t={t} < last={self.last_time()}")
        self._times[self._head] = t
        self._values[self._head] = v
        self._head = (self._head + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)
        self._written += 1

    def extend(self, times, values) -> None:
        """Bulk append of already-sorted arrays."""
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.shape != values.shape:
            raise ValueError("times and values must have the same shape")
        if np.any(np.diff(times) < 0):
            raise ValueError("bulk append requires sorted timestamps")
        self._extend_sorted(times, values)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """All stored points in time order as ``(times, values)`` copies."""
        idx = (np.arange(self._count) + self._head - self._count) % self.capacity
        return self._times[idx], self._values[idx]

    def first_time(self) -> float:
        """Oldest retained timestamp."""
        if self._count == 0:
            raise IndexError("empty ring buffer")
        return float(self._times[(self._head - self._count) % self.capacity])

    def last_time(self) -> float:
        if self._count == 0:
            raise IndexError("empty ring buffer")
        return float(self._times[(self._head - 1) % self.capacity])

    def last_value(self) -> float:
        if self._count == 0:
            raise IndexError("empty ring buffer")
        return float(self._values[(self._head - 1) % self.capacity])

    def window(self, t0: float, t1: float) -> Tuple[np.ndarray, np.ndarray]:
        """Points with ``t0 <= t <= t1`` in time order."""
        times, values = self.arrays()
        keep = (times >= t0) & (times <= t1)
        return times[keep], values[keep]

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
    """The store-level commit loop over :class:`RingBuffer` objects.

    ``capacity_of(sid)`` and ``metric_of(sid)`` stand in for the key
    registry and the per-metric capacity overrides.
    """

    def __init__(self, capacity_of: Callable[[int], int], metric_of: Callable[[int], str]) -> None:
        self._capacity_of = capacity_of
        self._metric_of = metric_of
        self.rings: Dict[int, RingBuffer] = {}
        self.epochs: Dict[str, int] = {}
        self.total_inserts = 0
        #: listener columns of every commit, in order
        self.notified: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def _ring(self, sid: int) -> RingBuffer:
        ring = self.rings.get(sid)
        if ring is None:
            ring = self.rings[sid] = RingBuffer(self._capacity_of(sid))
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

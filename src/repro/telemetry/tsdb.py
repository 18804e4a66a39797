"""In-memory time-series store backed by dense NumPy ring blocks.

The store is the "K-adjacent" raw-data layer of the MODA stack: samplers
append points, and the query engine (:mod:`repro.query`) reads windows
of them — every aggregate, downsample and rate is the engine's; the
store keeps rings, not query helpers.  Design goals, in order:

1. **Append speed** — a commit of any number of series is one vectorised
   scatter into pre-allocated ``(series, slot)`` blocks (insert rate is
   the storage concern called out in Section IV of the paper).
2. **Query as arrays** — window queries return NumPy views/copies that the
   analytics layer consumes without further conversion.
3. **Bounded memory** — fixed per-series capacity with overwrite-oldest
   semantics, matching production ring-buffer collectors.

Layout: :class:`DenseRings` keeps the fixed-capacity rings of many series
in dense ``(series, column, slot)`` blocks beside per-series ``head`` /
``count`` vectors, with storage from an injected allocator (process heap
here, a shared-memory arena in :mod:`repro.shard.parallel`) that grows by
appending series chunks.  The rollup tiers (:mod:`repro.query.rollup`)
build on the same class.  :class:`RawRings` is the raw ``(time, value)``
instance of it, one :class:`DenseRings` per ring capacity in use,
addressed by series id; :class:`TimeSeriesStore` owns one and writes it
through a single batch kernel.  :class:`LabelIndex` is a store's per-metric view of
*which* series it holds — keys in canonical order, label values as code
columns with postings, where each series lives — which the query layer
selects and plans from.
"""

from __future__ import annotations

import mmap
from bisect import bisect_right
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.batch import SeriesRegistry, sort_series_columns
from repro.telemetry.metric import SeriesKey

#: Signature of an ingest listener: ``(series_ids, times, values)`` where the
#: arrays are parallel, grouped by series id, and time-sorted within each
#: series.  Receivers must treat the arrays as read-only.
IngestListener = Callable[[np.ndarray, np.ndarray, np.ndarray], None]

#: ``alloc(count) -> (float64 array, descriptor)``: where ring blocks
#: live.  The descriptor is whatever lets another process map the same
#: storage (``None`` on the heap).
Allocator = Callable[[int], Tuple[np.ndarray, object]]


def heap_alloc(count: int) -> Tuple[np.ndarray, None]:
    """Process-private ring storage: an anonymous mapping, resident only
    where samples have landed.  (``np.empty`` asks for transparent huge
    pages at this size; each series' ring is a small-page-sized stride
    apart, so a single row per series would make a whole block
    resident.)"""
    return np.frombuffer(mmap.mmap(-1, int(count) * 8), dtype=np.float64), None


# --------------------------------------------------------------------------
# Shared ring machinery.  A "ring" here is a set of parallel fixed-capacity
# arrays written at a common head; the wraparound invariants live in these
# helpers and in DenseRings.append_rows, nowhere else.


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


def ring_window_ranges(
    times: np.ndarray,
    head: int,
    count: int,
    t0: float,
    t1: float,
    *,
    right_inclusive: bool,
) -> list[Tuple[int, int]]:
    """Absolute ``[lo, hi)`` index ranges of the window ``t0..t1``.

    A wrapped ring is two independently sorted segments (``[head:]``
    then ``[:head]``, every timestamp of the first <= the second), so
    each can be binary-searched on its own — the window costs
    O(log capacity + answer), never a full-ring copy.
    """
    side = "right" if right_inclusive else "left"
    capacity = times.shape[0]
    if count < capacity:
        seg = times[:count]
        return [(seg.searchsorted(t0, side="left"), seg.searchsorted(t1, side=side))]
    seg1, seg2 = times[head:], times[:head]
    return [
        (head + seg1.searchsorted(t0, side="left"), head + seg1.searchsorted(t1, side=side)),
        (seg2.searchsorted(t0, side="left"), seg2.searchsorted(t1, side=side)),
    ]


def ring_gather(arr: np.ndarray, ranges: Iterable[Tuple[int, int]]) -> np.ndarray:
    """Copy the selected index ranges of a ring (its last axis), in order."""
    parts = [arr[..., lo:hi] for lo, hi in ranges if hi > lo]
    if not parts:
        return np.empty(arr.shape[:-1] + (0,), dtype=arr.dtype)
    if len(parts) == 1:
        return parts[0].copy()
    return np.concatenate(parts, axis=-1)


def segment_rows(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Row indices of segments ``[starts[j], starts[j] + lens[j])``, back
    to back in segment order."""
    idx = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    idx += np.arange(idx.size)
    return idx


class _RingChunk:
    """Ring storage of one contiguous series-index range ``[first, first+n)``:
    the cells, then one per-series vector per entry of ``vectors``."""

    def __init__(self, first, block, n, n_cols, capacity, vectors, fresh) -> None:
        self.first = first
        cells = n * n_cols * capacity
        #: ``(series, column, ring slot)``: a series' rings are adjacent,
        #: so one series' window is a single 2-D slice
        self.rows = block[:cells].reshape(n, n_cols, capacity)
        #: the same cells as one ``(series, ring slot)`` view per column
        self.cols = [self.rows[:, k, :] for k in range(n_cols)]
        for k, (name, dtype, fill) in enumerate(vectors):
            vec = block[cells + k * n:cells + (k + 1) * n].view(dtype)
            if fresh:
                vec[:] = fill
            setattr(self, name, vec)


class DenseRings:
    """Fixed-capacity rings of many series in dense blocks.

    Every series owns one ring per column (overwrite-oldest, the last
    ``capacity`` rows are retained) written at a common ``head``, plus
    one slot in each per-series vector: ``head`` (next ring slot),
    ``count`` (valid rows) and whatever ``vectors`` adds as ``(name,
    dtype, initial value)``.  Series are addressed by a dense index;
    storage grows by whole chunks of consecutive indices
    (:meth:`add_chunk`), never by copy or zero-fill, so resident pages
    follow the rows actually written.  The vector operations take
    indices **sorted ascending**.
    """

    def __init__(self, capacity: int, n_cols: int, vectors: Sequence[Tuple] = ()) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._n_cols = n_cols
        self._vectors = (("head", np.int64, 0), ("count", np.int64, 0)) + tuple(vectors)
        self._dtypes = {name: dtype for name, dtype, _ in self._vectors}
        self._chunks: List[_RingChunk] = []
        #: exclusive end index of each chunk, ascending
        self._ends: List[int] = []
        #: series indices ``[0, n_series)`` have storage
        self.n_series = 0

    def block_size(self, n: int) -> int:
        """Float64 slots one chunk of ``n`` series needs."""
        return n * (self._n_cols * self.capacity + len(self._vectors))

    def add_chunk(self, block: np.ndarray, n: int, *, fresh: bool) -> None:
        """Back the next ``n`` series indices with ``block``.

        ``fresh`` initialises the per-series vectors (the creating side);
        a process attaching storage another one created must not.
        """
        self._chunks.append(
            _RingChunk(self.n_series, block, n, self._n_cols, self.capacity, self._vectors, fresh)
        )
        self.n_series += n
        self._ends.append(self.n_series)

    def __len__(self) -> int:
        return sum(int(chunk.count.sum()) for chunk in self._chunks)

    # ---------------------------------------------------------- scalar reads
    def _locate(self, idx: int) -> Optional[Tuple[_RingChunk, int]]:
        if not 0 <= idx < self.n_series:
            return None
        chunk = self._chunks[bisect_right(self._ends, idx)]
        return chunk, idx - chunk.first

    # ------------------------------------------------------ vector operations
    def _split(self, ids: np.ndarray):
        """``(chunk, lo, hi)`` for every chunk the sorted ``ids`` touch."""
        if len(self._chunks) == 1:
            if ids.size:
                yield self._chunks[0], 0, ids.size
            return
        lo = 0
        for chunk, hi in zip(self._chunks, np.searchsorted(ids, self._ends).tolist()):
            if hi > lo:
                yield chunk, lo, hi
            lo = hi

    def take(self, name: str, ids: np.ndarray) -> np.ndarray:
        """Per-series vector ``name`` at ``ids``."""
        if len(self._chunks) == 1:
            return getattr(self._chunks[0], name)[ids]
        out = np.empty(ids.size, dtype=self._dtypes[name])
        for chunk, lo, hi in self._split(ids):
            out[lo:hi] = getattr(chunk, name)[ids[lo:hi] - chunk.first]
        return out

    def put(self, name: str, ids: np.ndarray, values) -> None:
        """Store ``values`` (array or scalar) into vector ``name`` at ``ids``."""
        per_id = np.ndim(values) > 0
        for chunk, lo, hi in self._split(ids):
            getattr(chunk, name)[ids[lo:hi] - chunk.first] = values[lo:hi] if per_id else values

    def gather(
        self, ids: np.ndarray, slots: np.ndarray, columns: Sequence[int]
    ) -> List[np.ndarray]:
        """Ring cells ``(ids[i], slots[i])`` of the selected columns."""
        out = [np.empty(ids.size, dtype=np.float64) for _ in columns]
        for chunk, lo, hi in self._split(ids):
            local = ids[lo:hi] - chunk.first
            for dst, k in zip(out, columns):
                dst[lo:hi] = chunk.cols[k][local, slots[lo:hi]]
        return out

    def append_rows(self, ids: np.ndarray, counts: np.ndarray, cols: Sequence[np.ndarray]) -> List:
        """Append ``counts[i] >= 1`` time-ordered rows to series ``ids[i]``.

        ``cols`` holds the rows of all series back to back, one array
        per column.  Ring semantics per series: rows continue at
        ``head`` and wrap; a series receiving ``capacity`` or more rows
        keeps only the last ``capacity``, laid out from slot 0.  Cells
        are written before ``head``/``count`` publish them.  Returns the
        chunks written as ``(chunk, indices within it, lo, hi)``, the
        latter the positions in ``ids``, for a caller with per-series
        vectors of its own to update.
        """
        cap = self.capacity
        one_each = cols[0].size == ids.size and cap > 1  # the streamed-telemetry commit
        ends = None if one_each else np.cumsum(counts)
        written = []
        for chunk, lo, hi in self._split(ids):
            local = ids[lo:hi] - chunk.first
            written.append((chunk, local, lo, hi))
            head = chunk.head[local]
            keep = None
            if one_each:
                n, r0, r1, at, slots, new_head = 1, lo, hi, local, head, (head + 1) % cap
            else:
                n = counts[lo:hi]
                r0, r1 = int(ends[lo] - n[0]), int(ends[hi - 1])
                whole = n >= cap
                seg = np.repeat(np.arange(hi - lo), n)
                rank = np.arange(r1 - r0) - np.repeat(ends[lo:hi] - n - r0, n)
                slots = np.where(whole, cap - n, head)[seg] + rank
                if whole.any():
                    keep = slots >= 0  # leading rows of a whole-ring write fall off
                    seg, slots = seg[keep], slots[keep]
                slots %= cap
                at = local[seg]
                new_head = np.where(whole, 0, (head + n) % cap)
            for dst, src in zip(chunk.cols, cols):
                dst[at, slots] = src[r0:r1] if keep is None else src[r0:r1][keep]
            chunk.head[local] = new_head
            chunk.count[local] = np.minimum(chunk.count[local] + n, cap)
        return written


class RawRings:
    """The raw ``(time, value)`` rings of one store, addressed by series id.

    One :class:`DenseRings` per ring capacity in use (per-metric
    capacity overrides); series ``sid`` owns row ``_row[sid]`` of the
    rings of capacity ``_cap[sid]``, rows handed out in creation order.
    Beside ``head``/``count`` each row records the samples ever
    ``written`` to it, its ``last`` (newest) timestamp — the append
    order check reads this dense vector, not the rings — and the ``sid``
    it belongs to, so a process that maps the announced blocks
    (:meth:`attach`) rebuilds the addressing from the storage alone
    (:meth:`refresh`) — the pool workers' view.  Exactly one process
    writes: the one that allocates.
    """

    VECTORS = (("written", np.int64, 0), ("last", np.float64, -np.inf), ("sid", np.int64, -1))

    def __init__(
        self,
        alloc: Optional[Allocator] = heap_alloc,
        announce: Optional[Callable[[Tuple], None]] = None,
    ) -> None:
        self._alloc = alloc
        self._announce = announce
        #: rings by capacity
        self.classes: Dict[int, DenseRings] = {}
        #: rows handed out (owner) / mapped (attached view) per capacity
        self._used: Dict[int, int] = {}
        #: every block so far as ``(capacity, first row, rows, descriptor)``
        #: — the arguments of :meth:`attach`, in order
        self.blocks: List[Tuple] = []
        self._cap = np.zeros(0, dtype=np.int64)  # ring capacity per sid; 0 = no ring
        self._row = np.zeros(0, dtype=np.int64)
        self._len = 0  # one past the highest series id with a ring
        self._located: Dict[int, Tuple[_RingChunk, int]] = {}  # scalar-access memo
        self.n_series = 0

    def __len__(self) -> int:
        return self._len

    # ------------------------------------------------------------- addressing
    def _reserve(self, n: int) -> None:
        """Make series ids ``[0, n)`` addressable."""
        if n > self._cap.size:
            grown = np.zeros(max(64, 2 * self._cap.size, n), dtype=np.int64)
            grown[: self._cap.size] = self._cap
            self._cap = grown
            self._row = np.resize(self._row, grown.size)

    def capacities(self, sids: np.ndarray) -> np.ndarray:
        """Ring capacity of each of the ascending ``sids``; 0 = no ring yet."""
        self._reserve(int(sids[-1]) + 1)
        return self._cap[sids]

    def _bind(self, sids: np.ndarray, capacity: int, rows: np.ndarray) -> None:
        top = int(sids.max()) + 1
        self._reserve(top)
        self._cap[sids] = capacity
        self._row[sids] = rows
        self._used[capacity] = int(rows[-1]) + 1
        self._len = max(self._len, top)
        self.n_series += sids.size

    def _rings_of(self, capacity: int) -> DenseRings:
        ring = self.classes.get(capacity)
        if ring is None:
            ring = self.classes[capacity] = DenseRings(capacity, 2, self.VECTORS)
        return ring

    def create(self, sids: np.ndarray, capacity: int) -> None:
        """Give each of ``sids`` an empty ring of ``capacity`` slots.

        Storage grows by chunks of ``max(64, have, need)`` rows — at
        least doubling, so a store holds O(log n) of them — each
        announced once as ``(capacity, first row, rows, descriptor)``.
        """
        ring = self._rings_of(capacity)
        used = self._used.get(capacity, 0)
        have = ring.n_series
        if used + sids.size > have:
            n = max(64, have, used + sids.size - have)
            block, desc = self._alloc(ring.block_size(n))
            ring.add_chunk(block, n, fresh=True)
            self.blocks.append((capacity, have, n, desc))
            if self._announce is not None:
                self._announce(self.blocks[-1])
        rows = np.arange(used, used + sids.size)
        ring.put("sid", rows, sids)
        self._bind(sids, capacity, rows)

    def attach(self, capacity: int, first: int, n: int, block: np.ndarray) -> None:
        """Map a block another process created.  Idempotent: a block
        starting below the rows already mapped is skipped, so an
        announcement may be delivered more than once; blocks must
        otherwise arrive in order."""
        ring = self._rings_of(capacity)
        if first < ring.n_series:
            return
        if first > ring.n_series:
            raise ValueError(f"ring block at {first} leaves a gap after {ring.n_series}")
        ring.add_chunk(block, n, fresh=False)

    def refresh(self) -> None:
        """Address the rows the owner has handed out since the last call
        (an attached view; rows are handed out in order)."""
        for capacity, ring in self.classes.items():
            used = self._used.get(capacity, 0)
            if used < ring.n_series:
                rows = np.arange(used, ring.n_series)
                sids = ring.take("sid", rows)
                n = int(np.count_nonzero(sids >= 0))
                if n:
                    self._bind(sids[:n], capacity, rows[:n])

    def sids(self) -> np.ndarray:
        """Every series id with a ring, ascending."""
        return np.flatnonzero(self._cap[: self._len])

    def _at(self, sid: int) -> Optional[Tuple[_RingChunk, int]]:
        loc = self._located.get(sid)
        if loc is None and 0 <= sid < self._len and self._cap.item(sid):
            loc = self.classes[self._cap.item(sid)]._locate(self._row.item(sid))
            self._located[sid] = loc  # rows never move
        return loc

    # ---------------------------------------------------------------- writing
    def push(self, sid: int, t: float, v: float) -> bool:
        """Append one sample to the ring of ``sid``; False if it has none."""
        loc = self._at(sid)
        if loc is None:
            return False
        chunk, i = loc
        if t < chunk.last.item(i):
            raise ValueError(f"out-of-order append: t={t} < last={chunk.last.item(i)}")
        head, capacity = chunk.head.item(i), chunk.rows.shape[2]
        chunk.cols[0][i, head] = t
        chunk.cols[1][i, head] = v
        chunk.head[i] = (head + 1) % capacity
        chunk.count[i] = min(chunk.count.item(i) + 1, capacity)
        chunk.written[i] = chunk.written.item(i) + 1
        chunk.last[i] = t
        return True

    def extend(self, sid: int, times: np.ndarray, values: np.ndarray) -> bool:
        """Append one series' time-sorted samples; False if it has no ring."""
        loc = self._at(sid)
        if loc is None:
            return False
        chunk, i = loc
        if times[0] < chunk.last.item(i):
            raise ValueError("bulk append overlaps existing data")
        chunk.head[i], chunk.count[i] = ring_extend(
            chunk.rows[i], chunk.head.item(i), chunk.count.item(i), (times, values)
        )
        chunk.written[i] = chunk.written.item(i) + times.size
        chunk.last[i] = times[-1]
        return True

    def append(self, sids: np.ndarray, lens: np.ndarray, times: np.ndarray,
               values: np.ndarray) -> None:
        """The batch write: ``lens[j] > 0`` time-sorted samples, back to
        back in ``times``/``values``, onto the ring of each of the
        ascending distinct ``sids`` (all created).  A series' new
        samples may not start before its last retained one; that is
        checked for every series before anything is written."""
        if len(self.classes) == 1:
            parts = [(next(iter(self.classes.values())), self._row[sids], lens, times, values)]
        else:
            caps = self._cap[sids]
            parts = []
            for capacity in np.unique(caps).tolist():
                pick = caps == capacity
                rows = np.repeat(pick, lens)
                parts.append((self.classes[capacity], self._row[sids[pick]], lens[pick],
                              times[rows], values[rows]))
        for k, (ring, rows, n, t, v) in enumerate(parts):
            if len(ring._chunks) > 1 and (rows[1:] < rows[:-1]).any():
                # rows follow creation order, not series id: chunk walks need them sorted
                order = np.argsort(rows)
                idx = segment_rows((np.cumsum(n) - n)[order], n[order])
                rows, n, t, v = rows[order], n[order], t[idx], v[idx]
            if t.size == rows.size:  # one sample each
                first = newest = t
            else:
                ends = np.cumsum(n)
                first, newest = t[ends - n], t[ends - 1]
            if (first < ring.take("last", rows)).any():
                raise ValueError("bulk append overlaps existing data")
            parts[k] = (ring, rows, n, t, v, newest)
        for ring, rows, n, t, v, newest in parts:
            for chunk, local, lo, hi in ring.append_rows(rows, n, (t, v)):
                chunk.written[local] += n[lo:hi]
                chunk.last[local] = newest[lo:hi]

    # ---------------------------------------------------------------- reading
    def count(self, sid: int) -> int:
        """Samples retained for ``sid`` (0 without a ring)."""
        loc = self._at(sid)
        return 0 if loc is None else loc[0].count.item(loc[1])

    def earliest_time(self, sid: int) -> Optional[float]:
        """Oldest retained timestamp, O(1); ``None`` when empty."""
        loc = self._at(sid)
        if loc is None:
            return None
        chunk, i = loc
        count = chunk.count.item(i)
        if count == 0:
            return None
        times = chunk.rows[i, 0]
        return float(times[chunk.head.item(i) if count == times.size else 0])

    def latest(self, sid: int) -> Optional[Tuple[float, float]]:
        """Newest retained ``(time, value)``; ``None`` when empty."""
        loc = self._at(sid)
        if loc is None or loc[0].count.item(loc[1]) == 0:
            return None
        chunk, i = loc
        t, v = chunk.rows[i, :, chunk.head.item(i) - 1].tolist()
        return t, v

    def window(self, sid: int, t0: float, t1: float) -> Tuple[np.ndarray, np.ndarray]:
        """Points with ``t0 <= t <= t1`` in time order; empty arrays
        when the series is absent.  Copies only the selected span —
        window queries are the hottest read path in the store."""
        loc = self._at(sid)
        if loc is None:
            return np.empty(0), np.empty(0)
        chunk, i = loc
        times, values = chunk.cols[0][i], chunk.cols[1][i]
        ranges = ring_window_ranges(
            times, chunk.head.item(i), chunk.count.item(i), t0, t1, right_inclusive=True
        )
        return ring_gather(times, ranges), ring_gather(values, ranges)

    def retained(self, sid: int) -> Tuple[np.ndarray, np.ndarray, bool]:
        """All retained points in time order, and whether older ones
        have been overwritten."""
        times, values = self.window(sid, -np.inf, np.inf)
        loc = self._at(sid)
        return times, values, loc is not None and loc[0].written.item(loc[1]) > times.size


def _checked_series(times, values) -> Tuple[np.ndarray, np.ndarray]:
    """One series' bulk-append columns as float64, shape- and order-checked."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.shape != values.shape:
        raise ValueError("times and values must have the same shape")
    if np.any(np.diff(times) < 0):
        raise ValueError("bulk append requires sorted timestamps")
    return times, values


class LabelColumn(NamedTuple):
    """One label name over the keys of a :class:`LabelIndex`.

    ``values`` are the distinct values in sorted order (a key without the
    label has ``""``), ``code_of`` their codes, ``codes`` each key's code;
    ``order``/``bounds`` are the postings: the positions holding value
    ``c``, ascending, are ``order[bounds[c]:bounds[c + 1]]``.
    """

    values: List[str]
    code_of: Dict[str, int]
    codes: np.ndarray
    order: np.ndarray
    bounds: np.ndarray

    def positions(self, codes: Sequence[int]) -> np.ndarray:
        """Ascending positions of the keys holding any of ``codes``."""
        if 8 * len(codes) > len(self.values):  # wide: one pass beats many postings
            ok = np.zeros(len(self.values), dtype=bool)
            ok[codes] = True
            return np.flatnonzero(ok[self.codes])
        lo, hi = self.bounds, self.bounds[1:]
        parts = [self.order[lo[c]:hi[c]] for c in codes]
        if len(parts) == 1:
            return parts[0]
        return np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.intp)


class LabelIndex:
    """The series of one metric (``None``: of every metric) as a store
    holds them at one series generation.

    ``keys`` are in canonical ``str`` order — the order of
    ``series_keys`` and of every selection — and ``places`` / ``sids``
    say where each lives: the shard (0 on a single store) and the series
    id there.  :meth:`column` gives one label name's values as codes with
    postings, built on first use, so a matcher is evaluated once per
    distinct value and a selection costs what it selects.  Stores build
    one per metric and rebuild it only when the generation moves.
    """

    __slots__ = ("generation", "keys", "places", "sids", "n_places", "_columns")

    def __init__(
        self, generation: int, keys: Sequence[SeriesKey], places: np.ndarray,
        sids: np.ndarray, n_places: int = 1,
    ) -> None:
        strs = [str(key) for key in keys]
        order = sorted(range(len(strs)), key=strs.__getitem__)  # stable; runs are cheap
        self.generation = generation
        self.keys: List[SeriesKey] = [keys[i] for i in order]
        self.places: np.ndarray = places[order]
        self.sids: np.ndarray = sids[order]
        self.n_places = n_places
        self._columns: Dict[str, LabelColumn] = {}

    def column(self, name: str) -> LabelColumn:
        column = self._columns.get(name)
        if column is None:
            raw = [key.label(name) or "" for key in self.keys]
            values = sorted(set(raw))
            code_of = {value: code for code, value in enumerate(values)}
            codes = np.fromiter((code_of[v] for v in raw), dtype=np.intp, count=len(raw))
            order = np.argsort(codes, kind="stable")
            bounds = np.searchsorted(codes[order], np.arange(len(values) + 1))
            column = self._columns[name] = LabelColumn(values, code_of, codes, order, bounds)
        return column


class TimeSeriesStore:
    """:class:`SeriesKey`-addressed raw rings.

    The store owns the :class:`~repro.telemetry.batch.SeriesRegistry`
    that interns keys to dense integer ids — the columnar pipeline moves
    ``series_ids`` arrays and resolves keys only here, when a series is
    first written — and the :class:`RawRings` (:attr:`rings`) those ids
    address.  Every write path (scalar, per-series bulk, columnar batch)
    additionally:

    * bumps a per-metric **write epoch** (used by the query layer to
      version-key cached results, so a commit inside a cached window
      invalidates exactly that metric's entries), and
    * notifies registered **ingest listeners** with the committed
      columns, which is how rollup folding consumes new data without
      rescanning raw rings.

    ``rings`` relocates ring storage (shared memory for the
    process-parallel shard tier); the bookkeeping here is unchanged.
    """

    #: no worker pool: a query engine runs this store's passes in
    #: process (a sharded store may carry one)
    pool = None

    def __init__(self, default_capacity: int = 4096, *, rings: Optional[RawRings] = None) -> None:
        if default_capacity <= 0:
            raise ValueError("default_capacity must be positive")
        self.default_capacity = int(default_capacity)
        self.registry = SeriesRegistry()
        self.rings = rings if rings is not None else RawRings()
        self._capacity_overrides: Dict[str, int] = {}
        #: metric -> dense index into the write epochs; series id -> the
        #: same index, so a commit bumps its touched metrics as array ops
        self._metric_index: Dict[str, int] = {}
        self._epochs = np.zeros(8, dtype=np.int64)
        self._metric_of = np.zeros(0, dtype=np.int64)
        #: per metric its series ids in creation order — one more per
        #: series generation — and the label index as of some generation
        self._metric_sids: Dict[str, List[int]] = {}
        self._indexes: Dict[Optional[str], LabelIndex] = {}
        self._listeners: List[IngestListener] = []
        self.total_inserts = 0

    # ------------------------------------------------------------ management
    def set_capacity(self, metric: str, capacity: int) -> None:
        """Per-metric capacity override applied to new series."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity_overrides[metric] = int(capacity)

    def add_ingest_listener(self, listener: IngestListener) -> None:
        """Register a callback invoked after every committed write.

        Listeners receive ``(series_ids, times, values)`` grouped by
        series and time-sorted within each series; the arrays are owned
        by the store's commit and must not be mutated.
        """
        self._listeners.append(listener)

    def metric_epoch(self, metric: str) -> int:
        """Monotone counter bumped by every write touching ``metric``."""
        idx = self._metric_index.get(metric)
        return 0 if idx is None else int(self._epochs[idx])

    def _admit(self, sids: np.ndarray) -> None:
        """First write of each of the ascending ``sids``: create its ring
        and enter it into the per-metric indexes."""
        if sids[-1] >= self._metric_of.size:
            self._metric_of = np.resize(
                self._metric_of, max(64, 2 * self._metric_of.size, len(self.registry))
            )
        by_capacity: Dict[int, List[int]] = {}
        for sid in sids.tolist():
            key = self.registry.key_for(sid)
            metric = key.metric
            idx = self._metric_index.get(metric)
            if idx is None:
                # grow the epochs before publishing the index: a reader
                # probing ``metric_epoch`` holds no lock against this
                idx = len(self._metric_index)
                if idx == self._epochs.size:
                    self._epochs = np.concatenate((self._epochs, np.zeros_like(self._epochs)))
                self._metric_index[metric] = idx
            self._metric_of[sid] = idx
            self._metric_sids.setdefault(metric, []).append(sid)
            capacity = self._capacity_overrides.get(metric, self.default_capacity)
            by_capacity.setdefault(capacity, []).append(sid)
        for capacity, group in by_capacity.items():
            self.rings.create(np.array(group, dtype=np.int64), capacity)

    # --------------------------------------------------------------- writing
    def _commit(self, sids: np.ndarray, lens: np.ndarray, times: np.ndarray,
                values: np.ndarray) -> None:
        """The one batch write behind every bulk entry: ``lens[j] > 0``
        time-sorted samples, back to back in ``times``/``values``, for
        each of the ascending distinct ``sids``.  The columns pass to
        the ingest listeners as they are.  Rings first, then epochs,
        then listeners."""
        if sids[0] < 0 or sids[-1] >= len(self.registry):
            raise IndexError("series id not interned in this store's registry")
        if self.rings.n_series < len(self.registry):  # some id has no ring: one of these?
            capacities = self.rings.capacities(sids)
            if not capacities.all():
                self._admit(sids[capacities == 0])
        self.rings.append(sids, lens, times, values)
        self.total_inserts += times.size
        self._epochs[self._metric_of[sids]] += 1  # once per distinct metric
        if self._listeners:
            self._notify(sids if times.size == sids.size else np.repeat(sids, lens), times, values)

    def _notify(self, ids: np.ndarray, times: np.ndarray, values: np.ndarray) -> None:
        """Deliver committed columns to every ingest listener."""
        for listener in self._listeners:
            listener(ids, times, values)

    def insert(self, key: SeriesKey, t: float, value: float) -> None:
        sid = self.registry.id_for(key)
        if not self.rings.push(sid, t, value):
            self._admit(np.array([sid], dtype=np.int64))
            self.rings.push(sid, t, value)
        self.total_inserts += 1
        self._epochs[self._metric_of.item(sid)] += 1
        if self._listeners:
            self._notify(
                np.array([sid], dtype=np.int64),
                np.array([t], dtype=np.float64),
                np.array([value], dtype=np.float64),
            )

    def insert_batch(self, key: SeriesKey, times: np.ndarray, values: np.ndarray) -> None:
        times, values = _checked_series(times, values)
        if times.size == 0:
            return
        sid = self.registry.id_for(key)
        if not self.rings.extend(sid, times, values):
            self._admit(np.array([sid], dtype=np.int64))
            self.rings.extend(sid, times, values)
        self.total_inserts += int(times.size)
        self._epochs[self._metric_of.item(sid)] += 1
        if self._listeners:
            # copies, not the caller's arrays: listeners may buffer the
            # columns past this call (rollup folds), and the caller is
            # free to reuse its scratch arrays afterwards
            self._notify(np.full(times.size, sid, dtype=np.int64), times.copy(), values.copy())

    def append_batch(
        self,
        series_ids: np.ndarray,
        times: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Columnar bulk commit: rows for many series in one call.

        Rows may arrive in any order; one stable ``lexsort`` groups them
        by series id with per-series time order, then every series' rows
        land in one vectorised ring scatter — no Python work per series
        or per point.  Ids must come from this store's :attr:`registry`.
        """
        series_ids = np.asarray(series_ids, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if not (series_ids.shape == times.shape == values.shape):
            raise ValueError("series_ids, times, values must be parallel 1-D arrays")
        if series_ids.size == 0:
            return
        ids_s, times_s, values_s, starts, ends = sort_series_columns(
            series_ids, times, values
        )
        self._commit(ids_s[starts], ends - starts, times_s, values_s)

    def append_segments(
        self,
        seg_ids: np.ndarray,
        times: np.ndarray,
        values: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
    ) -> None:
        """Trusted commit of pre-sorted per-series segments of shared
        columns — the shard router's entry: rows ``[starts[j], ends[j])``
        of ``times``/``values`` belong to series ``seg_ids[j]`` and are
        time-sorted (the
        :func:`~repro.telemetry.batch.sort_series_columns` contract).
        Segments must be ordered by series id (distinct) and ids must
        come from this store's :attr:`registry`; empty segments write
        nothing.  Segments lying back to back are committed in place
        (the ingest listeners may keep those rows: leave them alone
        afterwards), any others are gathered first.
        """
        lens = ends - starts
        if not lens.all():
            seg_ids, starts, ends, lens = (a[lens > 0] for a in (seg_ids, starts, ends, lens))
        if seg_ids.size:
            back_to_back = (starts[1:] == ends[:-1]).all()
            rows = slice(starts[0], ends[-1]) if back_to_back else segment_rows(starts, lens)
            self._commit(seg_ids, lens, times[rows], values[rows])

    # --------------------------------------------------------------- reading
    def has(self, key: SeriesKey) -> bool:
        sid = self.registry.get(key)
        return sid is not None and self.rings.count(sid) > 0

    def series_keys(self, metric: Optional[str] = None) -> list[SeriesKey]:
        """The written series of ``metric`` (default: all), in ``str`` order."""
        return list(self.label_index(metric).keys)

    def label_index(self, metric: Optional[str] = None) -> LabelIndex:
        """The :class:`LabelIndex` of ``metric``'s series (``None``: of
        all series), rebuilt only when a new one has appeared."""
        generation = self.series_generation(metric)
        index = self._indexes.get(metric)
        if index is None or index.generation != generation:
            sids = self.series_ids(metric)
            keys = [self.registry.key_for(sid) for sid in sids.tolist()]
            index = self._indexes[metric] = LabelIndex(
                generation, keys, np.zeros(sids.size, dtype=np.int64), sids
            )
        return index

    def series_ids(self, metric: Optional[str] = None) -> np.ndarray:
        """Ids of the written series of ``metric`` in creation order
        (``None``: of all series, ascending)."""
        if metric is None:
            return self.rings.sids()
        return np.array(self._metric_sids.get(metric, ()), dtype=np.int64)

    def series_generation(self, metric: Optional[str]) -> int:
        """Monotone counter bumped when a new series of ``metric``
        (``None``: of any metric) appears.

        Readers that resolve label matchers to concrete keys can cache
        the resolution against this generation — selection only changes
        when the key set does, not on every write.
        """
        if metric is None:
            return self.rings.n_series
        return len(self._metric_sids.get(metric, ()))

    def cardinality(self) -> int:
        """Number of distinct live series (the Section IV design concern)."""
        return self.rings.n_series

    def latest(self, key: SeriesKey) -> Optional[Tuple[float, float]]:
        sid = self.registry.get(key)
        return None if sid is None else self.rings.latest(sid)

    def earliest_time(self, key: SeriesKey) -> Optional[float]:
        """Oldest retained timestamp of a series, O(1); None when empty."""
        sid = self.registry.get(key)
        return None if sid is None else self.rings.earliest_time(sid)

    def query(self, key: SeriesKey, t0: float, t1: float) -> Tuple[np.ndarray, np.ndarray]:
        """Window query; empty arrays when the series is absent."""
        sid = self.registry.get(key)
        if sid is None:
            return np.empty(0), np.empty(0)
        return self.rings.window(sid, t0, t1)

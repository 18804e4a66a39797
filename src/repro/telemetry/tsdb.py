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
through a single batch kernel.  A store's series ids fall into
``n_places`` *places* — id ``sid`` lives in place ``sid % n_places`` —
the unit a query pass or a pool worker covers; every place shares the
one registry, ring store and commit.  :class:`LabelIndex` is a store's
per-metric view of *which* series it holds — keys in canonical order,
label values as code columns with postings, the place and id of each
series — which the query layer selects and plans from.
"""

from __future__ import annotations

import mmap
from bisect import bisect_right
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
# helpers and in DenseRings.append_rows / windows, nowhere else.


def ring_window(
    rings: np.ndarray, head: int, count: int, t0: float, t1: float, *, right_inclusive: bool
) -> np.ndarray:
    """Copy of the rows of one series' ``(column, slot)`` rings whose
    column 0 lies in ``t0..t1``, in time order.

    A wrapped ring is two independently sorted segments (``[head:]``
    then ``[:head]``, every timestamp of the first <= the second), so
    each is binary-searched on its own — the window costs O(log capacity
    + answer), never a full-ring copy.
    """
    side = "right" if right_inclusive else "left"
    times = rings[0]
    parts = []
    for a, b in [(0, count)] if count < times.size else [(head, times.size), (0, head)]:
        seg = times[a:b]
        lo, hi = a + seg.searchsorted(t0, side="left"), a + seg.searchsorted(t1, side=side)
        if hi > lo:
            parts.append(rings[:, lo:hi])
    if not parts:
        return np.empty((rings.shape[0], 0))
    return parts[0].copy() if len(parts) == 1 else np.concatenate(parts, axis=1)


def runs(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat indices of the runs ``[starts[i], starts[i] + lens[i])``,
    back to back."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lens, lens)


def runs_in_order(n: int, parts: List[Tuple], n_cols: int) -> Tuple[List[np.ndarray], np.ndarray]:
    """Windows read in parts — ``(positions, columns, lens)`` of disjoint
    positions — as ``(columns, lens)`` of positions ``0..n-1`` (a
    position in no part has no rows)."""
    starts, lens = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    offset = 0
    for pos, _, part_lens in parts:
        ends = np.cumsum(part_lens)
        starts[pos], lens[pos] = offset + ends - part_lens, part_lens
        offset += int(ends[-1])
    at = runs(starts, lens)
    return [
        np.concatenate([part[1][c] for part in parts])[at] if parts else np.empty(0)
        for c in range(n_cols)
    ], lens


class _RingChunk:
    """Ring storage of one contiguous series-index range ``[first, first+n)``:
    the cells, then one per-series vector per entry of ``vectors``, each
    in slot order (:meth:`slot`)."""

    def __init__(self, first, block, n, n_cols, capacity, vectors, fresh, lanes) -> None:
        self.first = first
        #: index - first -> storage slot, lane by lane (``None``: one lane)
        j = np.arange(n)
        self._slots = None
        if lanes > 1:
            self._slots = j % lanes * (n // lanes) + j // lanes
            self._slots.flags.writeable = False  # :meth:`slots_of` hands it out
        cells = n * n_cols * capacity
        #: the cells, flat: what :meth:`DenseRings.windows` indexes
        self.flat = block[:cells]
        #: ``(series, column, ring slot)``: a series' rings are adjacent,
        #: so one series' window is a single 2-D slice
        self.rows = self.flat.reshape(n, n_cols, capacity)
        #: the same cells as one ``(series, ring slot)`` view per column
        self.cols = [self.rows[:, k, :] for k in range(n_cols)]
        for k, (name, dtype, fill) in enumerate(vectors):
            vec = block[cells + k * n:cells + (k + 1) * n].view(dtype)
            if fresh:
                vec[:] = fill
            setattr(self, name, vec)

    def slot(self, idx):
        """Where index ``idx`` (an int or an array) of this chunk is
        stored: each lane's indices — ``first + lane``, ``first + lane +
        lanes``, … — lie together, so a process that works on some lanes
        touches only their pages."""
        j = idx - self.first if self.first else idx
        return j if self._slots is None else self._slots[j]

    def slots_of(self, idx: np.ndarray) -> np.ndarray:
        """:meth:`slot` of ascending distinct indices: every index of the
        chunk — the streamed commit's case — is the slot map itself."""
        if self._slots is not None and idx.size == self._slots.size:
            return self._slots
        return self.slot(idx)


#: :meth:`DenseRings.windows` reads at most this many series ring by
#: ring.  The kernel's fixed steps (~40 NumPy calls, ~9 more per bisect
#: halving) cost ≈ 60–100 µs a call, a ring read by itself ≈ 2 µs (two
#: ``searchsorted`` and a view; the head/count take and the one
#: concatenation are paid once).  On the 2-vCPU development host, reading
#: n series of one store, the loop against the kernel: raw windows of
#: 300 s over rings of 72 samples (4,096 slots, 4 lanes) 20 / 58 µs at
#: n = 8, 58 / 70 at 32, 79 / 72 at 48; over rings of 400 of 512 slots
#: 59 / 71 at 32, 93 / 138 at 48, 199 / 140 at 64; over full rings of
#: 4,096 86 / 94 at 32, 120 / 99 at 48; 10 s tier rows (72 a ring)
#: 59 / 74 at 32, 97 / 91 at 48.  The loop won every case up to 32.
WINDOW_LOOP_SERIES = 32


class DenseRings:
    """Fixed-capacity rings of many series in dense blocks.

    Every series owns one ring per column (overwrite-oldest, the last
    ``capacity`` rows are retained) written at a common ``head``, plus
    one slot in each per-series vector: ``head`` (next ring slot),
    ``count`` (valid rows) and whatever ``vectors`` adds as ``(name,
    dtype, initial value)``.  Series are addressed by a dense index;
    storage grows by whole chunks of consecutive indices
    (:meth:`add_chunk`), never by copy or zero-fill, so resident pages
    follow the rows actually written.  Index ``i`` is in lane ``i %
    lanes``: chunks hold whole lanes and store each lane's indices
    together.  The vector operations take indices **sorted ascending**.
    """

    def __init__(
        self, capacity: int, n_cols: int, vectors: Sequence[Tuple] = (), lanes: int = 1
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.lanes = int(lanes)
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
        self._chunks.append(_RingChunk(
            self.n_series, block, n, self._n_cols, self.capacity, self._vectors, fresh, self.lanes
        ))
        self.n_series += n
        self._ends.append(self.n_series)

    def __len__(self) -> int:
        return sum(int(chunk.count.sum()) for chunk in self._chunks)

    # ---------------------------------------------------------- scalar reads
    def _locate(self, idx: int) -> Optional[Tuple[_RingChunk, int]]:
        if not 0 <= idx < self.n_series:
            return None
        chunk = self._chunks[bisect_right(self._ends, idx)]
        return chunk, chunk.slot(idx)

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
            return getattr(self._chunks[0], name)[self._chunks[0].slot(ids)]
        out = np.empty(ids.size, dtype=self._dtypes[name])
        for chunk, lo, hi in self._split(ids):
            out[lo:hi] = getattr(chunk, name)[chunk.slot(ids[lo:hi])]
        return out

    def put(self, name: str, ids: np.ndarray, values) -> None:
        """Store ``values`` (array or scalar) into vector ``name`` at ``ids``."""
        per_id = np.ndim(values) > 0
        for chunk, lo, hi in self._split(ids):
            getattr(chunk, name)[chunk.slot(ids[lo:hi])] = values[lo:hi] if per_id else values

    def locate(self, ids: np.ndarray) -> List[Tuple[_RingChunk, np.ndarray, int, int]]:
        """``(chunk, storage slots there, lo, hi)`` for every chunk the
        ascending distinct ``ids`` touch, ``lo:hi`` their positions in
        ``ids``."""
        return [
            (chunk, chunk.slots_of(ids[lo:hi]), lo, hi) for chunk, lo, hi in self._split(ids)
        ]

    def gather(
        self, ids: np.ndarray, slots: np.ndarray, columns: Sequence[int]
    ) -> List[np.ndarray]:
        """Ring cells ``(ids[i], slots[i])`` of the selected columns."""
        out = [np.empty(ids.size, dtype=np.float64) for _ in columns]
        for chunk, lo, hi in self._split(ids):
            local = chunk.slot(ids[lo:hi])
            for dst, k in zip(out, columns):
                dst[lo:hi] = chunk.cols[k][local, slots[lo:hi]]
        return out

    def windows(
        self, ids: np.ndarray, lo, hi, *, right_inclusive: bool
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """The rows of each series ``ids[i]`` whose column 0 lies in
        ``[lo, hi]`` (``[lo, hi)`` unless ``right_inclusive``), time
        ordered: ``(columns, lens)``, every column the rows of all series
        back to back in ``ids`` order, ``lens[i]`` rows of ``ids[i]``.
        ``lo``/``hi`` are scalars or one value per series; ``ids`` come
        in any order and may include indices without storage (no rows).

        An empty range (not ``lo < hi``, or not ``lo <= hi`` when
        right-inclusive, so a NaN edge too) has no rows on either read
        below, and a call whose every range is empty reaches neither, so
        it touches no ring.  Up to
        :data:`WINDOW_LOOP_SERIES` series are read ring by ring
        (:meth:`_window_loop`).  More are read as the twin of
        :meth:`append_rows`, in a fixed number of array steps whatever
        the number of series: ``head``/``count`` with one take, one
        bisect over every selected ring at once — a ring read from its
        oldest row is sorted, so each edge is the count of rows below it,
        found in ⌈log₂ count⌉ halving steps — and one gather per column.
        """
        ids = np.asarray(ids, dtype=np.int64)
        lo = np.asarray(lo, dtype=np.float64)
        # t <= hi  <=>  t < the next float above hi
        hi = np.nextafter(hi, np.inf) if right_inclusive else np.asarray(hi, dtype=np.float64)
        wanted = lo < hi
        if not (wanted.any() if wanted.ndim else wanted):
            return [np.empty(0) for _ in range(self._n_cols)], np.zeros(ids.size, dtype=np.int64)
        if ids.size <= WINDOW_LOOP_SERIES:
            return self._window_loop(ids, lo, hi, wanted)
        if wanted.ndim and not wanted.all():
            lo = np.where(wanted, lo, hi)  # an empty range bisects to no rows, NaN too
        if len(self._chunks) == 1 and ids.max(initial=-1) < self.n_series:
            return self._chunk_windows(self._chunks[0], ids, lo, hi)
        which = np.searchsorted(self._ends, ids, side="right")
        return runs_in_order(ids.size, [
            (pos, *self._chunk_windows(self._chunks[k], ids[pos], *(
                edge[pos] if edge.ndim else edge for edge in (lo, hi))))
            for k in np.unique(which[which < len(self._chunks)]).tolist()
            for pos in [np.flatnonzero(which == k)]
        ], self._n_cols)

    def _chunk_windows(self, chunk: _RingChunk, ids, lo, hi) -> Tuple[List[np.ndarray], np.ndarray]:
        """:meth:`windows` of ``ids`` of one chunk, ``hi`` exclusive."""
        cap, k = self.capacity, ids.size
        local = chunk.slot(ids)
        count = chunk.count[local]
        start = (chunk.head[local] - count) % cap  # slot of the oldest row
        base = local * (self._n_cols * cap)
        # both edges at once: ``below[i]`` rows of ring ``i % k`` are < ``target[i]``
        target = np.empty(2 * k)
        target[:k], target[k:] = lo, hi
        count2, origin, base2 = (np.concatenate([x, x]) for x in (count, start - 1, base))
        below = np.zeros(2 * k, dtype=np.int64)
        step = 1 << max(int(count.max(initial=0)).bit_length() - 1, 0)
        while step:
            cand = below + step
            ok = cand <= count2
            ok &= chunk.flat.take((origin + cand) % cap + base2) < target
            below = np.where(ok, cand, below)
            step >>= 1
        lens = np.maximum(below[k:] - below[:k], 0)
        # a window is one run of slots, or two where it wraps
        slot = (start + below[:k]) % cap
        tail = np.minimum(lens, cap - slot)
        if (tail == lens).all():
            at = runs(base + slot, lens)
        else:
            at = runs(np.stack([base + slot, base], 1).ravel(),
                      np.stack([tail, lens - tail], 1).ravel())
        return [chunk.flat[c * cap:].take(at) for c in range(self._n_cols)], lens

    def _window_loop(self, ids, lo, hi, wanted) -> Tuple[List[np.ndarray], np.ndarray]:
        """:meth:`windows` ring by ring, ``hi`` exclusive: the rings'
        ``head``/``count`` with one take, then per ring one
        ``searchsorted`` of both edges on each sorted segment (two where
        the ring wraps) and a view of its rows; one concatenation copies
        them out.  A ring whose range is empty (``wanted`` false) is not
        read."""
        n = ids.size
        if wanted.ndim:
            edges = np.empty((n, 2))
            edges[:, 0], edges[:, 1] = lo, hi
            wanted = wanted.tolist()
        else:  # one range for every ring
            edges, wanted = [np.array((lo, hi))] * n, [True] * n
        listed = ids.tolist()
        if len(self._chunks) == 1 and max(listed, default=-1) < self.n_series:
            chunk = self._chunks[0]
            local = chunk.slot(ids)
            chunks = [chunk] * n
            slots, heads, counts = (
                v.tolist() for v in (local, chunk.head[local], chunk.count[local])
            )
        else:
            located = [loc or (None, 0) for loc in map(self._locate, listed)]
            chunks, slots = [c for c, _ in located], [j for _, j in located]
            heads = [0 if c is None else c.head.item(j) for c, j in located]
            counts = [0 if c is None else c.count.item(j) for c, j in located]
        cap = self.capacity
        parts = []
        lens = [0] * n
        for i in range(n):
            count = counts[i]
            if not (count and wanted[i]):
                continue
            chunk, j, head, edge = chunks[i], slots[i], heads[i], edges[i]
            if count < cap or not head:  # one sorted run, slots 0..count
                a, b = chunk.cols[0][j, :count].searchsorted(edge).tolist()
                if b > a:
                    parts.append(chunk.rows[j, :, a:b])
                lens[i] = b - a
                continue
            # wrapped: the older run [head:] then the newer [:head]
            times = chunk.cols[0][j]
            a, b = times[head:].searchsorted(edge).tolist()
            c, d = times[:head].searchsorted(edge).tolist()
            if b > a:
                parts.append(chunk.rows[j, :, head + a:head + b])
            if d > c:
                parts.append(chunk.rows[j, :, c:d])
            lens[i] = b - a + d - c
        lens = np.array(lens, dtype=np.int64)
        if not parts:
            return [np.empty(0) for _ in range(self._n_cols)], lens
        return list(parts[0].copy() if len(parts) == 1 else np.concatenate(parts, axis=1)), lens

    def append_rows(
        self, ids: np.ndarray, counts: np.ndarray, cols: Sequence[np.ndarray],
        located: Optional[List] = None,
    ) -> List:
        """Append ``counts[i] >= 1`` time-ordered rows to series ``ids[i]``
        (ascending, distinct).

        ``cols`` holds the rows of all series back to back, one array
        per column.  Ring semantics per series: rows continue at
        ``head`` and wrap; a series receiving ``capacity`` or more rows
        keeps only the last ``capacity``, laid out from slot 0.  Cells
        are written before ``head``/``count`` publish them.  Returns the
        chunks written, :meth:`locate` of ``ids`` (``located``, when the
        caller has it already), for a caller with per-series vectors of
        its own to update.
        """
        cap = self.capacity
        one_each = cols[0].size == ids.size and cap > 1  # the streamed-telemetry commit
        ends = None if one_each else np.cumsum(counts)
        written = self.locate(ids) if located is None else located
        for chunk, local, lo, hi in written:
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
    capacity overrides); series ``sid`` owns index ``sid`` of the rings
    of capacity ``_cap[sid]``.  Beside ``head``/``count`` each row
    records the samples ever ``written`` to it, its ``last`` (newest)
    timestamp — the append order check reads this dense vector, not the
    rings — and the ``sid`` it belongs to (-1: none), so a process that
    maps the announced blocks (:meth:`attach`) rebuilds the addressing
    from the storage alone (:meth:`refresh`) — the pool workers' view.
    Exactly one process writes: the one that allocates.  Series
    ``sid`` is in lane ``sid % lanes`` (:class:`DenseRings`): a store of
    several places gives each place a lane, so one place's rings lie
    together and a pass over it reads them in address order.
    """

    VECTORS = (("written", np.int64, 0), ("last", np.float64, -np.inf), ("sid", np.int64, -1))

    def __init__(
        self,
        alloc: Optional[Allocator] = heap_alloc,
        announce: Optional[Callable[[Tuple], None]] = None,
        lanes: int = 1,
    ) -> None:
        self._alloc = alloc
        self._announce = announce
        self.lanes = int(lanes)
        #: rings by capacity
        self.classes: Dict[int, DenseRings] = {}
        #: per capacity, the ids below which an attached view has
        #: addressed every ring the owner created
        self._scanned: Dict[int, int] = {}
        #: every block so far as ``(capacity, first id, ids, descriptor)``
        #: — the arguments of :meth:`attach`, in order
        self.blocks: List[Tuple] = []
        self._cap = np.zeros(0, dtype=np.int64)  # ring capacity per sid; 0 = no ring
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

    def capacities(self, sids: np.ndarray) -> np.ndarray:
        """Ring capacity of each of the ascending ``sids``; 0 = no ring yet."""
        self._reserve(int(sids[-1]) + 1)
        return self._cap[sids]

    def _bind(self, sids: np.ndarray, capacity: int) -> None:
        top = int(sids[-1]) + 1
        self._reserve(top)
        self._cap[sids] = capacity
        self._len = max(self._len, top)
        self.n_series += sids.size

    def _rings_of(self, capacity: int) -> DenseRings:
        ring = self.classes.get(capacity)
        if ring is None:
            ring = self.classes[capacity] = DenseRings(capacity, 2, self.VECTORS, self.lanes)
        return ring

    def create(self, sids: np.ndarray, capacity: int) -> None:
        """Give each of the ascending ``sids`` an empty ring of
        ``capacity`` slots.

        Storage grows by chunks of ``max(64, have, need)`` ids, rounded
        up to whole lanes — at least doubling, so a store holds O(log n)
        of them — each announced once as ``(capacity, first id, ids,
        descriptor)``.
        """
        ring = self._rings_of(capacity)
        have, top = ring.n_series, int(sids[-1]) + 1
        if top > have:
            n = -(-max(64, have, top - have) // self.lanes) * self.lanes
            block, desc = self._alloc(ring.block_size(n))
            ring.add_chunk(block, n, fresh=True)
            self.blocks.append((capacity, have, n, desc))
            if self._announce is not None:
                self._announce(self.blocks[-1])
        ring.put("sid", sids, sids)
        self._bind(sids, capacity)

    def attach(self, capacity: int, first: int, n: int, block: np.ndarray) -> None:
        """Map a block another process created.  Idempotent: a block
        starting below the ids already mapped is skipped, so an
        announcement may be delivered more than once; blocks must
        otherwise arrive in order."""
        ring = self._rings_of(capacity)
        if first < ring.n_series:
            return
        if first > ring.n_series:
            raise ValueError(f"ring block at {first} leaves a gap after {ring.n_series}")
        ring.add_chunk(block, n, fresh=False)

    def refresh(self) -> None:
        """Address the rings the owner has created since the last call
        (an attached view)."""
        for capacity, ring in self.classes.items():
            lo = self._scanned.get(capacity, 0)
            if lo < ring.n_series:
                ids = np.arange(lo, ring.n_series)
                made = ring.take("sid", ids) >= 0
                self._reserve(ring.n_series)
                fresh = ids[made & (self._cap[lo:ring.n_series] == 0)]
                if fresh.size:
                    self._bind(fresh, capacity)
                # an id without a ring yet may get one later: rescan from it
                self._scanned[capacity] = lo + (made.size if made.all() else int(made.argmin()))

    def sids(self) -> np.ndarray:
        """Every series id with a ring, ascending."""
        return np.flatnonzero(self._cap[: self._len])

    def _at(self, sid: int) -> Optional[Tuple[_RingChunk, int]]:
        loc = self._located.get(sid)
        if loc is None and 0 <= sid < self._len and self._cap.item(sid):
            loc = self.classes[self._cap.item(sid)]._locate(sid)
            self._located[sid] = loc  # rings never move
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

    def append(self, sids: np.ndarray, lens: np.ndarray, times: np.ndarray,
               values: np.ndarray) -> None:
        """The batch write: ``lens[j] > 0`` time-sorted samples, back to
        back in ``times``/``values``, onto the ring of each of the
        ascending distinct ``sids`` (all created).  A series' new
        samples may not start before its last retained one; that is
        checked for every series before anything is written."""
        if len(self.classes) == 1:
            parts = [(next(iter(self.classes.values())), sids, lens, times, values)]
        else:
            caps = self._cap[sids]
            parts = []
            for capacity in np.unique(caps).tolist():
                pick = caps == capacity
                rows = np.repeat(pick, lens)
                parts.append((self.classes[capacity], sids[pick], lens[pick],
                              times[rows], values[rows]))
        for k, (ring, rows, n, t, v) in enumerate(parts):
            if t.size == rows.size:  # one sample each
                first = newest = t
            else:
                ends = np.cumsum(n)
                first, newest = t[ends - n], t[ends - 1]
            located = ring.locate(rows)
            for chunk, local, lo, hi in located:
                if (first[lo:hi] < chunk.last[local]).any():
                    raise ValueError("bulk append overlaps existing data")
            parts[k] = (ring, rows, n, t, v, newest, located)
        for ring, rows, n, t, v, newest, located in parts:
            for chunk, local, lo, hi in ring.append_rows(rows, n, (t, v), located):
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
        times, values = ring_window(
            chunk.rows[i], chunk.head.item(i), chunk.count.item(i), t0, t1, right_inclusive=True
        )
        return times, values

    def windows(
        self, sids: np.ndarray, lo, hi, *, right_inclusive: bool = True
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`window` of every series of ``sids`` at once:
        ``(times, values, lens)``, the points of all series back to back
        in ``sids`` order (:meth:`DenseRings.windows`, per capacity
        class).  A series without a ring has none."""
        sids = np.asarray(sids, dtype=np.int64)
        if len(self.classes) == 1:  # a series of another class has no rows here
            (times, values), lens = next(iter(self.classes.values())).windows(
                sids, lo, hi, right_inclusive=right_inclusive
            )
            return times, values, lens
        caps = np.zeros(sids.size, dtype=np.int64)  # 0: no ring
        known = sids < self._cap.size
        caps[known] = self._cap[sids[known]]
        lo, hi = np.broadcast_to(lo, sids.shape), np.broadcast_to(hi, sids.shape)
        (times, values), lens = runs_in_order(sids.size, [
            (pos, *self.classes[cap].windows(
                sids[pos], lo[pos], hi[pos], right_inclusive=right_inclusive))
            for cap in np.unique(caps[caps > 0]).tolist() for pos in [np.flatnonzero(caps == cap)]
        ], 2)
        return times, values, lens

    def retained(self, sids: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every retained point of each of the ascending ``sids``, as
        :meth:`windows` returns them (``times, values, lens``), and per
        series whether older points have been overwritten."""
        sids = np.asarray(sids, dtype=np.int64)
        times, values, lens = self.windows(sids, -np.inf, np.inf)
        written = np.zeros(sids.size, dtype=np.int64)
        caps = self._cap[sids]
        for cap in np.unique(caps[caps > 0]).tolist():
            pick = caps == cap
            written[pick] = self.classes[cap].take("written", sids[pick])
        return times, values, lens, written > lens


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
    say where each lives: its place (``sid % n_places``) and its series
    id.  :meth:`column` gives one label name's values as codes with
    postings, built on first use, so a matcher is evaluated once per
    distinct value and a selection costs what it selects.  Stores build
    one per metric and rebuild it only when the generation moves.
    """

    __slots__ = ("generation", "keys", "places", "sids", "n_places", "_columns")

    def __init__(
        self, generation: int, keys: Sequence[SeriesKey], sids: np.ndarray, n_places: int = 1,
    ) -> None:
        strs = [str(key) for key in keys]
        order = sorted(range(len(strs)), key=strs.__getitem__)  # stable; runs are cheap
        self.generation = generation
        self.keys: List[SeriesKey] = [keys[i] for i in order]
        self.sids: np.ndarray = sids[order]
        self.places: np.ndarray = self.sids % n_places
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


class MetricVersions:
    """Per-metric write epochs and series generations as dense counters.

    ``index`` maps a metric to its slot in ``epochs`` (commits touching
    the metric) and ``generations`` (series of the metric admitted); a
    commit bumps the slots of its metrics with one array op.
    """

    __slots__ = ("index", "epochs", "generations")

    def __init__(self) -> None:
        self.index: Dict[str, int] = {}
        self.epochs = np.zeros(8, dtype=np.int64)
        self.generations = np.zeros(8, dtype=np.int64)

    def slot(self, metric: str) -> int:
        """The slot of ``metric``, assigned on first use."""
        idx = self.index.get(metric)
        if idx is None:
            # grow the counters before publishing the slot: a reader
            # probing them holds no lock against this
            idx = len(self.index)
            if idx == self.epochs.size:
                self.epochs = np.concatenate((self.epochs, np.zeros_like(self.epochs)))
                self.generations = np.concatenate(
                    (self.generations, np.zeros_like(self.generations))
                )
            self.index[metric] = idx
        return idx

    def epoch(self, metric: str) -> int:
        idx = self.index.get(metric)
        return 0 if idx is None else int(self.epochs[idx])

    def generation(self, metric: str) -> int:
        idx = self.index.get(metric)
        return 0 if idx is None else int(self.generations[idx])


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
    process-parallel tier); the bookkeeping here is unchanged.
    """

    #: no worker pool: a query engine runs this store's passes in
    #: process (a parallel store carries one)
    pool = None
    #: series id ``sid`` lives in place ``sid % n_places``: the unit one
    #: query pass covers (:class:`~repro.shard.ShardedTimeSeriesStore`
    #: has several)
    n_places = 1
    #: the store's one rollup cascade, as a one-entry list
    #: (:meth:`create_tiersets`); ``None`` without tiers
    tiersets = None

    def __init__(self, default_capacity: int = 4096, *, rings: Optional[RawRings] = None) -> None:
        if default_capacity <= 0:
            raise ValueError("default_capacity must be positive")
        self.default_capacity = int(default_capacity)
        self.registry = SeriesRegistry()
        self.rings = rings if rings is not None else RawRings()
        self._capacity_overrides: Dict[str, int] = {}
        #: write epochs and series generations per metric; series id ->
        #: its metric's slot there, so a commit bumps its touched metrics
        #: as array ops
        self.versions = MetricVersions()
        self._metric_of = np.zeros(0, dtype=np.int64)
        #: per metric its series ids in creation order, and the label
        #: index as of some generation
        self._metric_sids: Dict[str, List[int]] = {}
        self._indexes: Dict[Optional[str], LabelIndex] = {}
        self._listeners: List[IngestListener] = []
        self.total_inserts = 0

    def create_tiersets(
        self,
        resolutions: Sequence[float],
        *,
        tier_capacity: int = 4096,
        ingest_buffer_cap: int = 1 << 18,
    ) -> List:
        """Build the store's rollup cascade: one tier store over every
        place, fed by one ingest listener.

        One rollup configuration per store — every engine over it reads
        the same tiers, and a worker's mirror has the layout baked in —
        so a second call with the same layout returns the same list and
        one with a different layout raises instead of silently forking
        the config.
        """
        if self.tiersets is not None:
            if [t.resolution_s for t in self.tiersets[0].tiers] == sorted(
                float(r) for r in resolutions
            ):
                return self.tiersets
            raise RuntimeError(
                "store already has rollup tiers with a different layout; "
                "one rollup configuration per store"
            )
        self.tiersets = [self._make_tierset(resolutions, tier_capacity, ingest_buffer_cap)]
        return self.tiersets

    def _make_tierset(self, resolutions: Sequence[float], tier_capacity: int, buffer_cap: int):
        """The cascade; subclasses relocate its tiers."""
        from repro.query.rollup import RollupManager

        return RollupManager(
            self, resolutions, capacity=tier_capacity, ingest_buffer_cap=buffer_cap
        )

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
        return self.versions.epoch(metric)

    def _admit(self, sids: np.ndarray) -> None:
        """First write of each of the ascending ``sids``: create its ring
        and enter it into the per-metric indexes."""
        if sids[-1] >= self._metric_of.size:
            self._metric_of = np.resize(
                self._metric_of, max(64, 2 * self._metric_of.size, len(self.registry))
            )
        versions = self.versions
        by_capacity: Dict[int, List[int]] = {}
        for sid in sids.tolist():
            metric = self.registry.key_for(sid).metric
            idx = versions.slot(metric)
            self._metric_of[sid] = idx
            self._metric_sids.setdefault(metric, []).append(sid)
            versions.generations[idx] += 1
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
        self.versions.epochs[self._metric_of[sids]] += 1  # once per distinct metric
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
        self.versions.epochs[self._metric_of.item(sid)] += 1
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
        sids = np.array([sid], dtype=np.int64)
        if not self.rings.capacities(sids).all():
            self._admit(sids)
        self.rings.append(sids, np.array([times.size]), times, values)
        self.total_inserts += int(times.size)
        self.versions.epochs[self._metric_of.item(sid)] += 1
        if self._listeners:
            # copies, not the caller's arrays: listeners may buffer the
            # columns past this call (rollup folds), and the caller is
            # free to reuse its scratch arrays afterwards
            self._notify(np.full(times.size, sid, dtype=np.int64), times.copy(), values.copy())

    def insert_many(self, keys: Sequence[SeriesKey], times, values) -> None:
        """Keyed columnar commit: the keyed twin of :meth:`insert`.

        Writes the rows of ``insert(keys[i], times[i], values[i])`` for
        every ``i`` — unseen keys interned in order — as one commit: one
        sort, one ring scatter, one epoch bump per metric and one
        listener delivery (grouped by series, as :meth:`append_batch`).
        """
        if len(keys):
            self._append(self.registry.ids_for(keys), times, values)

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
        self._append(series_ids, times, values)

    def _append(self, series_ids, times, values) -> None:
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
            index = self._indexes[metric] = LabelIndex(generation, keys, sids, self.n_places)
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
        return self.versions.generation(metric)

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

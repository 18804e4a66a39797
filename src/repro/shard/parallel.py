"""Process-parallel shard execution over shared-memory columns.

This module is the worker-pool executor of the sharded store: its one
ring store and its one rollup tier store are relocated into
``multiprocessing.shared_memory`` blocks, and a persistent pool of worker
processes runs the place passes of
:data:`~repro.query.passes.SHARD_PASSES` — scatter passes for queries,
standing-grid reads and the rollup fold — directly against those
columns, each worker for the places it owns.  **One process writes the
raw rings: the parent.**  A commit is the plain store's vectorised
scatter, straight into blocks the parent already maps; workers map the
same blocks read-only and only ever write their places' rollup rows and
their own standing grids.  What crosses the pipe is task metadata and
per-place *partial results*; the committed columns a worker's folder
and grids consume are handed over — batched onto its next fold /
scatter / standing dispatch — through a per-worker column log in the
same shared memory.

Layering (parent process owns everything above the pipe):

* :class:`SharedArena` / :class:`_BlockCache` — bump-pointer allocation
  of NumPy arrays inside shared-memory blocks, addressed by portable
  descriptors ``(block, offset, count, dtype)`` that any process can
  attach on demand.  The parent allocates every long-lived block;
  workers only ever create per-batch result scratch.
* The store's :class:`~repro.telemetry.tsdb.RawRings` allocate from the
  arena; each new block is announced once (``"rblock"``) on the pool's
  **announcement log**, and a worker's sid-addressed view is rebuilt
  from the blocks alone.
* :class:`SharedTierSet` — the store's
  :class:`~repro.query.rollup.RollupManager` with its dense tier store
  allocated from the arena and announced on the same log.  There is one
  fold kernel (:class:`~repro.query.rollup.CascadeFolder`) and one tier
  store layout: a worker runs that kernel over its places' series in its
  mapping of the parent's tier blocks, and the parent runs the very same
  kernel over the very same blocks when the pool is down.
* :class:`ShardWorkerPool` — worker lifecycle, the announcement log,
  forwarded columns split by owning worker into per-worker column logs,
  batched task dispatch with crash detection and respawn, and
  shared-memory result transport.
* :class:`ParallelShardedStore` — the sharded store over that storage,
  carrying the pool.  There is no parallel engine: the
  :class:`~repro.query.engine.QueryEngine` over this store dispatches
  its passes to the live pool and runs them in process when it is down
  or a worker dies — correctness never depends on the pool.

Determinism: a worker runs the same pass functions over a
:class:`~repro.query.passes.ShardState` of the same columns the parent
reads, and the parent's gather is the canonical partition-invariant
merge — so pool results are **bit-identical** to in-process execution
for every worker count.
"""

from __future__ import annotations

import os
import traceback
from multiprocessing import get_context, resource_tracker, shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.trace import TRACER
from repro.query.engine import WORKER_DIED, QueryEngine
from repro.query.passes import SHARD_PASSES, ShardState
from repro.query.rollup import CascadeFolder, RollupManager, TierStore
from repro.query.standing import StandingGrid
from repro.shard.store import ShardedTimeSeriesStore
from repro.telemetry.tsdb import RawRings, TimeSeriesStore

#: Arrays at or above this many bytes travel through shared memory;
#: smaller ones are pickled inline with the reply (cheaper than a block).
_INLINE_MAX = 1 << 14


def _unregister_shm(shm: shared_memory.SharedMemory, name: str) -> None:
    """Detach a block from this process's resource tracker.

    Attachers (and creators whose blocks outlive them, like worker
    arenas the parent unlinks later) must not let the tracker unlink
    the block when this process exits — on 3.10–3.12 every
    ``SharedMemory`` is registered unconditionally, so a dying worker
    would otherwise tear down blocks the parent still maps.
    """
    try:
        resource_tracker.unregister(getattr(shm, "_name", name), "shared_memory")
    except Exception:
        pass


#: Whether attaching a block must be followed by a tracker unregister.
#: True in any process with its *own* resource tracker (the parent, and
#: spawn-started workers): there, an attach-registration would make this
#: process's tracker unlink the block when the process dies, tearing
#: down storage another process still maps.  Fork-started workers set
#: this False in ``_worker_main``: they share the parent's tracker, its
#: cache is a plain set, and the extra unregister would cancel the
#: creator's registration.
_UNREGISTER_ON_ATTACH = True


def _attach_block(name: str) -> shared_memory.SharedMemory:
    shm = shared_memory.SharedMemory(name=name)
    if _UNREGISTER_ON_ATTACH:
        _unregister_shm(shm, name)
    return shm


def _unlink_block(name: str) -> None:
    """Best-effort unlink of a block by name (idempotent).

    No manual tracker bookkeeping here: on the Pythons this targets the
    attach registers with the resource tracker and ``unlink`` issues the
    matching unregister, so the pair stays balanced.
    """
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    try:
        shm.close()
        shm.unlink()
    except Exception:
        pass


class SharedArena:
    """Bump-pointer allocator of NumPy arrays inside shared-memory blocks.

    Allocations return ``(array, descriptor)`` where the descriptor
    ``(block_name, offset, count, dtype_str)`` lets any process attach
    the same storage via :class:`_BlockCache`.  Blocks are zero-filled
    on creation (fresh pages), never reused or freed individually; the
    arena is the allocation unit for long-lived ring storage and for
    per-batch result transport.
    """

    def __init__(self, prefix: str, block_bytes: int = 1 << 22, *, untrack: bool = False) -> None:
        self.prefix = prefix
        self.block_bytes = int(block_bytes)
        self._blocks: List[Tuple[str, shared_memory.SharedMemory]] = []
        self._cur: Optional[shared_memory.SharedMemory] = None
        self._cur_name = ""
        self._off = 0
        self._seq = 0
        self._untrack = untrack

    @property
    def block_names(self) -> List[str]:
        return [name for name, _ in self._blocks]

    def alloc(self, count: int, dtype=np.float64) -> Tuple[np.ndarray, Tuple[str, int, int, str]]:
        dt = np.dtype(dtype)
        nbytes = int(count) * dt.itemsize
        aligned = (nbytes + 7) & ~7
        if self._cur is None or self._off + aligned > self._cur.size:
            size = max(self.block_bytes, aligned, 8)
            name = f"{self.prefix}.{os.getpid()}.{self._seq}"
            self._seq += 1
            shm = shared_memory.SharedMemory(name=name, create=True, size=size)
            if self._untrack:
                _unregister_shm(shm, name)
            self._blocks.append((name, shm))
            self._cur, self._cur_name, self._off = shm, name, 0
        arr = np.ndarray((int(count),), dtype=dt, buffer=self._cur.buf, offset=self._off)
        desc = (self._cur_name, self._off, int(count), dt.str)
        self._off += aligned
        return arr, desc

    def close(self, *, unlink: bool) -> None:
        for name, shm in self._blocks:
            try:
                shm.close()
            except BufferError:
                pass  # a view is still alive; the mapping outlives us
            if unlink:
                # unlink even while mapped (POSIX keeps live mappings
                # valid) — skipping it would leak the block and leave a
                # stale resource-tracker registration
                try:
                    shm.unlink()
                except Exception:
                    pass
        self._blocks = []
        self._cur = None


class _BlockCache:
    """Name → attached ``SharedMemory`` map with descriptor views."""

    def __init__(self) -> None:
        self._blocks: Dict[str, shared_memory.SharedMemory] = {}

    def view(self, desc: Tuple[str, int, int, str]) -> np.ndarray:
        name, off, count, dt = desc
        shm = self._blocks.get(name)
        if shm is None:
            shm = self._blocks[name] = _attach_block(name)
        return np.ndarray((count,), dtype=np.dtype(dt), buffer=shm.buf, offset=off)

    def close(self) -> None:
        for shm in self._blocks.values():
            try:
                shm.close()
            except BufferError:
                pass
        self._blocks = {}


# --------------------------------------------------------------------------
# Result transport: nested structures with large arrays relocated into a
# per-batch shared-memory arena, everything else pickled inline.


def _pack(obj, alloc: Optional[Callable[[np.ndarray], Optional[Tuple]]]):
    if isinstance(obj, np.ndarray):
        if alloc is not None:
            desc = alloc(obj)
            if desc is not None:
                return ("S", desc)
        return ("A", obj)
    if isinstance(obj, dict):
        return ("D", [(k, _pack(v, alloc)) for k, v in obj.items()])
    if isinstance(obj, tuple):
        return ("T", [_pack(v, alloc) for v in obj])
    if isinstance(obj, list):
        return ("L", [_pack(v, alloc) for v in obj])
    return ("V", obj)


def _unpack(enc, view: Callable[[Tuple], np.ndarray]):
    tag, payload = enc
    if tag == "S":
        return view(payload).copy()  # copy: result outlives the scratch block
    if tag == "A":
        return payload
    if tag == "D":
        return {k: _unpack(v, view) for k, v in payload}
    if tag == "T":
        return tuple(_unpack(v, view) for v in payload)
    if tag == "L":
        return [_unpack(v, view) for v in payload]
    return payload


# --------------------------------------------------------------------------
# Worker process.


class _WorkerStore(ShardState):
    """A worker's view of the store, as the passes of every place it owns
    see it: the ring and tier blocks the parent announced, mapped, and
    one folder and one set of standing grids over the series ids of
    those places."""

    def __init__(self, cache: _BlockCache, worker_idx: int, n_workers: int, n_places: int) -> None:
        # the raw rings are parent-written blocks, mapped read-only; the
        # tiers arrive as announced blocks
        super().__init__(RawRings(alloc=None, lanes=n_places))
        self.worker_idx = worker_idx
        #: per place whether this worker owns it (series ``sid`` lives in
        #: place ``sid % n_places``, place ``p`` on worker ``p % n_workers``)
        self.mine = np.arange(n_places) % n_workers == worker_idx
        #: the worker's column log: parent-written ``(ids, times, values)``
        self.clog: List[np.ndarray] = []
        self._cache = cache

    def apply(self, ev: Tuple) -> None:
        """One entry of the pool's announcement log."""
        kind = ev[0]
        if kind == "rblock":
            _, capacity, first, n, desc = ev
            block = self._cache.view(desc)
            block.flags.writeable = False
            self.raw.attach(capacity, first, n, block)
        elif kind == "tiers":
            _, resolutions, tier_capacity, buffer_cap = ev
            self.tiers = TierStore(resolutions, tier_capacity, alloc=None, lanes=self.mine.size)
            self.folder = CascadeFolder(
                self.tiers.tiers, self.raw, buffer_cap=buffer_cap, places=self.mine
            )
        elif kind == "tblock":
            _, sid0, n, descs = ev
            self.tiers.attach(sid0, n, [self._cache.view(desc) for desc in descs])
        elif kind == "streg":
            self._register_standing(*ev[1:])
        elif kind == "clog" and ev[1] == self.worker_idx:
            self.clog = [self._cache.view(desc) for desc in ev[2]]

    def columns(self, rows: int) -> None:
        """The commits of this worker's places since its last dispatch,
        back to back in its column log, which the parent reuses after
        this batch."""
        ids, times, values = (column[:rows].copy() for column in self.clog)
        if self.folder is not None:
            self.folder.on_columns(ids, times, values)
        if self.standing:
            order = np.argsort(ids, kind="stable")  # regroup by series
            ids, times, values = ids[order], times[order], values[order]
            for grid in self.standing.values():
                grid.ingest(ids, times, values)

    def _register_standing(self, step: float, n_slots: int, want_rate: bool) -> None:
        """Create (or widen) the standing grid for ``step``, bootstrapped
        from the shared rings of this worker's places.  The parent writes
        a ring before it forwards the columns, so the rings already hold
        every sample of any column delivery still queued behind this
        registration; the backfill floor — each ring's current last
        timestamp — keeps those from counting twice."""
        grid = StandingGrid.widened(self.standing.get(step), step, n_slots, want_rate)
        if grid is None:
            return
        self.standing[step] = grid
        self.raw.refresh()
        sids = self.raw.sids()
        sids = sids[self.mine[sids % self.mine.size]]
        times, values, lens, evicted = self.raw.retained(sids)
        floors = np.full(sids.size, -np.inf)
        floors[lens > 0] = times[np.cumsum(lens)[lens > 0] - 1]
        grid.backfill_many(sids, times, values, lens, evicted, floors)

    def run(self, kind: str, payload: Optional[Dict]):
        self.raw.refresh()
        if kind == "sync":  # nothing to run: the columns were the message
            return None
        return SHARD_PASSES[kind](self, payload)


def _worker_main(
    conn, worker_idx: int, prefix: str, shared_tracker: bool, n_workers: int, n_places: int
) -> None:
    """Worker process entry: attach-on-demand mirrors + task loop.

    One message per dispatch batch: ``(trace_parent, events, rows,
    [(place, kind, payload), ...])`` in — ``events`` the
    announcement-log entries this worker has not seen yet, ``rows`` the
    forwarded columns waiting in its column log — ``("ok",
    scratch_blocks, replies, spans)`` out.  Large reply arrays
    travel through a per-batch scratch arena whose blocks the parent
    unlinks after copying — the only shared memory a worker ever
    creates; rings and rollup tiers are parent-allocated and mapped here
    from the descriptors in the log.

    ``trace_parent`` is the dispatching side's innermost open span id
    (or ``None`` when tracing is off): the worker adopts it as the
    parent of its per-task spans and ships the drained spans back in
    the reply, so worker-side work parents correctly under the parent
    process's scatter/append span.
    """
    global _UNREGISTER_ON_ATTACH
    if shared_tracker:  # fork: one tracker for the whole pool
        _UNREGISTER_ON_ATTACH = False
    # a fork-started worker inherits the parent's tracer state (ring,
    # stack, pid) — drop it; tracing re-arms per batch from trace_parent
    TRACER.enabled = False
    TRACER.reset()
    cache = _BlockCache()
    store = _WorkerStore(cache, worker_idx, n_workers, n_places)
    old_scratch: List[shared_memory.SharedMemory] = []
    conn.send(("hello", worker_idx))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        if msg == "__crash__":
            os._exit(1)
        trace_parent, events, rows, batch = msg
        if trace_parent is not None:
            TRACER.enable()
            TRACER.reset()
            TRACER.adopt(trace_parent)
        else:
            TRACER.enabled = False
        for shm in old_scratch:
            try:
                shm.close()
            except BufferError:
                pass
        old_scratch = []
        scratch: List[SharedArena] = []

        def alloc(arr: np.ndarray) -> Optional[Tuple]:
            if arr.nbytes < _INLINE_MAX or arr.ndim != 1 or not arr.flags.c_contiguous:
                return None  # small / non-flat arrays ride inline
            if not scratch:
                scratch.append(SharedArena(f"{prefix}.s{worker_idx}", untrack=True))
            dst, desc = scratch[0].alloc(arr.size, arr.dtype)
            dst[:] = arr
            return desc

        try:
            for ev in events:
                store.apply(ev)
            if rows:
                store.columns(rows)
            replies = []
            for place, kind, payload in batch:
                if TRACER.enabled:
                    # the span name a pass run in the parent gets
                    with TRACER.span(f"{kind}.shard", shard=place):
                        data = store.run(kind, payload)
                else:
                    data = store.run(kind, payload)
                replies.append(_pack(data, alloc))
            scratch_names = scratch[0].block_names if scratch else []
            if scratch:
                old_scratch = [shm for _, shm in scratch[0]._blocks]
            spans = TRACER.drain() if TRACER.enabled else []
            conn.send(("ok", scratch_names, replies, spans))
        except Exception:
            conn.send(("err", traceback.format_exc()))
    try:
        conn.close()
    except Exception:
        pass


# --------------------------------------------------------------------------
# Parent-side pool.


class ShardWorkerPool:
    """Persistent worker pool with one announcement log and crash handling.

    Places have **static ownership**: place ``p`` always executes on
    worker ``p % n_workers``, so the column stream of a worker's places
    is seen by that worker alone, in commit order.  Every ring block,
    tier block, column log and standing registration goes out once on
    the pool-wide announcement log (:meth:`announce`); each dispatch
    hands a worker the entries it has not seen, and a respawned worker
    is handed the whole log again.  ``dispatch`` is synchronous — all tasks are sent,
    then one batched reply per worker is collected — so the parent (the
    only writer of raw rings) never writes while a worker reads or
    folds.  A dead or hung worker is respawned, or marks the whole pool
    :attr:`broken`; callers degrade to their serial implementations
    (parent-side state is authoritative and shm-readable throughout).
    """

    def __init__(
        self,
        n_workers: int,
        n_places: int,
        *,
        timeout_s: float = 60.0,
        respawn: bool = True,
    ) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.n_workers = int(n_workers)
        self.n_places = int(n_places)
        self.timeout_s = float(timeout_s)
        self.respawn = bool(respawn)
        self.prefix = f"repro.{os.getpid()}.{id(self) & 0xFFFF:x}"
        #: the announcement log, how much of it each worker was sent, and
        #: the replay a respawned worker is sent first
        self.log: List[Tuple] = []
        self._sent = [0] * self.n_workers
        self._replay: Dict[int, List[Tuple]] = {}
        #: the commits forwarded since the last dispatch, not yet split
        #: by place, and their rows
        self._pending: List[Tuple] = []
        self._pending_rows = 0
        #: per worker its column log — ``(ids, times, values)`` arrays in
        #: shared memory it maps — and the rows written there for its
        #: next dispatch to hand over
        self._clog: List[Sequence[np.ndarray]] = [()] * self.n_workers
        self._cols_rows = [0] * self.n_workers
        #: rows that rode a dispatch / that a dead worker or a broken pool
        #: took with it (the rings hold them: the fold restarts from there)
        self.cols_forwarded_rows = 0
        self.cols_dropped_rows = 0
        self.cols_flushes = 0
        self._procs: List = []
        self._conns: List = []
        self.started = False
        self.broken = False
        self.dispatches = 0
        self.tasks_sent = 0
        self.respawns_total = 0

    def worker_of(self, place: int) -> int:
        return place % self.n_workers

    @property
    def active(self) -> bool:
        return self.started and not self.broken

    def announce(self, ev: Tuple) -> None:
        """Append to the announcement log: every worker applies it,
        before its next task."""
        self.log.append(ev)

    def open_column_logs(self, alloc: Callable, rows: int) -> bool:
        """Give every worker its column log: ``(ids, times, values)``
        arrays of ``rows`` rows from ``alloc`` (shared memory), announced
        by their descriptors.  False, doing nothing, once they are open."""
        if self._clog[0]:
            return False
        for w in range(self.n_workers):
            self._clog[w], descs = zip(*(
                alloc(rows, dtype) for dtype in (np.int64, np.float64, np.float64)
            ))
            self.announce(("clog", w, descs))
        return True

    @property
    def queued_rows(self) -> int:
        """Forwarded rows no worker has been handed yet."""
        return self._pending_rows + sum(self._cols_rows)

    def forward(self, ids: np.ndarray, times: np.ndarray, values: np.ndarray) -> None:
        """Forward one commit's columns to the workers of its places
        while the pool is live: the commit only queues them, and the
        next dispatch writes them into the owning workers' column logs —
        right away once a column log's worth waits, so that no worker
        waits on more than its log holds."""
        if self.active:
            self._pending.append((ids, times, values))
            self._pending_rows += ids.size
            if self._pending_rows > self._clog[0][0].size:
                self._split_pending()

    def _split_pending(self) -> None:
        """Write the forwarded commits into the column logs of the
        workers owning their places, in commit order."""
        pending, self._pending, self._pending_rows = self._pending, [], 0
        for cols in pending:
            if self.n_workers == 1:
                self._write(0, cols, np.arange(cols[0].size))
                continue
            owner = cols[0] % self.n_places % self.n_workers
            for w in range(self.n_workers):
                self._write(w, cols, np.flatnonzero(owner == w))

    def _write(self, w: int, cols: Sequence[np.ndarray], rows: np.ndarray) -> None:
        """Append ``rows`` of ``cols`` to worker ``w``'s column log.
        Never more rows wait than the log holds: a full log is delivered
        on its own (counted), so it stays bounded when nothing else is
        dispatched."""
        log = self._clog[w]
        done = 0
        while done < rows.size:  # fill the log up, deliver, go on
            if not self.active:
                self.cols_dropped_rows += rows.size - done
                return
            at = self._cols_rows[w]
            n = min(log[0].size - at, rows.size - done)
            if n == 0:
                self.cols_flushes += 1
                self._run([(w, "sync", None)])  # place w is worker w's
                continue
            for dst, src in zip(log, cols):
                np.take(src, rows[done:done + n], out=dst[at:at + n])
            self._cols_rows[w] += n
            done += n

    def _break(self) -> None:
        """Give the pool up.  Callers degrade to their serial paths; the
        columns still queued for the workers are dropped (counted)."""
        self.broken = True
        self.cols_dropped_rows += self.queued_rows
        self._pending, self._pending_rows = [], 0
        self._cols_rows = [0] * self.n_workers

    def _spawn_worker(self, w: int) -> Tuple:
        import multiprocessing as mp

        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = get_context(method)
        if method == "fork":
            # Spawn the parent's resource-tracker daemon *before* forking:
            # children then inherit its live fd and share it, instead of
            # each lazily spawning a private tracker whose cache would
            # hold (and unlink, on worker exit) the parent's blocks.
            try:
                resource_tracker.ensure_running()
            except Exception:
                pass
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, w, self.prefix, method == "fork", self.n_workers, self.n_places),
            daemon=True,
            name=f"repro-shard-worker-{w}",
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def start(self) -> None:
        if self.started:
            return
        for w in range(self.n_workers):
            proc, parent_conn = self._spawn_worker(w)
            self._procs.append(proc)
            self._conns.append(parent_conn)
        for w in range(self.n_workers):
            reply = self._recv(w, timeout_s=30.0)
            if reply is None or reply[0] != "hello":
                self._break()
                raise RuntimeError(f"shard worker {w} failed to start")
        self.started = True

    def _recv(self, w: int, timeout_s: Optional[float] = None):
        """One message from worker ``w``; ``None`` if it died or hung."""
        conn, proc = self._conns[w], self._procs[w]
        deadline = timeout_s if timeout_s is not None else self.timeout_s
        waited = 0.0
        while True:
            try:
                if conn.poll(0.05):
                    return conn.recv()
            except (EOFError, OSError):
                return None
            if not proc.is_alive():
                # drain anything flushed before death
                try:
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):
                    pass
                return None
            waited += 0.05
            if waited >= deadline:
                proc.terminate()
                return None

    def dispatch(self, tasks: List[Tuple[int, str, Dict]]) -> List:
        """Run ``(place, kind, payload)`` tasks; one batched send+recv per
        worker.  Returns per-task results in order; tasks owned by a dead
        worker yield :data:`WORKER_DIED` (and the pool respawns it, or
        turns broken).

        When tracing is enabled the dispatching span's id rides along in
        each batch message and every worker's per-task spans come back
        in its reply — dispatch ingests them into the parent ring, so a
        cross-process scatter traces exactly like a serial one.
        """
        return self._run(tasks)

    # ``dispatch`` is the seam callers instrument per task kind; a column
    # flush is part of the commit that triggered it, not a dispatch of
    # its own, so it enters here
    def _run(self, tasks: List[Tuple[int, str, Optional[Dict]]]) -> List:
        if not self.active:
            raise RuntimeError("pool is not active")
        self._split_pending()  # may deliver a full column log on its own first
        if not self.active:  # ...and find a worker dead: the pool broke
            return [WORKER_DIED] * len(tasks)
        self.dispatches += 1
        self.tasks_sent += len(tasks)
        trace_parent = TRACER.current_id() if TRACER.enabled else None
        per_worker: Dict[int, List[int]] = {}
        messages: Dict[int, List] = {}
        for pos, (place, kind, payload) in enumerate(tasks):
            w = self.worker_of(place)
            per_worker.setdefault(w, []).append(pos)
            messages.setdefault(w, []).append((place, kind, payload))
        rows = {}
        for w, msg in messages.items():
            events = self._replay.pop(w, []) + self.log[self._sent[w]:]
            self._sent[w] = len(self.log)
            rows[w], self._cols_rows[w] = self._cols_rows[w], 0
            try:
                self._conns[w].send((trace_parent, events, rows[w], msg))
            except (BrokenPipeError, OSError):
                pass  # surfaces as a dead recv below
        results: List = [WORKER_DIED] * len(tasks)
        for w, positions in per_worker.items():
            reply = self._recv(w)
            if reply is None:
                self._handle_death(w, rows[w])
                continue
            status = reply[0]
            if status == "err":
                self._break()
                raise RuntimeError(f"shard worker {w} task failed:\n{reply[1]}")
            self.cols_forwarded_rows += rows[w]
            _, scratch_names, replies, spans = reply
            if spans:
                TRACER.ingest(spans)
            scratch = _BlockCache()
            try:
                for pos, enc in zip(positions, replies):
                    results[pos] = _unpack(enc, scratch.view)
            finally:
                scratch.close()
                for name in scratch_names:
                    _unlink_block(name)
        return results

    def _handle_death(self, w: int, rows: int) -> None:
        """Recover from worker ``w`` dying mid-dispatch.

        The batch's tasks stay :data:`WORKER_DIED` either way (callers
        re-apply or recompute against parent-authoritative shared state).
        With respawn on, a new worker takes ``w``'s places and is handed
        the whole announcement log before its first task: the tier
        layout, every ring and tier block and the column logs, then the
        standing registrations, whose backfill reads the rings as they
        are then.  The fatal batch's columns are not sent again (counted
        as dropped; the log is being refilled): the rings hold those
        samples, a new worker's folders start from the shared watermarks
        and its grids backfill from the rings — which also absorbs the
        columns queued since.  Without respawn the pool turns broken.
        """
        self.cols_dropped_rows += rows
        if not self.respawn or not self._respawn(w):
            self._break()
            return
        log = self.log
        self._replay[w] = [ev for ev in log if ev[0] != "streg"] + [
            ev for ev in log if ev[0] == "streg"
        ]
        self._sent[w] = len(log)

    def _respawn(self, w: int) -> bool:
        proc = self._procs[w]
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        try:
            self._conns[w].close()
        except OSError:
            pass
        try:
            proc_new, conn_new = self._spawn_worker(w)
        except Exception:
            return False
        self._procs[w] = proc_new
        self._conns[w] = conn_new
        reply = self._recv(w, timeout_s=30.0)
        if reply is None or reply[0] != "hello":
            return False
        self.respawns_total += 1
        return True

    def inject_crash(self, worker_idx: int) -> None:
        """Kill one worker (tests: exercises degradation paths)."""
        try:
            self._conns[worker_idx].send("__crash__")
        except (BrokenPipeError, OSError):
            pass
        self._procs[worker_idx].join(timeout=5.0)

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._procs = []
        self._conns = []
        self.started = False
        # backstop: unlink scratch blocks a crashed worker left behind —
        # those are untracked, so nothing else will ever reclaim them.
        # Parent-owned blocks are excluded; their arena closes (and
        # unlinks) through its own handles.
        try:
            for entry in os.listdir("/dev/shm"):
                if entry.startswith(f"{self.prefix}.s"):
                    _unlink_block(entry)
        except OSError:
            pass

    def stats(self) -> Dict[str, float]:
        return {
            "workers": float(self.n_workers),
            "dispatches": float(self.dispatches),
            "tasks_sent": float(self.tasks_sent),
            "broken": float(self.broken),
            "respawns_total": float(self.respawns_total),
        }


# --------------------------------------------------------------------------
# Parent-side shared rollup tiers.


class SharedTierSet(RollupManager):
    """The store's rollup cascade over shared storage (parent side).

    A :class:`~repro.query.rollup.RollupManager` whose tier blocks come
    from the parent's :class:`SharedArena` and are announced on the
    pool's log (``("tblock", sid0, n, descriptors)``), so every worker
    maps the very storage the parent reads.  While the pool is live each
    worker folds the places it owns — the store forwards it their
    committed columns — and the in-process folder is kept empty
    (:meth:`ensure_sids`).  Whenever
    folding comes back in process (pool down, or a place re-folded after
    its worker died) it therefore restarts from the shared watermarks
    and the raw rings, which hold every column of the meantime, exactly
    as a respawned worker does.  A tier pass publishes its watermarks
    last, so a fold cut short between tier passes re-folds safely:
    finished passes are skipped by their watermarks, the rest run again.
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        resolutions: Sequence[float],
        tier_capacity: int,
        arena: SharedArena,
        pool: ShardWorkerPool,
        buffer_cap: int = 1 << 18,
    ) -> None:
        self._arena = arena
        self._pool = pool
        self._buffer_cap = int(buffer_cap)
        super().__init__(
            store, resolutions, capacity=tier_capacity, ingest_buffer_cap=buffer_cap
        )

    def _make_tier_store(self, resolutions: Sequence[float], capacity: int) -> TierStore:
        # the places are the storage lanes: a worker folds into the pages
        # of its own places' series only
        tiers = TierStore(
            resolutions, capacity, alloc=self._arena.alloc, lanes=self.store.n_places
        )
        self._pool.announce(
            ("tiers", tuple(t.resolution_s for t in tiers.tiers), capacity, self._buffer_cap)
        )
        return tiers

    def ensure_sids(self) -> None:
        """Grow the tiers to cover every interned series (parent-only,
        called between dispatches) and announce the new blocks.  Called
        at every commit and before every fold pass, so also where a live
        pool is observed: the workers' folders have the column stream
        from here on, and the in-process one forgets what it has seen."""
        grown = self.dense.grow(len(self.store.registry))
        if grown is not None:
            self._pool.announce(("tblock",) + grown)
        if self._pool.active:
            self.folder.restart()

    def _on_ingest(self, ids: np.ndarray, times: np.ndarray, values: np.ndarray) -> None:
        if self._pool.active:
            self.ensure_sids()  # the store forwards the columns to the workers' folders
        else:
            super()._on_ingest(ids, times, values)

    #: ``late_samples_dropped`` under the name ``bench/`` reads; goes
    #: when that read can next change
    late_dropped = RollupManager.late_samples_dropped


# --------------------------------------------------------------------------
# Parallel store.


class ParallelShardedStore(ShardedTimeSeriesStore):
    """Sharded store whose rings and tiers live in shared memory beside a
    worker pool.

    One ring store in one parent-owned :class:`SharedArena`, and the
    parent is its **only writer**: every write path is the plain
    store's commit, scattering straight into the shared blocks.  Workers
    map every block read-only from the pool's announcement log and read
    only their places' series.  Once something worker-side consumes the
    column stream — rollup tiers (:meth:`create_tiersets`) or a standing
    registration (:meth:`register_standing`) — the one commit listener
    forwards each commit to the pool, which hands every place's part to
    the worker that owns it (:meth:`ShardWorkerPool.forward`).  The parent
    keeps all bookkeeping (registry, epochs, generations, listeners)
    authoritative, so reads and serial fallbacks never depend on worker
    state.
    """

    def __init__(
        self,
        n_shards: int = 8,
        default_capacity: int = 4096,
        *,
        workers: int = 2,
        pool_timeout_s: float = 60.0,
        respawn: bool = True,
    ) -> None:
        self.pool = ShardWorkerPool(
            workers, n_shards, timeout_s=pool_timeout_s, respawn=respawn
        )
        self.arena = SharedArena(f"{self.pool.prefix}.p")
        #: the workers' standing grids as ``step -> (n_slots, want_rate)``
        self.standing_regs: Dict[float, Tuple[int, bool]] = {}
        #: commits made while the pool was not running
        self.serial_appends = 0
        self._closed = False
        rings = RawRings(
            self.arena.alloc, lambda block: self.pool.announce(("rblock",) + block), n_shards
        )
        super().__init__(n_shards, default_capacity, rings=rings)

    # ------------------------------------------------------------ lifecycle
    def _make_tierset(
        self, resolutions: Sequence[float], tier_capacity: int, buffer_cap: int
    ) -> SharedTierSet:
        return SharedTierSet(self, resolutions, tier_capacity, self.arena, self.pool, buffer_cap)

    def create_tiersets(
        self,
        resolutions: Sequence[float],
        *,
        tier_capacity: int = 4096,
        ingest_buffer_cap: int = 1 << 18,
    ) -> List[SharedTierSet]:
        """The shared rollup cascade, each place folded by its worker
        from the forwarded column stream."""
        tiersets = super().create_tiersets(
            resolutions, tier_capacity=tier_capacity, ingest_buffer_cap=ingest_buffer_cap
        )
        self.forward_columns(int(ingest_buffer_cap))
        return tiersets

    def register_standing(self, step: float, n_slots: int, want_rate: bool) -> None:
        """Have every worker keep a standing grid for ``step`` over its
        places' series, of at least ``n_slots`` bins (with rate state if
        asked), built and backfilled from the shared rings before its
        next task.  One an earlier call covers announces nothing."""
        have_slots, have_rate = self.standing_regs.get(step, (0, False))
        reg = (max(int(n_slots), have_slots), bool(want_rate) or have_rate)
        if reg == (have_slots, have_rate):
            return
        self.standing_regs[step] = reg
        self.forward_columns()
        self.pool.announce(("streg", step) + reg)

    def forward_columns(self, log_rows: int = 1 << 18) -> None:
        """From now on forward every commit, split by place, to the
        owning workers while the pool is live (idempotent), through a
        per-worker column log of ``log_rows`` rows in the arena.  Called
        when the first worker-side consumer of the column stream
        appears, and not before, so nothing is forwarded unread."""
        if self.pool.open_column_logs(self.arena.alloc, log_rows):
            self.add_ingest_listener(self.pool.forward)

    def start_parallel(self) -> None:
        """Start the worker pool."""
        self.pool.start()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.pool.started:
            self.pool.close()
        self.arena.close(unlink=True)

    def __enter__(self) -> "ParallelShardedStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- writing
    def append_batch(self, series_ids, times, values) -> None:
        if not self.pool.active:
            self.serial_appends += 1
        if TRACER.enabled:
            with TRACER.span("store.append", samples=len(series_ids)):
                super().append_batch(series_ids, times, values)
        else:
            super().append_batch(series_ids, times, values)

    def shard_stats(self) -> Dict[str, float]:
        """Ingest-side counters: commits made without the pool, forwarded
        columns, and the pool's own."""
        out = {
            "serial_appends": float(self.serial_appends),
            "cols_forwarded_rows": float(self.pool.cols_forwarded_rows),
            "cols_dropped_rows": float(self.pool.cols_dropped_rows),
            "cols_flushes": float(self.pool.cols_flushes),
        }
        out.update({f"pool_{k}": v for k, v in self.pool.stats().items()})
        return out


class ParallelShardContext:
    """One-stop construction of the parallel tier: store + pool + engine.

    ``with ParallelShardContext(shards=8, workers=4) as ctx:`` yields a
    running pool; ``ctx.store`` is a drop-in replacement for the plain
    sharded store and ``ctx.engine`` the query engine over it.
    """

    def __init__(
        self,
        *,
        shards: int = 8,
        workers: int = 2,
        capacity: int = 4096,
        rollup_resolutions: Optional[Sequence[float]] = None,
        tier_capacity: int = 4096,
        enable_cache: bool = True,
        pool_timeout_s: float = 60.0,
    ) -> None:
        self.store = ParallelShardedStore(
            shards, capacity, workers=workers, pool_timeout_s=pool_timeout_s
        )
        if rollup_resolutions is not None:
            self.store.create_tiersets(rollup_resolutions, tier_capacity=tier_capacity)
        self.engine = QueryEngine(self.store, enable_cache=enable_cache)
        self.store.start_parallel()

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "ParallelShardContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "WORKER_DIED",
    "SharedArena",
    "SharedTierSet",
    "ShardWorkerPool",
    "ParallelShardedStore",
    "ParallelShardContext",
]

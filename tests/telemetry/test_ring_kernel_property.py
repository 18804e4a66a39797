"""Property: the dense append kernel is byte-equal to the per-series write.

Random commit streams — ring wraparound, segments of a ring's capacity
or more, empty segments, sorted and shuffled rows, ids spread over
several storage chunks and first seen in the middle of a
batch, rings created in an order that is not the id order, per-metric
capacities mixed in one commit, scalar inserts between batches, and
commits that overlap what a ring already holds — go through
:class:`repro.telemetry.tsdb.TimeSeriesStore` and through the per-series
oracle in ``ring_oracle.py``.  Cells, ``head`` / ``count`` / ``written``,
write epochs, insert totals, listener columns and the overlap error must
agree exactly after every step: once on the heap, and once on
shared-memory storage read back through a second mapping built only from
the announced block descriptors (the pool workers' view).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard.parallel import SharedArena, _BlockCache
from repro.telemetry.batch import sort_series_columns
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import RawRings, TimeSeriesStore

from tests.telemetry.ring_oracle import OracleStore

N_IDS = 400
METRICS = "abc"
#: per-metric ring capacities; metric ``c`` takes the store default
CAPACITIES = {"a": 3, "b": 7}
#: the series a scenario writes repeatedly: ids 0, 13, ... spread over the
#: id space; every other id is a filler a ``bulk`` step may create, taken
#: from the top — so rings are created in an order that is not id order
#: and one capacity class grows past its first 64-id chunk
SPREAD = 13
ACTIVE = [slot * SPREAD for slot in range(12)]
FILLERS = [sid for sid in reversed(range(N_IDS)) if sid % SPREAD]

DT = st.sampled_from([0.0, 0.0, 0.5, 3.0])
VALUE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)
#: one segment: series slot, points (dt, value), start before the ring's end?
segment = st.tuples(
    st.integers(0, len(ACTIVE) - 1),
    st.lists(st.tuples(DT, VALUE), min_size=0, max_size=9),
    st.sampled_from([False] * 9 + [True]),
)
step = st.one_of(
    st.tuples(st.just("segments"), st.lists(segment, min_size=0, max_size=8), st.booleans()),
    st.tuples(st.just("batch"), st.lists(segment, min_size=0, max_size=8), st.randoms()),
    st.tuples(st.just("insert"), st.integers(0, len(ACTIVE) - 1), DT, VALUE),
    st.tuples(st.just("bulk"), st.integers(30, 80)),
)
scenario = st.fixed_dictionaries({
    "default_capacity": st.integers(2, 6),
    "steps": st.lists(step, min_size=1, max_size=12),
})


def make_store(default_capacity: int, rings: RawRings) -> TimeSeriesStore:
    store = TimeSeriesStore(default_capacity, rings=rings)
    for metric, capacity in CAPACITIES.items():
        store.set_capacity(metric, capacity)
    for sid in range(N_IDS):
        assert store.registry.id_for(SeriesKey.of(METRICS[sid % 3], series=str(sid))) == sid
    return store


def assert_same(store: TimeSeriesStore, view: RawRings, oracle: OracleStore, heard) -> None:
    for sid, ring in oracle.rings.items():
        chunk, i = view._at(sid)
        state = (int(chunk.head[i]), int(chunk.count[i]), int(chunk.written[i]))
        assert state == (ring._head, ring._count, ring._written), sid
        times, values = ring.cells()
        assert chunk.rows[i, 0, : ring._count].tobytes() == times.tobytes(), sid
        assert chunk.rows[i, 1, : ring._count].tobytes() == values.tobytes(), sid
        assert chunk.last[i] == (ring.last_time() if ring._count else -np.inf), sid
    for sid in view.sids().tolist():  # admitted by a commit that then failed: still empty
        assert sid in oracle.rings or view.count(sid) == 0, sid
    assert store.total_inserts == oracle.total_inserts
    for metric in METRICS:
        assert store.metric_epoch(metric) == oracle.epochs.get(metric, 0), metric
    assert len(heard) == len(oracle.notified)
    for got, want in zip(heard, oracle.notified):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def run_scenario(sc, store: TimeSeriesStore, view: RawRings, sync) -> None:
    """Drive ``sc`` through ``store`` and the oracle; after every step
    compare the oracle with ``view`` (the store's own rings, or a second
    mapping of their storage brought up to date by ``sync``)."""
    default = sc["default_capacity"]
    oracle = OracleStore(
        lambda sid: CAPACITIES.get(METRICS[sid % 3], default), lambda sid: METRICS[sid % 3]
    )
    heard = []
    store.add_ingest_listener(lambda ids, t, v: heard.append((ids, t, v)))
    clock = {}
    fillers = iter(FILLERS)

    def columns(segments):
        """Shared columns + segment bounds of one commit, and the clocks
        it would leave behind; ``None`` bounds mark an expected overlap."""
        by_sid = {}
        for slot, points, before in segments:
            by_sid.setdefault(ACTIVE[slot], (points, before))  # distinct series, first wins
        seg_ids, starts, ends, times, values, after = [], [], [], [], [], dict(clock)
        overlaps = False
        for sid in sorted(by_sid):
            points, before = by_sid[sid]
            t = clock.get(sid, 0.0)
            if before and points and sid in clock:
                t -= 1.0 + points[0][0]  # the first point lands a second before the ring's last
                overlaps = True
            times.append(np.nan)  # a gap row no segment selects
            values.append(np.nan)
            seg_ids.append(sid)
            starts.append(len(times))
            for dt, v in points:
                t += dt
                times.append(t)
                values.append(v)
            ends.append(len(times))
            if points:
                after[sid] = t
        as_i64 = lambda x: np.array(x, dtype=np.int64)  # noqa: E731
        return (as_i64(seg_ids), np.array(times), np.array(values), as_i64(starts),
                as_i64(ends), after, overlaps)

    def both(call_store, call_oracle, overlaps) -> bool:
        if overlaps:
            for call in (call_store, call_oracle):
                with pytest.raises(ValueError, match="bulk append overlaps existing data"):
                    call()
            return False
        call_store()
        call_oracle()
        return True

    for op in sc["steps"]:
        if op[0] == "segments":
            seg_ids, times, values, starts, ends, after, overlaps = columns(op[1])
            if op[2] and seg_ids.size:  # squeeze the gap rows out: contiguous segments
                keep = ~np.isnan(times)
                lens = ends - starts
                times, values = times[keep], values[keep]
                ends = np.cumsum(lens)
                starts = ends - lens
            rows = np.concatenate([np.arange(lo, hi) for lo, hi in zip(starts, ends)] or
                                  [np.empty(0, dtype=np.int64)]).astype(np.int64)
            ids = np.repeat(seg_ids, ends - starts)
            if both(lambda: store.append_batch(ids, times[rows], values[rows]),
                    lambda: oracle.append_segments(seg_ids, times, values, starts, ends),
                    overlaps):
                clock.update(after)
        elif op[0] == "batch":
            seg_ids, times, values, starts, ends, after, overlaps = columns(op[1])
            rows = np.concatenate([np.arange(lo, hi) for lo, hi in zip(starts, ends)] or
                                  [np.empty(0, dtype=np.int64)]).astype(np.int64)
            ids = np.repeat(seg_ids, ends - starts)
            order = np.arange(rows.size)
            op[2].shuffle(order)
            ids, times, values = ids[order], times[rows][order], values[rows][order]

            def to_oracle(ids=ids, times=times, values=values):
                if ids.size:
                    ids_s, t_s, v_s, lo, hi = sort_series_columns(ids, times, values)
                    oracle.append_segments(ids_s[lo], t_s, v_s, lo, hi)

            if both(lambda: store.append_batch(ids, times, values), to_oracle, overlaps):
                clock.update(after)
        elif op[0] == "insert":
            _, slot, dt, v = op
            sid = ACTIVE[slot]
            t = clock.get(sid, 0.0) + dt
            store.insert(store.registry.key_for(sid), t, v)
            oracle.insert(sid, t, v)
            clock[sid] = t
        else:  # bulk: many first-seen series in one commit, one sample each
            sids = np.array(sorted(sid for sid, _ in zip(fillers, range(op[1]))), dtype=np.int64)
            if sids.size:
                times = np.full(sids.size, 1.0)
                values = sids.astype(np.float64)
                store.append_batch(sids, times, values)
                bounds = np.arange(sids.size + 1)
                oracle.append_segments(sids, times, values, bounds[:-1], bounds[1:])
        sync()
        assert_same(store, view, oracle, heard)


@settings(max_examples=60, deadline=None)
@given(sc=scenario)
def test_dense_kernel_matches_oracle_on_the_heap(sc):
    store = make_store(sc["default_capacity"], RawRings())
    run_scenario(sc, store, store.rings, sync=lambda: None)


@settings(max_examples=40, deadline=None)
@given(sc=scenario)
def test_dense_kernel_matches_oracle_on_shared_memory(sc):
    """The owner allocates and announces blocks; the comparison reads a
    second mapping built purely from the announced descriptors."""
    arena = SharedArena(f"repro.test.{os.getpid()}", block_bytes=1 << 12)
    cache = _BlockCache()
    announced = []
    try:
        store = make_store(sc["default_capacity"], RawRings(arena.alloc, announced.append))
        mirror = RawRings(alloc=None)

        def sync() -> None:
            for capacity, first, n, desc in announced:  # every time: re-delivery is a no-op
                block = cache.view(desc)
                block.flags.writeable = False
                mirror.attach(capacity, first, n, block)
            mirror.refresh()

        run_scenario(sc, store, mirror, sync)
        assert mirror.n_series == store.rings.n_series == store.cardinality()
    finally:
        cache.close()
        arena.close(unlink=True)


def test_multi_chunk_unsorted_rows_and_whole_ring_writes_explicitly():
    """One hand-written pass over the paths the property relies on
    hypothesis to find."""
    store = make_store(4, RawRings())
    oracle = OracleStore(lambda sid: CAPACITIES.get(METRICS[sid % 3], 4), lambda sid: METRICS[sid % 3])
    heard = []
    store.add_ingest_listener(lambda ids, t, v: heard.append((ids, t, v)))

    def commit(sids, counts, t0):
        sids = np.array(sids, dtype=np.int64)
        counts = np.array(counts, dtype=np.int64)
        ends = np.cumsum(counts)
        times = t0 + np.arange(ends[-1], dtype=np.float64)
        values = times * 2.0
        store.append_batch(np.repeat(sids, counts), times, values)
        oracle.append_segments(sids, times, values, ends - counts, ends)
        assert_same(store, store.rings, oracle, heard)

    commit([150, 151, 152], [1, 2, 9], 0.0)  # first chunk of each class; 9 >= every capacity
    commit(list(range(200, 400)), [1] * 200, 20.0)  # past every class's 64-row chunk
    commit(list(range(2, 90)), [2] * 88, 40.0)  # smaller ids, later rows
    for capacity, ring in store.rings.classes.items():
        assert len(ring._chunks) >= 2, capacity
    # one commit across both chunks of every class, rows not in id order,
    # mixing wraps, whole-ring writes and a first-seen id
    commit([3, 4, 5, 99, 120, 150, 151, 152, 390], [1, 7, 3, 2, 4, 1, 8, 2, 5], 300.0)
    with pytest.raises(ValueError, match="bulk append overlaps existing data"):
        store.append_batch(np.array([3, 4], dtype=np.int64), np.array([400.0, 10.0]), np.zeros(2))
    assert_same(store, store.rings, oracle, heard)  # the failed commit wrote nothing
    with pytest.raises(IndexError):
        store.append_batch(np.array([N_IDS]), np.array([1.0]), np.array([1.0]))

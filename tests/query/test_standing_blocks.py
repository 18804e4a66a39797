"""Standing reads move ``(series × bin)`` blocks.

A place's ``standing`` pass returns one block per state column, the
provider lands every place's block at its rows' plan positions, and one
reduction turns the block into the answer.  That read must give the same
bits as the sparse read it replaced (``standing_oracle.py``: per-place
partial rows merged by the canonical gather) on every executor and
place count, for every partial aggregate and ``rate``, over dense and
ragged blocks alike; and a wide single-series read must not sort.
The registration backfill, one block for many series, must leave the
state the per-series backfill leaves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import MetricQuery
from repro.query import standing
from repro.query.kernels import PARTIAL_AGGS
from repro.query.standing import StandingGrid, StandingQueryEngine
from repro.telemetry.metric import SeriesKey

from tests.query import standing_oracle as oracle

STEP, RANGE = 10.0, 60.0
SHAPES = [("node",), (), ("rack",)]  # one series per group; one group; four series each
QUERIES = [
    MetricQuery("m", agg=agg, range_s=RANGE, step_s=STEP, group_by=by)
    for agg in PARTIAL_AGGS for by in SHAPES
] + [
    MetricQuery("ctr", agg="rate", range_s=RANGE, step_s=STEP, group_by=by) for by in SHAPES
]
#: a metric whose rings wrapped before registration: not covered early on
WRAPPED = MetricQuery("w", agg="mean", range_s=RANGE, step_s=STEP, group_by=("node",))
#: read times: the last two read after every series has data; the last
#: one's window ends three bins past the newest sample's
READS = (128.0, 155.0, 185.0, 198.0, 230.0)
LATE_START = 170.0  # series n99 is admitted mid-window


def keys_of(metric):
    keys = [SeriesKey.of(metric, node=f"n{i:02d}", rack=f"r{i % 3}") for i in range(12)]
    return keys + [SeriesKey.of(metric, node="n99", rack="r0")]


def commit(store, rng, lo, hi):
    """Every series' samples in ``(lo, hi]``: one every 2 s at its own
    phase (the late series from ``LATE_START``); ``ctr`` counts up and
    sometimes resets."""
    for metric in ("m", "ctr", "w"):
        for i, key in enumerate(keys_of(metric)):
            start = LATE_START if key.label("node") == "n99" else 0.0
            t = np.arange(0.0, hi, 2.0) + (i % 7) * 0.25
            t = t[(t > max(lo, start)) & (t <= hi)]
            if not t.size:
                continue
            if metric == "ctr":
                v = np.cumsum(rng.exponential(4.0, t.size)) + lo
                v[rng.random(t.size) < 0.05] = 0.5  # a counter reset
            else:
                v = rng.normal(50.0, 20.0, t.size)
            store.insert_batch(key, t, v)


def assert_bits_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.labels == b.labels
        assert a.times.tobytes() == b.times.tobytes()
        assert a.values.tobytes() == b.values.tobytes()


@pytest.fixture
def oracle_pass(monkeypatch):
    oracle.install(monkeypatch)


@pytest.mark.parametrize("n_shards", [1, 2, 8])
def test_block_read_bit_identical_to_sparse_read(oracle_pass, executor, n_shards, monkeypatch):
    """Every shape registered at t = 100 over retained rings, then read
    after later commits: dense single-series blocks, a group missing the
    bins before its late series arrived, groups of several series, a
    window past the newest bin, and a wrapped metric the grids cannot
    cover until its window moves past the wrap — ``None`` on both
    sides, so the caller reads the batch engine."""
    paths = {"dense": 0, "merge": 0}

    def counted(fn, path):
        def wrapper(*args):
            paths[path] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(standing, "block_series", counted(standing.block_series, "dense"))
    monkeypatch.setattr(standing, "reduce_partial", counted(standing.reduce_partial, "merge"))
    store = executor.store(n_shards)
    store.set_capacity("w", 8)
    engine = executor.engine(store, enable_cache=False)
    st_engine = StandingQueryEngine(engine)
    rng = np.random.default_rng(n_shards)
    commit(store, rng, 0.0, 100.0)
    for q in QUERIES + [WRAPPED]:
        assert st_engine.register(q)
    lo = 100.0
    for i, at in enumerate(READS):
        commit(store, rng, lo, min(at, 200.0))
        lo = min(at, 200.0)
        if i == 2:
            executor.degrade(store)
        covered = not (executor.falls_back and i >= 2)
        for q in QUERIES + [WRAPPED]:
            st_engine.clear_snapshots()
            want = oracle.read(st_engine, q, at)
            got = st_engine.query(q, at=at)
            if want is None:
                assert got is None
                assert not covered or (q is WRAPPED and at < 160.0)
                continue
            assert covered and got.source == "standing"
            assert_bits_equal(got.series, want)
    if not executor.falls_back:
        assert paths["dense"] > 0 and paths["merge"] > 0


@pytest.mark.parametrize("executor", ["inline", "pool-2"], indirect=True)
def test_wide_single_series_read_does_not_sort(executor):
    """4,096 series, ``group by (node)``, four places: once the plan is
    memoised, a read lands each place's block at its rows' plan
    positions and builds the answer from the block — neither
    ``argsort`` nor ``lexsort`` runs on the reading side."""
    store = executor.store(4, capacity=64)
    engine = executor.engine(store, enable_cache=False)
    keys = [SeriesKey.of("node_cpu_util", node=f"n{i:04d}") for i in range(4096)]
    ids = store.registry.ids_for(keys)
    rng = np.random.default_rng(0)
    for k in range(36):  # one sample per series every 10 s
        store.append_batch(ids, np.full(ids.size, 5.0 + 10.0 * k), rng.uniform(0, 1, ids.size))
    q = engine.parse("mean(node_cpu_util[300s] by 30s) group by (node)")
    st_engine = StandingQueryEngine(engine)
    assert st_engine.register(q)
    first = st_engine.query(q, at=357.0)  # memoises the plan; workers backfill
    assert first is not None and len(first.series) == 4096

    def no_sort(*args, **kwargs):
        raise AssertionError("the standing read sorted")

    st_engine.clear_snapshots()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "argsort", no_sort)
        patch.setattr(np, "lexsort", no_sort)
        got = st_engine.query(q, at=357.0)
    assert got is not None and got.source == "standing"
    assert_bits_equal(got.series, first.series)
    assert st_engine.stats()["scan_fallbacks"] == 0


# ----------------------------------------------------------------- properties

#: time advances: repeats of one timestamp, neighbours in a bin, skipped bins
DT = st.sampled_from([0.0, 0.5, 1.0, 3.0, 7.0, 20.0])
VALUE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


@st.composite
def series(draw, n_max=6, sid_max=40):
    """Ascending distinct sids, each with a time-sorted (maybe empty) run."""
    sids = sorted(draw(st.sets(st.integers(0, sid_max), max_size=n_max)))
    runs = []
    for _ in sids:
        n = draw(st.integers(0, 12))
        t0 = draw(st.floats(0.0, 60.0))
        times = t0 + np.cumsum([draw(DT) for _ in range(n)])
        runs.append((times, np.array([draw(VALUE) for _ in range(n)])))
    return np.array(sids, dtype=np.int64), runs


def state_of(grid: StandingGrid, top: int):
    arrays = [getattr(grid, attr)[:top] for attr, _ in grid._kept]
    arrays += [grid._known[:top], grid._tracked[:top], grid._floor_t[:top],
               grid.complete_from[:top]]
    if grid.track_rate:
        arrays += [grid._prev_t[:top], grid._prev_v[:top]]
    return [a.tobytes() for a in arrays] + [grid.hi_bin]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), picked=series())
def test_backfill_many_leaves_per_series_state(data, picked):
    """One backfill of many series equals a backfill of each by itself,
    array for array: wrapped rings (``evicted``), replay floors, rate
    state, empty series, bins falling off the slot ring, and a grid that
    already held live state."""
    sids, runs = picked
    track_rate = data.draw(st.booleans())
    step = data.draw(st.sampled_from([1.0, 2.5, 10.0]))
    n_slots = data.draw(st.integers(1, 6))
    evicted = np.array([data.draw(st.booleans()) for _ in runs], dtype=bool)
    with_floors = data.draw(st.booleans())
    live = data.draw(st.integers(0, 4))  # samples a live series held before
    lens = np.array([t.size for t, _ in runs], dtype=np.int64)
    times = np.concatenate([t for t, _ in runs] + [np.empty(0)])
    values = np.concatenate([v for _, v in runs] + [np.empty(0)])
    floors = np.array([t[-1] if t.size else -np.inf for t, _ in runs])
    batched, single = (StandingGrid(step, n_slots, track_rate=track_rate) for _ in range(2))
    for grid in (batched, single):
        grid.ingest(np.full(live, 41), 30.0 + np.arange(live, dtype=np.float64), np.ones(live))
    before = batched.updates_applied
    batched.backfill_many(sids, times, values, lens, evicted, floors if with_floors else None)
    for sid, (t, v), ev, floor in zip(sids.tolist(), runs, evicted.tolist(), floors.tolist()):
        oracle.backfill_series(
            single, sid, t, v, evicted=ev, floor=floor if with_floors and t.size else None
        )
    top = max([int(sid) + 1 for sid in sids] + [42 if live else 0])  # every id addressed
    assert state_of(batched, top) == state_of(single, top)
    # it counts the samples it folded, which the cells of those series hold
    assert batched.updates_applied - before == batched.count[sids].sum()
    assert batched.updates_applied <= single.updates_applied


@settings(max_examples=150, deadline=None)
@given(data=st.data(), picked=series(n_max=8, sid_max=12))
def test_block_cells_are_the_sparse_rows(data, picked):
    """The non-empty cells of a block, row-major, are the sparse rows of
    the same window: ids without state and bins past the newest read as
    empty cells."""
    sids, runs = picked
    step = data.draw(st.sampled_from([1.0, 2.5, 10.0]))
    grid = StandingGrid(step, data.draw(st.integers(1, 8)), track_rate=True)
    for sid, (t, v) in zip(sids.tolist(), runs):
        grid.ingest(np.full(t.size, sid), t, v)
    hi = grid.hi_bin if grid.hi_bin is not None else 0
    b0 = data.draw(st.integers(hi - grid.n_slots + 1, hi + 2))
    b1 = b0 + data.draw(st.integers(0, grid.n_slots + 2))
    asked = np.array(data.draw(st.permutations(range(16)))[: data.draw(st.integers(0, 16))])
    cells = grid.block(asked, b0, b1, tuple(StandingGrid.CELLS))
    assert all(col.shape == (asked.size, b1 - b0 + 1) for col in cells.values())
    rows = oracle.grid_rows(grid, asked, b0, b1, want_rate=True)
    pos, col = np.nonzero(cells["count"])
    np.testing.assert_array_equal(pos, rows["spos"])
    np.testing.assert_array_equal(b0 + col, rows["bin"])
    for name in ("sum", "count", "min", "max", "last_t", "last_v", "inc", "first_inc"):
        assert cells[name][pos, col].tobytes() == rows[name].tobytes()

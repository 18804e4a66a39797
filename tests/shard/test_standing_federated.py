"""Standing queries over every store shape.

Standing state read place by place and gathered with the engine's
canonical merge must be partition-invariant: the same history in a
plain store, split into 1, 3, or 4 places, or maintained worker-side
per place under the process pool answers every registered shape like the batch engine
over a plain store (to 1e-9: a grid sums a bin's samples commit by
commit, a batch read in one pass).
"""

import numpy as np
import pytest

from repro.query import MetricQuery, QueryEngine
from repro.query.standing import StandingQueryEngine
from repro.shard import ParallelShardedStore, ShardedTimeSeriesStore
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

QUERIES = [
    MetricQuery("m", agg="mean", range_s=400.0, step_s=60.0, group_by=("node",)),
    MetricQuery("m", agg="max", range_s=300.0, step_s=30.0),
    MetricQuery("m", agg="last", range_s=500.0, step_s=50.0, group_by=("node",)),
    MetricQuery("m", agg="count", range_s=400.0, step_s=60.0, group_by=("node", "shard")),
    MetricQuery("ctr", agg="rate", range_s=400.0, step_s=60.0, group_by=("node",)),
]


def commit_rounds(seed, n_series=10, rounds=6, counter=False):
    """Interleaved per-series commit slices with monotone times."""
    rng = np.random.default_rng(seed)
    metric = "ctr" if counter else "m"
    keys = [
        SeriesKey.of(metric, node=f"n{i % 3}", shard=str(i)) for i in range(n_series)
    ]
    level = {k: 0.0 for k in keys}
    tcur = {k: 0.0 for k in keys}
    out = []
    for _ in range(rounds):
        batch = []
        for k in keys:
            n = int(rng.integers(0, 8))
            if n == 0:
                continue
            ts = tcur[k] + np.cumsum(rng.uniform(1.0, 30.0, size=n))
            tcur[k] = float(ts[-1])
            if counter:
                vs = level[k] + np.cumsum(rng.exponential(5.0, size=n))
                level[k] = float(vs[-1])
            else:
                vs = rng.normal(50.0, 20.0, size=n)
            batch.append((k, ts, vs))
        out.append(batch)
    return out


def assert_standing_matches(got, want):
    assert got is not None, f"standing fell back for {want.query}"
    assert got.source == "standing"
    assert len(got.series) == len(want.series)
    for a, b in zip(got.series, want.series):
        assert a.labels == b.labels
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_allclose(a.values, b.values, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("n_shards", [1, 3, 4])
def test_standing_matches_batch_on_every_executor(executor, n_shards):
    """Partial and rate shapes, registered before any data: exact after
    every commit round wherever the grids are — parent-side, one for
    every place, or inside each worker, over its places.  Once a pool is
    gone its grids went with it: the pass runs where no grid exists, the
    read is not covered, and the caller's batch fallback is counted."""
    store = executor.store(n_shards)
    engine = executor.engine(store, enable_cache=False)
    oracle = TimeSeriesStore(default_capacity=4096)
    batch = QueryEngine(oracle, enable_cache=False)
    st = StandingQueryEngine(engine)
    for q in QUERIES:
        assert st.register(q)
    at = 0.0
    rounds = list(zip(commit_rounds(7), commit_rounds(8, counter=True)))
    for i, (batch_m, batch_c) in enumerate(rounds):
        for k, ts, vs in batch_m + batch_c:
            store.insert_batch(k, ts, vs)
            oracle.insert_batch(k, ts, vs)
            at = max(at, float(ts[-1]))
        if i == len(rounds) - 2:
            executor.degrade(store)
        covered = not (executor.falls_back and i >= len(rounds) - 2)
        for q in QUERIES:
            got = st.query(q, at=at)
            if covered:
                assert_standing_matches(got, batch.query(q, at=at))
            else:
                assert got is None
    stats = st.stats()
    assert stats["reads_served"] > 0
    assert stats["scan_fallbacks"] == (2 * len(QUERIES) if executor.falls_back else 0)
    assert stats["grids"] == len({q.step_s for q in QUERIES})
    assert (getattr(engine, "serial_fallbacks", 0) > 0) == executor.falls_back


@pytest.mark.parametrize("executor", ["single", "inline", "pool-2"], indirect=True)
def test_standing_engines_over_one_engine_share_its_state(executor):
    """A hub and a front door each wrap the one batch engine in their own
    standing engine.  Registering the same shape on both keeps one grid
    per step and one ingest listener: every committed sample is applied
    once, both answer exactly, and both executors
    report the same ``grids`` / ``updates_applied`` / ``late_dropped``
    after the same commits and one read."""
    from repro.query.reference import evaluate_naive

    q = MetricQuery("m", agg="mean", range_s=30.0, step_s=10.0)
    store = executor.store(4, capacity=256)
    engine = executor.engine(store, enable_cache=False)
    hub_side, door_side = StandingQueryEngine(engine), StandingQueryEngine(engine)
    assert hub_side.register(q) and door_side.register(q)
    assert hub_side.provider is door_side.provider
    if executor.pooled:
        assert list(store.standing_regs) == [10.0]  # one entry to replay on a respawn
    standing = [
        listener for listener in store._listeners
        if "Standing" in type(getattr(listener, "__self__", None)).__name__
    ]
    assert len(standing) == (0 if executor.pooled else 1)
    keys = [SeriesKey.of("m", node=f"n{i:02d}") for i in range(16)]
    ids = store.registry.ids_for(keys)
    # 1 600 samples inside the bin ring — a worker's grid gets them in one
    # batch, with the read's dispatch, and must not count any as late
    for k in range(100):
        store.append_batch(ids, np.full(16, 950.0 + 0.4 * k), np.full(16, float(k)))
    # three samples older than the bin ring, on a series of their own
    store.insert_batch(SeriesKey.of("m", node="lagging"), np.array([1.0, 2.0, 3.0]), np.ones(3))
    assert engine.plan(q).fanout == store.n_places  # the read below reaches every place
    want = evaluate_naive(store, q, at=995.0)
    assert want.series
    for st in (hub_side, door_side):
        assert_standing_matches(st.query(q, at=995.0), want)
        stats = st.stats()
        assert stats["grids"] == 1
        assert stats["updates_applied"] == 1600.0
        assert stats["late_dropped"] == 3.0
        assert stats["scan_fallbacks"] == 0.0


def test_parallel_standing_matches_serial_reference_through_crash():
    """Worker-side grids fed by each place's column stream answer exactly
    — including after a worker crash, where the respawned worker replays
    the announcement log (rings + standing registrations) from shared
    memory.
    One read may observe the crash and fall back; the next is exact."""
    with ParallelShardedStore(n_shards=4, default_capacity=4096, workers=2) as pstore:
        pstore.create_tiersets((10.0, 60.0))
        pstore.start_parallel()
        engine = QueryEngine(pstore, enable_cache=False)
        st = StandingQueryEngine(engine)
        ref = ShardedTimeSeriesStore(n_shards=4, default_capacity=4096)
        ref_engine = QueryEngine(ref, enable_cache=False)
        for q in QUERIES:
            assert st.register(q)
        at = 0.0
        rounds = list(zip(commit_rounds(7), commit_rounds(8, counter=True)))
        for i, (batch, cbatch) in enumerate(rounds):
            for k, ts, vs in batch + cbatch:
                gid = pstore.registry.id_for(k)
                pstore.append_batch(np.full(ts.size, gid, dtype=np.int64), ts, vs)
                ref.insert_batch(k, ts, vs)
                at = max(at, float(ts[-1]))
            if i == 2:
                pstore.pool.inject_crash(0)
            for q in QUERIES:
                got = st.query(q, at=at)
                if got is None:
                    # the dispatch that detects the dead worker loses its
                    # tasks by design; the retry hits the respawned worker
                    got = st.query(q, at=at)
                assert_standing_matches(got, ref_engine.query(q, at=at))
        assert pstore.pool.respawns_total == 1
        assert not pstore.pool.broken
        assert pstore.pool.active
        stats = st.stats()
        assert stats["standing_scatters"] > 0
        assert stats["scan_fallbacks"] <= len(QUERIES)


@pytest.mark.parametrize("resolutions", [None, (10.0, 60.0)])
def test_parallel_standing_sees_serial_path_inserts(resolutions):
    """Scalar ``insert`` / per-series ``insert_batch`` (how loop
    self-telemetry is written) must reach a worker-side grid that
    already exists — with rollup tiers and without: the store itself
    forwards committed columns once anything worker-side consumes them."""
    from repro.query.reference import evaluate_naive
    from repro.shard import ParallelShardContext

    q = MetricQuery("m", agg="sum", range_s=100.0, step_s=10.0, group_by=("node",))
    keys = [SeriesKey.of("m", node=f"n{i}") for i in range(4)]
    with ParallelShardContext(
        shards=3, workers=2, capacity=256, rollup_resolutions=resolutions
    ) as ctx:
        st = StandingQueryEngine(ctx.engine)
        for t in range(0, 50, 10):
            for key in keys:
                ctx.store.insert(key, t + 1.0, float(t))
        assert st.register(q)
        assert_standing_matches(st.query(q, at=50.0), evaluate_naive(ctx.store, q, at=50.0))
        for t in range(50, 100, 10):
            for i, key in enumerate(keys):
                if i % 2:
                    ctx.store.insert(key, t + 1.0, float(t))
                else:
                    ctx.store.insert_batch(key, np.array([t + 1.0, t + 2.0]), np.array([1.0, t]))
        want = evaluate_naive(ctx.store, q, at=100.0)
        assert all(s.times.size == 10 for s in want.series)
        assert_standing_matches(st.query(q, at=100.0), want)
        assert ctx.store.shard_stats()["cols_forwarded_rows"] > 0

"""Process-parallel shard execution: exactness, degradation, lifecycle.

The parallel tier's contract is *bit-identicality*: the worker pool runs
the very same per-shard pass functions the serial loop runs and the
gather is untouched, so results must equal serial in-process execution
exactly — for every worker count, for every query shape, with rollup
tiers folded inside the workers, and across every degradation path
(worker crash between commits, during a scatter, or inside a fold).
These tests pin all of that to the serial engine and the single-store
oracle (the plain engine over the same data), plus the
``append_batch`` edge cases and the ``ClusterConfig(parallel=)``
wiring.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.query import LabelMatcher, MetricQuery, QueryEngine
from repro.query import engine as query_engine
from repro.query.reference import evaluate_naive
from repro.query.rollup import ROW_COLUMNS, CascadeFolder
from repro.query.standing import StandingQueryEngine
from repro.shard import ParallelShardContext, ParallelShardedStore, ShardedTimeSeriesStore
from repro.shard.parallel import WORKER_DIED
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

from tests.query.test_property import random_query
from tests.shard.test_federation_property import assert_bit_identical

HORIZON = 1000.0


def series_data(seed, n_series=12, max_points=60, counter=False):
    """Deterministic per-series columns shared by every store under test."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_series):
        key = SeriesKey.of(
            "ctr" if counter else "m", node=f"n{i % 4}", shard=str(i)
        )
        n = int(rng.integers(2, max_points))
        times = np.sort(rng.uniform(0, HORIZON, size=n))
        if counter:
            values = np.cumsum(rng.exponential(5.0, size=n))
        else:
            values = rng.normal(50.0, 20.0, size=n)
        out.append((key, times, values))
    return out


def fill_serial(store, data):
    for key, times, values in data:
        store.insert_batch(key, times, values)


def oracle_engine(data, resolutions=None):
    """The plain engine over a plain store holding ``data``: the
    one-place case every store shape must answer bit for bit."""
    store = TimeSeriesStore(default_capacity=4096)
    if resolutions is not None:
        store.create_tiersets(resolutions)
    fill_serial(store, data)
    return QueryEngine(store, enable_cache=False)


def fill_through_pool(store, data):
    """Commit through ``append_batch``, one single-series batch per
    series: the columnar path, forwarded to the pool."""
    for key, times, values in data:
        gid = store.registry.id_for(key)
        store.append_batch(np.full(times.size, gid, dtype=np.int64), times, values)


def parallel_store(data, n_shards, workers, *, resolutions=None, respawn=True):
    store = ParallelShardedStore(
        n_shards=n_shards, default_capacity=4096, workers=workers, respawn=respawn
    )
    if resolutions is not None:
        store.create_tiersets(resolutions)
    store.start_parallel()
    fill_through_pool(store, data)
    return store


# ---------------------------------------------------------------------------
# Bit-identicality properties


def assert_ran_where_expected(executor, engine, store):
    """``serial_fallbacks`` > 0 exactly where a pool exists and did not
    run the passes; on a live pool the scatters were its only dispatches
    (the commits wrote the shared rings from the parent) — none at all
    where these few series keep every scatter in process, which is
    counted on its own and is no fallback."""
    assert (getattr(engine, "serial_fallbacks", 0) > 0) == executor.falls_back
    assert (getattr(engine, "inline_by_size", 0) > 0) == executor.by_size
    if executor.by_size:
        assert engine.parallel_scatters == store.pool.dispatches == 0
    elif executor.pooled:
        assert engine.parallel_scatters > 0
        assert store.serial_appends == 0
        assert store.pool.dispatches == engine.parallel_scatters
    elif executor.name == "pool-stopped":
        assert engine.parallel_scatters == 0


@pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 5, 8])
def test_bit_identical_to_single_shard_oracle_on_every_executor(executor, n_shards):
    data = series_data(100 + n_shards)
    orc = oracle_engine(data)
    store = executor.store(n_shards)
    fill_through_pool(store, data)
    executor.degrade(store)
    par = executor.engine(store, enable_cache=False)
    rng = np.random.default_rng(n_shards)
    for _ in range(10):
        q = random_query(rng)
        at = float(rng.uniform(HORIZON * 0.5, HORIZON * 1.1))
        assert_bit_identical(par.query(q, at=at), orc.query(q, at=at))
    assert_ran_where_expected(executor, par, store)


def test_samples_and_rate_match_the_oracle_on_every_executor(executor):
    data = series_data(7, counter=True)
    orc = oracle_engine(data)
    store = executor.store(4)
    fill_through_pool(store, data)
    executor.degrade(store)
    par = executor.engine(store, enable_cache=False)
    for q in (
        MetricQuery("ctr", agg="rate", range_s=400.0, step_s=60.0, group_by=("node",)),
        MetricQuery("ctr", agg="rate", range_s=400.0, group_by=("node",)),
    ):
        assert_bit_identical(par.query(q, at=950.0), orc.query(q, at=950.0))
    q_samples = MetricQuery("ctr", agg="mean", range_s=400.0)
    pt, pv = par.samples(q_samples, at=950.0)
    st, sv = orc.samples(q_samples, at=950.0)
    assert np.array_equal(pt, st)
    assert np.array_equal(pv, sv)
    assert_ran_where_expected(executor, par, store)


def test_rollup_folds_match_the_oracle_on_every_executor(executor):
    """Tier folds — in the workers, here, or here after the workers are
    gone — must be bit-identical to the single-shard cascade, including
    which source (raw vs rollup) serves each query."""
    data = series_data(11)
    orc = oracle_engine(data, resolutions=(10.0, 50.0))
    store = executor.store(4, resolutions=(10.0, 50.0))
    fill_through_pool(store, data)
    par = executor.engine(store, enable_cache=False)
    assert par.fold_rollups(HORIZON * 0.4) == orc.fold_rollups(HORIZON * 0.4)
    executor.degrade(store)
    assert par.fold_rollups(HORIZON * 0.8) == orc.fold_rollups(HORIZON * 0.8)
    rng = np.random.default_rng(5)
    for _ in range(12):
        q = random_query(rng)
        at = float(rng.uniform(HORIZON * 0.5, HORIZON * 1.1))
        got, want = par.query(q, at=at), orc.query(q, at=at)
        assert got.source == want.source
        assert_bit_identical(got, want)
    # a fold that runs here although a pool exists is counted like a scatter
    assert (getattr(par, "serial_fallbacks", 0) > 0) == executor.falls_back
    assert getattr(par, "parallel_folds", 0) == (
        2 if executor.pooled else 1 if executor.falls_back else 0
    )


@pytest.mark.parametrize("executor", ["pool-2-auto"], indirect=True)
def test_a_pass_goes_to_the_pool_only_above_the_size_it_pays_off(executor):
    """At its default the engine keeps a scatter over no more than
    ``INLINE_SCATTER_SERIES`` series in process — counted apart, never a
    fallback, the pool not even asked — and dispatches one series more.
    Either way the answer is the single-store oracle's.  Kept passes
    never look at the pool, so a stopped pool is noticed by the next
    pass that would have been dispatched."""
    limit = query_engine.INLINE_SCATTER_SERIES
    data = series_data(17, n_series=limit + 1, max_points=12)
    orc = oracle_engine(data)
    store = executor.store(4)
    fill_through_pool(store, data)
    par = QueryEngine(store, enable_cache=False)

    def shape(n_series):
        wanted = "|".join(str(i) for i in range(n_series))
        return MetricQuery(
            "m", agg="mean", range_s=HORIZON, step_s=100.0, group_by=("node",),
            matchers=(LabelMatcher("shard", "=~", wanted),),
        )

    def counters():
        return par.inline_by_size, par.parallel_scatters, par.serial_fallbacks, store.pool.dispatches

    for n_series, want in ((8, (1, 0, 0, 0)), (limit, (2, 0, 0, 0)), (limit + 1, (2, 1, 0, 1))):
        q = shape(n_series)
        assert len(par.plan(q).keys) == n_series
        assert_bit_identical(par.query(q, at=HORIZON), orc.query(q, at=HORIZON))
        assert counters() == want
    assert par.stats()["inline_by_size"] == 2.0

    store.pool.close()
    assert_bit_identical(par.query(shape(9), at=HORIZON), orc.query(shape(9), at=HORIZON))
    assert counters() == (3, 1, 0, 1)  # a small read: the pool was not looked at
    q = shape(limit + 1)
    assert_bit_identical(par.query(q, at=HORIZON * 0.9), orc.query(q, at=HORIZON * 0.9))
    assert counters() == (3, 1, 1, 1)  # the pool should have run this one and could not


# ---------------------------------------------------------------------------
# Worker-crash degradation


@pytest.fixture
def die_in_next_fold(tmp_path, monkeypatch):
    """A kill switch forked workers inherit: while the returned flag file
    exists, worker 0 dies inside its next fold — tier 0 written, the
    cascade not."""
    flag = tmp_path / "die-in-next-fold"
    parent_pid = os.getpid()
    cascade = CascadeFolder._fold_cascade

    def dying_cascade(self, fine, coarse):
        if (
            os.getpid() != parent_pid
            and multiprocessing.current_process().name.endswith("-0")
            and flag.exists()
        ):
            flag.unlink()
            os._exit(1)
        return cascade(self, fine, coarse)

    monkeypatch.setattr(CascadeFolder, "_fold_cascade", dying_cascade)
    return flag


STANDING_SHAPE = MetricQuery("m", agg="mean", range_s=400.0, step_s=50.0, group_by=("node",))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the in-fold kill switch is inherited through fork",
)
@pytest.mark.parametrize("where", ["queued", "in_fold"])
@pytest.mark.parametrize("respawn", [True, False])
@pytest.mark.usefixtures("every_pass_dispatched")
def test_worker_killed_with_forwarded_columns_in_flight(respawn, where, die_in_next_fold):
    """The parent is the only writer of raw rings, so a worker can no
    longer die mid-append; what it can take with it are the committed
    columns forwarded for its folder and standing grids.  Worker 0 is
    killed (``queued``) between commits, while those columns still wait
    parent-side for the next dispatch, or (``in_fold``) inside the fold
    dispatch that carries them.  Respawned or degraded, the rings, the
    tiers and the standing answers end equal to the serial engine's."""
    data = series_data(71, n_series=12, max_points=90)
    cuts = [(t.size // 3, 2 * t.size // 3) for _, t, _ in data]
    parts = [
        [(k, t[:a], v[:a]) for (k, t, v), (a, b) in zip(data, cuts)],
        [(k, t[a:b], v[a:b]) for (k, t, v), (a, b) in zip(data, cuts)],
        [(k, t[b:], v[b:]) for (k, t, v), (a, b) in zip(data, cuts)],
    ]
    serial_sharded = ShardedTimeSeriesStore(n_shards=4, default_capacity=4096)
    ser = QueryEngine.with_rollups(
        serial_sharded, resolutions=(10.0, 50.0), enable_cache=False
    )
    store = parallel_store(parts[0], 4, 2, resolutions=(10.0, 50.0), respawn=respawn)
    prefix = store.pool.prefix
    with store:
        par = QueryEngine(store, enable_cache=False)
        standing = StandingQueryEngine(par)
        assert standing.register(STANDING_SHAPE)
        fill_serial(serial_sharded, parts[0])
        assert par.fold_rollups(HORIZON * 0.3) == ser.fold_rollups(HORIZON * 0.3)
        dispatches = store.pool.dispatches
        fill_through_pool(store, parts[1])
        fill_serial(serial_sharded, parts[1])
        # committed to the shared rings, forwarded columns waiting
        assert store.pool.dispatches == dispatches
        assert store.pool.queued_rows == sum(t.size for _, t, _ in parts[1])
        if where == "queued":
            store.pool.inject_crash(0)
            assert par.fold_rollups(HORIZON * 0.6) == ser.fold_rollups(HORIZON * 0.6)
        else:
            die_in_next_fold.touch()
            # rows the worker wrote before it died were never reported
            assert par.fold_rollups(HORIZON * 0.6) <= ser.fold_rollups(HORIZON * 0.6)
            assert not die_in_next_fold.exists()  # the worker did die inside the fold
        if respawn:
            assert store.pool.respawns_total == 1 and not store.pool.broken
        else:
            assert store.pool.broken
        assert_tiers_byte_equal(par, ser, store)
        fill_through_pool(store, parts[2])
        fill_serial(serial_sharded, parts[2])
        # the fold that met the dead worker re-ran its shards here: counted
        assert par.serial_fallbacks == 1
        scatters = par.parallel_scatters
        assert par.fold_rollups(HORIZON * 0.95) == ser.fold_rollups(HORIZON * 0.95)
        assert_tiers_byte_equal(par, ser, store)
        for key, _, _ in data:
            pt, pv = store.query(key, -np.inf, np.inf)
            st, sv = serial_sharded.query(key, -np.inf, np.inf)
            assert pt.tobytes() == st.tobytes() and pv.tobytes() == sv.tobytes()
        rng = np.random.default_rng(3)
        for _ in range(8):
            q = random_query(rng)
            at = float(rng.uniform(HORIZON * 0.5, HORIZON * 1.1))
            assert_bit_identical(par.query(q, at=at), ser.query(q, at=at))
        # (against the raw scan — an engine over this store reads its tiers:
        # the commits above trail the folds, so the tiers have dropped late
        # samples that standing state keeps)
        for at in (HORIZON * 0.7, HORIZON):
            got = standing.query(STANDING_SHAPE, at=at)
            want = evaluate_naive(serial_sharded, STANDING_SHAPE, at=at)
            if respawn:  # the respawned worker's grids, rebuilt from the rings
                assert got is not None and got.source == "standing"
                assert len(got.series) == len(want.series)
                for a, b in zip(got.series, want.series):
                    assert a.labels == b.labels
                    np.testing.assert_array_equal(a.times, b.times)
                    np.testing.assert_allclose(a.values, b.values, rtol=1e-9, atol=1e-9)
            else:  # no pool, no standing state: the hub falls back to the engine
                assert got is None
        stats = store.shard_stats()
        if respawn:
            assert par.parallel_scatters > scatters and par.serial_fallbacks == 1
            assert store.serial_appends == 0  # every commit met a live pool
            assert stats["pool_respawns_total"] == 1.0
        else:
            assert par.parallel_scatters == scatters and par.serial_fallbacks > 1
            assert store.serial_appends == len(parts[2])  # the pool-down commits only
        # every row committed while the pool was up either rode a dispatch
        # that completed or is counted as lost with worker 0: what the
        # fatal fold dispatch carried for the shards that worker owns
        live = parts[0] + parts[1] + (parts[2] if respawn else [])
        lost = [t.size for k, t, _ in parts[1] if store.pool.worker_of(place_of(store, k)) == 0]
        assert stats["cols_dropped_rows"] == float(sum(lost)) > 0
        assert stats["cols_forwarded_rows"] == float(sum(t.size for _, t, _ in live) - sum(lost))
        assert store.pool.queued_rows == 0
        assert stats["cols_flushes"] == 0.0
    assert [e for e in os.listdir("/dev/shm") if e.startswith(prefix)] == []


def test_worker_crash_degraded_fold_matches_serial():
    data = series_data(31)
    serial_sharded = ShardedTimeSeriesStore(n_shards=4, default_capacity=4096)
    fill_serial(serial_sharded, data)
    ser = QueryEngine.with_rollups(
        serial_sharded, resolutions=(10.0, 50.0), enable_cache=False
    )
    with parallel_store(data, 4, 2, resolutions=(10.0, 50.0), respawn=False) as store:
        par = QueryEngine(store, enable_cache=False)
        store.pool.inject_crash(1)
        # fold fan-out hits the dead worker: its shards re-fold in the
        # parent from the shared rings (watermarks make this idempotent)
        assert par.fold_rollups(HORIZON * 0.8) == ser.fold_rollups(HORIZON * 0.8)
        rng = np.random.default_rng(9)
        for _ in range(8):
            q = random_query(rng)
            at = float(rng.uniform(HORIZON * 0.5, HORIZON * 1.1))
            assert_bit_identical(par.query(q, at=at), ser.query(q, at=at))


def test_crash_then_more_ingest_and_parent_folds_stay_exact():
    """Post-crash serial ingest + parent-side folding over the shared
    rings must keep matching the serial engine (full degraded mode)."""
    data = series_data(41, n_series=8)
    serial_sharded = ShardedTimeSeriesStore(n_shards=3, default_capacity=4096)
    ser = QueryEngine.with_rollups(
        serial_sharded, resolutions=(20.0,), enable_cache=False
    )
    with parallel_store(data[:4], 3, 2, resolutions=(20.0,), respawn=False) as store:
        par = QueryEngine(store, enable_cache=False)
        store.pool.inject_crash(0)
        fill_through_pool(store, data[4:])  # lands serially after the crash
        fill_serial(serial_sharded, data)
        assert par.fold_rollups(HORIZON * 0.9) == ser.fold_rollups(HORIZON * 0.9)
        q = MetricQuery("m", agg="mean", range_s=HORIZON, step_s=50.0, group_by=("node",))
        assert_bit_identical(par.query(q, at=HORIZON), ser.query(q, at=HORIZON))


def place_of(store, key) -> int:
    return store.registry.get(key) % store.n_places


def assert_tiers_byte_equal(par, ser, store):
    """Every tier row and watermark of every series, parallel vs serial."""
    compared = 0
    [ptiers], [stiers] = par.tiersets, ser.tiersets
    for ti, (ptier, stier) in enumerate(zip(ptiers.tiers, stiers.tiers)):
        for key in store.series_keys():
            psid = store.registry.id_for(key)
            ssid = ser.store.registry.id_for(key)
            assert ptier.watermark(psid) == stier.watermark(ssid), (ti, key)
            got = ptier.window(psid, -np.inf, np.inf)
            want = stier.window(ssid, -np.inf, np.inf)
            assert (got is None) == (want is None), (ti, key)
            if got is not None:
                compared += got["time"].size
                for name in ROW_COLUMNS:
                    assert got[name].tobytes() == want[name].tobytes(), (ti, key, name)
    assert compared > 0


class PlaceFolds:
    """Per place of ``store`` a plain store holding only that place's
    series, folded at the same times: what a worker's folder for the
    place drops as late.  ``late[k][p]``: place ``p``'s count after the
    ``k``-th fold."""

    def __init__(self, store, resolutions):
        self.store = store
        self.late: list = []
        self.refs = [
            QueryEngine.with_rollups(
                TimeSeriesStore(default_capacity=4096), resolutions=resolutions,
                enable_cache=False,
            )
            for _ in range(store.n_places)
        ]

    def fill(self, data):
        for key, times, values in data:
            self.refs[place_of(self.store, key)].store.insert_batch(key, times, values)

    def fold(self, now):
        for ref in self.refs:
            ref.fold_rollups(now)
        self.late.append([ref.tiersets[0].late_samples_dropped for ref in self.refs])


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the in-fold kill switch is inherited through fork",
)
@pytest.mark.parametrize("grow", [False, True])
@pytest.mark.parametrize("respawn", [True, False])
def test_worker_killed_mid_fold_leaves_tiers_byte_equal(respawn, grow, die_in_next_fold):
    """Worker 0 dies *inside* a fold — tier 0 written, the cascade not —
    and the shards it owned are (a) re-folded by the parent, then folded
    by a respawned worker that maps every tier block purely from the
    parent-announced descriptors, or (b) folded by the parent from then
    on.  Either way the tiers end byte-equal to the serial engine's, and
    no shared-memory block outlives ``close()``.

    ``grow`` puts a tier-block announcement *into the fatal batch*
    (parent-side inserts of new series just before the fold) and grows
    the store again afterwards: the respawned worker is handed the whole
    announcement log, that block included, and must still address every
    later block where the parent does."""
    flag = die_in_next_fold
    data = series_data(61, n_series=14, max_points=90)
    cuts = [(t.size // 3, 2 * t.size // 3) for _, t, _ in data]
    parts = [
        [(k, t[:a], v[:a]) for (k, t, v), (a, b) in zip(data, cuts)],
        [(k, t[a:b], v[a:b]) for (k, t, v), (a, b) in zip(data, cuts)],
        [(k, t[b:], v[b:]) for (k, t, v), (a, b) in zip(data, cuts)],
    ]
    # new series, enough per shard to outgrow a 64-series tier chunk twice
    rng = np.random.default_rng(62)
    extra = [
        [
            (
                SeriesKey.of("m", node=f"n{i % 4}", shard=f"x{i}"),
                np.sort(rng.uniform(lo, HORIZON, size=3)),
                rng.normal(50.0, 20.0, size=3),
            )
            for i in ids
        ]
        for ids, lo in ((range(400), HORIZON * 0.3), (range(400, 1000), HORIZON * 0.6))
    ]
    serial_sharded = ShardedTimeSeriesStore(n_shards=4, default_capacity=4096)
    ser = QueryEngine.with_rollups(
        serial_sharded, resolutions=(10.0, 50.0), enable_cache=False
    )
    store = parallel_store(parts[0], 4, 2, resolutions=(10.0, 50.0), respawn=respawn)
    prefix = store.pool.prefix
    with store:
        par = QueryEngine(store, enable_cache=False)
        places = PlaceFolds(store, (10.0, 50.0))
        fill_serial(serial_sharded, parts[0])
        places.fill(parts[0])
        assert par.fold_rollups(HORIZON * 0.3) == ser.fold_rollups(HORIZON * 0.3)
        places.fold(HORIZON * 0.3)
        fill_through_pool(store, parts[1])
        fill_serial(serial_sharded, parts[1])
        places.fill(parts[1])

        def tier_blocks():
            return sum(ev[0] == "tblock" for ev in store.pool.log)

        if grow:  # serial-path commits: ring, column and tier-block events stay queued
            blocks_before = tier_blocks()
            fill_serial(store, extra[0])
            fill_serial(serial_sharded, extra[0])
            places.fill(extra[0])
        flag.touch()
        # the rows the worker wrote before it died were never reported:
        # the parent's re-fold finds their watermarks and writes the rest
        assert par.fold_rollups(HORIZON * 0.6) < ser.fold_rollups(HORIZON * 0.6)
        places.fold(HORIZON * 0.6)
        assert not flag.exists()  # the worker did die inside the fold
        if respawn:
            assert store.pool.respawns_total == 1 and not store.pool.broken
        else:
            assert store.pool.broken
        assert_tiers_byte_equal(par, ser, store)
        fill_through_pool(store, parts[2] + (extra[1] if grow else []))
        fill_serial(serial_sharded, parts[2] + (extra[1] if grow else []))
        places.fill(parts[2] + (extra[1] if grow else []))
        if grow:  # one block went out with the fatal batch, one after it
            assert tier_blocks() >= blocks_before + 2
        folds_before = par.parallel_folds
        assert par.fold_rollups(HORIZON * 0.95) == ser.fold_rollups(HORIZON * 0.95)
        places.fold(HORIZON * 0.95)
        assert par.parallel_folds == folds_before + (1 if respawn else 0)
        assert store.serial_appends == (
            0 if respawn else len(parts[2]) + (len(extra[1]) if grow else 0)
        )
        assert_tiers_byte_equal(par, ser, store)
        q = MetricQuery("m", agg="mean", range_s=HORIZON, step_s=50.0, group_by=("node",))
        assert_bit_identical(par.query(q, at=HORIZON), ser.query(q, at=HORIZON))
        # per-fold late reports add up, under both names of the counter,
        # to what a plain store folding each place alone drops — less
        # what worker 0's places dropped in the fold it died in (never
        # reported; the parent re-folds from the rings, which drop none)
        late, died_in = places.late[-1], places.late[0:2]
        assert late[1] + late[3] > 0
        lost = sum(died_in[1][p] - died_in[0][p] for p in (0, 2))
        [tiers] = store.tiersets
        assert tiers.late_dropped == tiers.late_samples_dropped == sum(late) - lost
    assert [e for e in os.listdir("/dev/shm") if e.startswith(prefix)] == []


def test_forwarded_columns_flush_past_the_buffer_cap():
    """Nothing else dispatching, the forwarded-column queue of a shard is
    delivered on its own once it passes ``ingest_buffer_cap`` — counted —
    and the worker folds the same tiers from it."""
    data = series_data(81, n_series=10)
    serial_sharded = ShardedTimeSeriesStore(n_shards=3, default_capacity=4096)
    fill_serial(serial_sharded, data)
    ser = QueryEngine.with_rollups(
        serial_sharded, resolutions=(10.0, 50.0), enable_cache=False
    )
    with ParallelShardedStore(n_shards=3, default_capacity=4096, workers=2) as store:
        store.create_tiersets((10.0, 50.0), ingest_buffer_cap=32)
        store.start_parallel()
        fill_through_pool(store, data)
        stats = store.shard_stats()
        assert stats["cols_flushes"] > 0
        assert stats["pool_dispatches"] == stats["cols_flushes"]  # nothing else was sent
        assert max(store.pool._cols_rows) <= 32
        assert stats["cols_forwarded_rows"] + store.pool.queued_rows == float(
            sum(t.size for _, t, _ in data)
        )
        assert stats["cols_dropped_rows"] == 0.0
        par = QueryEngine(store, enable_cache=False)
        # fold past all the data (fewer rows than the serial fold, and
        # watermarks that were already ahead: past its own cap the worker's
        # folder drained complete bins as the flushes arrived)
        assert 0 < par.fold_rollups(HORIZON * 1.1) <= ser.fold_rollups(HORIZON * 1.1)
        assert_tiers_byte_equal(par, ser, store)
        assert par.serial_fallbacks == 0 and store.serial_appends == 0


def test_broken_pool_drops_queued_columns_counted():
    """A pool that breaks takes the columns still queued for its workers
    with it — none is left waiting, each is counted as dropped, none as
    forwarded — and the in-process fold restarts from the rings."""
    data = series_data(83)
    serial_sharded = ShardedTimeSeriesStore(n_shards=4, default_capacity=4096)
    fill_serial(serial_sharded, data)
    ser = QueryEngine.with_rollups(
        serial_sharded, resolutions=(10.0, 50.0), enable_cache=False
    )
    with parallel_store(data, 4, 2, resolutions=(10.0, 50.0), respawn=False) as store:
        total = sum(t.size for _, t, _ in data)
        assert store.pool.queued_rows == total
        store.pool.inject_crash(0)
        # only shard 0 rides the fatal dispatch; the other three still queue
        assert store.pool.dispatch([(0, "sync", None)]) == [WORKER_DIED]
        assert store.pool.broken and store.pool.queued_rows == 0
        stats = store.shard_stats()
        assert stats["cols_dropped_rows"] == float(total)
        assert stats["cols_forwarded_rows"] == 0.0
        par = QueryEngine(store, enable_cache=False)
        assert par.fold_rollups(HORIZON * 0.8) == ser.fold_rollups(HORIZON * 0.8)
        assert_tiers_byte_equal(par, ser, store)


# ---------------------------------------------------------------------------
# append_batch edge cases


@pytest.mark.parametrize("start_pool", [False, True])
def test_append_batch_empty_is_noop(start_pool):
    with ParallelShardedStore(n_shards=3, default_capacity=64, workers=2) as store:
        if start_pool:
            store.start_parallel()
        empty = np.empty(0, dtype=np.int64)
        store.append_batch(empty, np.empty(0), np.empty(0))
        assert store.total_inserts == 0
        assert store.pool.dispatches == 0


@pytest.mark.parametrize("start_pool", [False, True])
def test_append_batch_single_series_matches_serial(start_pool):
    key = SeriesKey.of("m", node="n0")
    times = np.arange(0.0, 50.0, 1.0)
    values = np.sin(times)
    with ParallelShardedStore(n_shards=3, default_capacity=64, workers=2) as store:
        if start_pool:
            store.start_parallel()
        gid = store.registry.id_for(key)
        store.append_batch(np.full(times.size, gid, dtype=np.int64), times, values)
        t, v = store.query(key, -np.inf, np.inf)
        assert np.array_equal(t, times)
        assert np.array_equal(v, values)
        assert store.total_inserts == times.size


@pytest.mark.parametrize("start_pool", [False, True])
def test_append_batch_rejects_uninterned_ids(start_pool):
    with ParallelShardedStore(n_shards=3, default_capacity=64, workers=2) as store:
        if start_pool:
            store.start_parallel()
        store.registry.id_for(SeriesKey.of("m", node="n0"))  # gid 0 exists
        with pytest.raises(IndexError):
            store.append_batch(
                np.array([0, 7], dtype=np.int64), np.array([1.0, 2.0]), np.ones(2)
            )
        assert store.total_inserts == 0  # nothing partially committed


# ---------------------------------------------------------------------------
# Lifecycle and cluster wiring


@pytest.mark.usefixtures("every_pass_dispatched")
def test_context_lifecycle_and_stats():
    data = series_data(51, n_series=6)
    with ParallelShardContext(shards=3, workers=2, capacity=256) as ctx:
        fill_through_pool(ctx.store, data)
        q = MetricQuery("m", agg="mean", range_s=HORIZON, step_s=100.0, group_by=("node",))
        ctx.engine.query(q, at=HORIZON)
        stats = ctx.engine.stats()
        assert stats["parallel_scatters"] >= 1.0
        assert stats["serial_fallbacks"] == stats["inline_by_size"] == 0.0
        assert stats["pool_workers"] == 2.0
        assert stats["pool_dispatches"] >= 1.0
        store_stats = ctx.store.shard_stats()
        assert store_stats["serial_appends"] == 0.0
        # no tiers, no standing registration: nothing consumes the column
        # stream worker-side, so nothing is forwarded
        assert store_stats["cols_forwarded_rows"] == 0.0
        assert store_stats["cols_flushes"] == 0.0
    ctx.close()  # idempotent after the context manager already closed


def test_cluster_config_validation():
    from repro.cluster import ClusterConfig

    with pytest.raises(ValueError):
        ClusterConfig(parallel=-1)
    with pytest.raises(ValueError):
        ClusterConfig(shards=1, parallel=2)
    ClusterConfig(shards=4, parallel=2)  # valid


def test_cluster_parallel_matches_serial_sharded():
    from repro.cluster import Cluster, ClusterConfig
    from repro.sim import Engine

    results = {}
    for parallel in (0, 2):
        engine = Engine()
        with Cluster(
            engine,
            ClusterConfig(
                n_nodes=6, telemetry_period_s=10.0, seed=3, shards=4, parallel=parallel
            ),
        ) as cluster:
            if parallel:
                assert isinstance(cluster.store, ParallelShardedStore)
                assert cluster.store.pool.active
            qe = cluster._query_engine(rollup_resolutions=(30.0, 120.0))
            engine.run(until=240.0)
            qe.fold_rollups(engine.now)
            results[parallel] = qe.query(
                "mean(node_cpu_util[120s] by 30s) group by (node)", at=engine.now
            )
        if parallel:
            assert not cluster.store.pool.active  # close() released the pool
    assert results[2].series  # the shift produced data
    assert_bit_identical(results[2], results[0])

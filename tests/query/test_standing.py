"""Property tests for the standing-query engine.

The exactness contract: a registered shape served from incrementally
maintained partial-aggregate state must match the batch engine and the
brute-force reference oracle across arbitrary commit interleavings —
reads between commits, multiple shapes sharing grids, rate over
counters with resets — up to floating-point association (1e-9
relative, the bound the federated merge already documents) and
bit-for-bit for the order statistics.
"""

import math

import numpy as np
import pytest

from repro.core.runtime import QueryHub
from repro.query import (
    LabelMatcher,
    MetricQuery,
    QueryEngine,
    evaluate_naive,
)
from repro.query.kernels import PARTIAL_AGGS
from repro.query.standing import StandingGrid, StandingQueryEngine
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

HORIZON = 1000.0


def random_standing_query(rng, metric="m"):
    """Random *eligible* shape: windowed, stepped, partial-algebra agg."""
    agg = "rate" if metric == "ctr" else str(rng.choice(PARTIAL_AGGS))
    matchers = []
    if rng.random() < 0.4:
        matchers.append(LabelMatcher("node", "=~", str(rng.choice(["n[0-2]", "n.*"]))))
    if rng.random() < 0.3:
        matchers.append(LabelMatcher("rack", "!=", "r1"))
    return MetricQuery(
        metric,
        agg=agg,
        matchers=tuple(matchers),
        range_s=float(rng.choice([90.0, 300.0, 777.0])),
        step_s=float(rng.choice([30.0, 60.0, 250.0])),
        group_by=[(), ("node",), ("rack",), ("node", "rack")][int(rng.integers(0, 4))],
    )


def commit_rounds(rng, *, n_series=10, rounds=8, counter=False, t_hi=HORIZON):
    """Per-round columnar commits with per-series non-decreasing times.

    Each round appends a fresh slice of every series' timeline, so a
    read between rounds sees a genuinely partial history — the
    interleaving the incremental path must stay exact under.
    """
    metric = "ctr" if counter else "m"
    keys = [
        SeriesKey.of(metric, node=f"n{i % 4}", shard=str(i), rack=f"r{i % 3}")
        for i in range(n_series)
    ]
    per_key = {}
    for k in keys:
        n = int(rng.integers(4, 40))
        times = np.sort(rng.uniform(0, t_hi, size=n))
        if counter:
            increments = rng.exponential(5.0, size=n)
            values = np.cumsum(increments)
            if n > 4 and rng.random() < 0.5:  # counter reset mid-stream
                cut = int(rng.integers(1, n))
                values[cut:] = np.cumsum(increments[cut:])
        else:
            values = rng.normal(50.0, 20.0, size=n)
        per_key[k] = (times, values)
    out = []
    for r in range(rounds):
        batch = []
        for k, (times, values) in per_key.items():
            lo = r * times.size // rounds
            hi = (r + 1) * times.size // rounds
            if hi > lo:
                batch.append((k, times[lo:hi], values[lo:hi]))
        out.append(batch)
    return out


def assert_results_match(got, want, rtol=1e-9):
    assert got is not None, f"standing fell back for {want.query}"
    assert len(got.series) == len(want.series), (
        f"series count {len(got.series)} != {len(want.series)} for {want.query}"
    )
    for a, b in zip(got.series, want.series):
        assert a.labels == b.labels
        np.testing.assert_allclose(a.times, b.times, rtol=0, atol=1e-9)
        np.testing.assert_allclose(a.values, b.values, rtol=rtol, atol=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_standing_matches_batch_and_oracle_across_commits(seed):
    rng = np.random.default_rng(seed)
    store = TimeSeriesStore(default_capacity=4096)
    qe = QueryEngine(store, enable_cache=False)
    st = StandingQueryEngine(qe)
    queries = [random_standing_query(rng) for _ in range(6)]
    for q in queries:
        assert st.register(q)
    at = 0.0
    for batch in commit_rounds(rng):
        for k, times, values in batch:
            store.insert_batch(k, times, values)
            at = max(at, float(times[-1]))
        for q in queries:
            got = st.query(q, at=at)
            assert_results_match(got, qe.query(q, at=at))
            assert_results_match(got, evaluate_naive(store, q, at=at))
    stats = st.stats()
    assert stats["reads_served"] > 0
    assert stats["updates_applied"] > 0
    assert stats["scan_fallbacks"] == 0


@pytest.mark.parametrize("seed", range(4))
def test_standing_rate_matches_batch_and_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    store = TimeSeriesStore(default_capacity=4096)
    qe = QueryEngine(store, enable_cache=False)
    st = StandingQueryEngine(qe)
    queries = [random_standing_query(rng, metric="ctr") for _ in range(4)]
    for q in queries:
        assert st.register(q)
    at = 0.0
    for batch in commit_rounds(rng, counter=True):
        for k, times, values in batch:
            store.insert_batch(k, times, values)
            at = max(at, float(times[-1]))
        for q in queries:
            got = st.query(q, at=at)
            assert_results_match(got, qe.query(q, at=at))
            assert_results_match(got, evaluate_naive(store, q, at=at))


def test_registration_after_ingest_backfills_from_rings():
    """A shape registered mid-stream starts from backfilled ring state."""
    rng = np.random.default_rng(7)
    store = TimeSeriesStore(default_capacity=4096)
    qe = QueryEngine(store, enable_cache=False)
    st = StandingQueryEngine(qe)
    rounds = commit_rounds(rng, rounds=6)
    at = 0.0
    for k, times, values in rounds[0] + rounds[1]:
        store.insert_batch(k, times, values)
        at = max(at, float(times[-1]))
    q = MetricQuery("m", agg="mean", range_s=600.0, step_s=60.0, group_by=("node",))
    assert st.register(q)
    for batch in rounds[2:]:
        for k, times, values in batch:
            store.insert_batch(k, times, values)
            at = max(at, float(times[-1]))
        assert_results_match(st.query(q, at=at), qe.query(q, at=at))


def test_snapshot_reuse_and_epoch_invalidation():
    store = TimeSeriesStore(default_capacity=4096)
    qe = QueryEngine(store, enable_cache=False)
    st = StandingQueryEngine(qe)
    key = SeriesKey.of("m", node="n0")
    q = MetricQuery("m", agg="sum", range_s=300.0, step_s=30.0)
    assert st.register(q)
    store.insert_batch(key, np.arange(10.0, 250.0, 10.0), np.ones(24))
    first = st.query(q, at=250.0)
    again = st.query(q, at=250.0)
    assert again is first  # same (at, epoch, generation) -> snapshot
    assert st.snapshot_hits == 1
    # a commit mints a new epoch: the same ``at`` re-reads fresh state
    store.insert_batch(key, np.array([255.0]), np.array([100.0]))
    fresh = st.query(q, at=250.0)
    assert fresh is not first
    assert_results_match(fresh, qe.query(q, at=250.0))


def test_window_older_than_bin_ring_falls_back_to_rollup_tiers():
    """Eviction is delegated: reads past the bin ring return ``None`` and
    the batch engine stitches the answer from rollup tiers instead."""
    store = TimeSeriesStore(default_capacity=4096)
    [rollups] = store.create_tiersets((30.0,))
    qe = QueryEngine(store, enable_cache=False)
    st = StandingQueryEngine(qe)
    q = MetricQuery("m", agg="mean", range_s=300.0, step_s=30.0)
    assert st.register(q)
    key = SeriesKey.of("m", node="n0")
    times = np.arange(5.0, 4000.0, 5.0)
    store.insert_batch(key, times, np.sin(times))
    rollups.fold(4000.0)
    # fresh window: served from standing state
    assert st.query(q, at=3990.0) is not None
    # a window that starts before the grid's retained bins: fallback
    assert st.query(q, at=600.0) is None
    assert st.stats()["scan_fallbacks"] == 1.0
    assert_results_match(qe.query(q, at=600.0), evaluate_naive(store, q, at=600.0))


def test_ineligible_shapes_are_refused():
    store = TimeSeriesStore(default_capacity=64)
    st = StandingQueryEngine(QueryEngine(store, enable_cache=False))
    # percentiles need raw samples; instant queries have no grid
    assert not st.register(MetricQuery("m", agg="p95", range_s=300.0, step_s=30.0))
    assert not st.register(MetricQuery("m", agg="mean", range_s=None, step_s=30.0))
    assert not st.register(MetricQuery("m", agg="mean", range_s=300.0, step_s=None))
    assert st.query(MetricQuery("m", agg="p95", range_s=300.0, step_s=30.0), at=1.0) is None


def test_max_shapes_bounds_registration():
    store = TimeSeriesStore(default_capacity=64)
    st = StandingQueryEngine(QueryEngine(store, enable_cache=False), max_shapes=2)
    qs = [MetricQuery("m", agg="sum", range_s=300.0, step_s=float(s)) for s in (10, 20, 40)]
    assert st.register(qs[0]) and st.register(qs[1])
    assert not st.register(qs[2])
    assert st.register(qs[0])  # re-registration of a held shape is free


def test_grid_moments_expose_sufficient_statistics():
    """count/sum/sumsq per bin — enough to derive mean and variance."""
    rng = np.random.default_rng(11)
    grid = StandingGrid(10.0, 8)
    times = np.sort(rng.uniform(0.0, 75.0, size=40))
    values = rng.normal(0.0, 3.0, size=40)
    grid.ingest(np.zeros(40, dtype=np.int64), times, values)
    bins = np.floor(times / 10.0).astype(np.int64)
    mo = grid.moments(0, 0, 7)
    assert list(mo["bin"]) == sorted(set(bins.tolist()))
    for b, cnt, s, ssq in zip(mo["bin"], mo["count"], mo["sum"], mo["sumsq"]):
        sel = values[bins == b]
        assert cnt == sel.size
        np.testing.assert_allclose(s, sel.sum(), rtol=1e-9)
        np.testing.assert_allclose(ssq, np.square(sel).sum(), rtol=1e-9)
        var = ssq / cnt - (s / cnt) ** 2
        np.testing.assert_allclose(var, sel.var(), rtol=1e-9, atol=1e-9)


def test_hub_auto_registers_hot_shapes_and_serves_standing():
    """A widened shape shared by narrow readers is registered by the
    standing engine's one rule — on the third distinct tick it is read
    at — and from then on every narrow read of it, the tick's first
    included, comes from standing state and matches the batch engine on
    narrowed output."""
    store = TimeSeriesStore(default_capacity=4096)
    qe = QueryEngine(store)
    plain = QueryEngine(store, enable_cache=False)
    hub = QueryHub(qe, standing=StandingQueryEngine(qe))
    keys = [SeriesKey.of("m", node=f"n{i}") for i in range(4)]
    rng = np.random.default_rng(3)
    narrows = [
        MetricQuery(
            "m",
            agg="mean",
            matchers=(LabelMatcher("node", "=", f"n{i}"),),
            range_s=300.0,
            step_s=30.0,
            group_by=("node",),
        )
        for i in range(3)
    ]
    at = 0.0
    served = []
    for tick in range(5):
        for k in keys:
            ts = at + np.sort(rng.uniform(1.0, 30.0, size=5))
            store.insert_batch(k, ts, rng.normal(10.0, 2.0, size=5))
        at += 30.0
        for q in narrows:
            got = hub.query(q, at=at)
            assert_results_match(got, plain.query(q, at=at))
        served.append(hub.standing_served)
        assert (len(hub.standing.shapes) == 1) == (tick >= 2)
    # ticks 0-1: the first reader alone, the second and third shared and
    # sighted; tick 2: the third sighting registers while the first
    # reader still read alone; ticks 3-4: every read from standing state
    assert served == [0, 0, 2, 5, 8]
    assert hub.fused_served == 4 and hub.direct_served == 3
    assert hub.stats()["standing_served"] == float(hub.standing_served)


def test_refused_promotions_are_counted_past_max_shapes():
    """Promotion lives in the standing engine, so a shape it cannot take
    once ``max_shapes`` are held is counted, not dropped silently."""
    from repro.obs import collect_metrics, route_stat
    from repro.obs.metrics import MetricsRegistry

    store = TimeSeriesStore(default_capacity=256)
    times = np.arange(1.0, 420.0, 10.0)  # the grids' ring ends at the reads
    store.insert_batch(SeriesKey.of("m", node="n0"), times, np.ones(times.size))
    engine = QueryEngine(store)
    st = StandingQueryEngine(engine)
    shapes = [MetricQuery("m", agg="mean", range_s=60.0 + i, step_s=10.0) for i in range(70)]
    for at in (400.0, 410.0):  # two sightings each: nothing registered yet
        assert all(st.query(q, at=at) is None for q in shapes)
    assert not st.shapes
    served = [st.query(q, at=420.0) for q in shapes]  # the third distinct time
    assert len(st.shapes) == st.max_shapes == 64
    assert all(r is not None for r in served[:64])
    assert served[64:] == [None] * 6
    assert st.stats()["promotions_refused"] == 6.0
    assert route_stat("standing_promotions_refused", "hub") == ("standing", "promotions_refused")
    reg = collect_metrics(standing=st, registry=MetricsRegistry())
    assert reg.snapshot()["standing.promotions_refused"] == 6.0


def test_promotion_counts_distinct_evaluation_times():
    store = TimeSeriesStore(default_capacity=256)
    times = np.arange(1.0, 420.0, 10.0)  # the grids' ring ends at the reads
    store.insert_batch(SeriesKey.of("m", node="n0"), times, np.ones(times.size))
    st = StandingQueryEngine(QueryEngine(store))
    q = MetricQuery("m", agg="mean", range_s=60.0, step_s=10.0)
    for at in (400.0, 400.0, 400.0, 410.0, 410.0):
        assert st.query(q, at=at) is None
    assert st.query(q, at=420.0) is not None
    assert q in st.shapes
    # percentiles and instants are never sighted: the partial algebra
    # cannot maintain them
    for at in (400.0, 410.0, 420.0, 430.0):
        assert st.query(MetricQuery("m", agg="p95", range_s=60.0, step_s=10.0), at=at) is None
        assert st.query(MetricQuery("m", agg="mean"), at=at) is None
    assert len(st.shapes) == 1 and not st._seen

"""Federation exactness: property tests against single-store oracles.

Two oracles pin the sharded engine down:

* **Partition invariance (bit-identical)** — the engine over a plain
  store holding the same data, which is the one-shard case of the same
  plan, shard passes and gather.  Per-series arithmetic happens on
  exactly one shard and the gather reduces in a canonical
  partition-free order, so results must be *bit-identical* for every
  shard count.
* **Semantics (1e-9)** — the brute-force :func:`evaluate_naive`
  reference, which pools samples in its own floating-point association
  order, so agreement is tight-allclose rather than bitwise.

Randomized stores, shard counts, matchers, group-bys, aggregators, and
rollup fold boundaries; seeded RNG keeps every run deterministic.
"""

import numpy as np
import pytest

from repro.query import MetricQuery, QueryEngine, evaluate_naive
from repro.shard import ShardedTimeSeriesStore
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

from tests.query.test_property import assert_bit_identical, assert_results_match, random_query

__all__ = ["assert_bit_identical"]

HORIZON = 1000.0


def build_stores(rng, n_shards, n_series=14, max_points=250, counter=False):
    """The same random series in a k-shard store and a plain store."""
    sharded = ShardedTimeSeriesStore(n_shards=n_shards, default_capacity=4096)
    single = TimeSeriesStore(default_capacity=4096)
    for i in range(n_series):
        key = SeriesKey.of(
            "ctr" if counter else "m",
            node=f"n{i % 5}",
            shard=str(i),
            rack=f"r{i % 3}",
        )
        n = int(rng.integers(2, max_points))
        times = np.sort(rng.uniform(0, HORIZON, size=n))
        if counter:
            values = np.cumsum(rng.exponential(5.0, size=n))
        else:
            values = rng.normal(50.0, 20.0, size=n)
        for store in (sharded, single):
            store.insert_batch(key, times, values)
    return sharded, single


@pytest.mark.parametrize("seed,n_shards", [(s, k) for s in range(4) for k in (2, 3, 5, 8)])
def test_federated_bit_identical_to_single_shard_oracle(seed, n_shards):
    rng = np.random.default_rng(1000 * seed + n_shards)
    sharded, single = build_stores(rng, n_shards)
    fed = QueryEngine(sharded, enable_cache=False)
    qe = QueryEngine(single, enable_cache=False)
    for _ in range(10):
        q = random_query(rng)
        at = float(rng.uniform(HORIZON * 0.5, HORIZON * 1.1))
        got = fed.query(q, at=at)
        assert_bit_identical(got, qe.query(q, at=at))
        assert_results_match(got, evaluate_naive(single, q, at=at))


@pytest.mark.parametrize("seed,n_shards", [(0, 2), (1, 3), (2, 5), (3, 8)])
def test_federated_bit_identical_with_rollup_boundaries(seed, n_shards):
    """Tier+raw-tail stitching must stay partition-invariant across
    random fold boundaries (per-shard tiers fold at the same instant)."""
    rng = np.random.default_rng(5000 + 100 * seed + n_shards)
    sharded, single = build_stores(rng, n_shards)
    fed = QueryEngine.with_rollups(sharded, resolutions=(10.0, 50.0), enable_cache=False)
    qe = QueryEngine.with_rollups(single, resolutions=(10.0, 50.0), enable_cache=False)
    boundary = float(rng.uniform(HORIZON * 0.5, HORIZON))
    assert fed.fold_rollups(boundary) == qe.fold_rollups(boundary)
    served_rollup = 0
    for _ in range(12):
        q = random_query(rng)
        at = float(rng.uniform(HORIZON * 0.5, HORIZON * 1.1))
        got, want = fed.query(q, at=at), qe.query(q, at=at)
        assert got.source == want.source
        assert_bit_identical(got, want)
        assert_results_match(got, evaluate_naive(single, q, at=at))
        served_rollup += got.source.startswith("rollup:")
    assert fed.served_rollup == served_rollup


@pytest.mark.parametrize("seed,n_shards", [(0, 3), (1, 8)])
def test_federated_rate_matches_oracles(seed, n_shards):
    rng = np.random.default_rng(7000 + 10 * seed + n_shards)
    sharded, single = build_stores(rng, n_shards, counter=True)
    fed = QueryEngine(sharded, enable_cache=False)
    qe = QueryEngine(single, enable_cache=False)
    for _ in range(8):
        base = random_query(rng, metric="ctr")
        q = MetricQuery(
            "ctr", agg="rate", matchers=base.matchers, range_s=base.range_s,
            step_s=base.step_s, group_by=base.group_by,
        )
        at = float(rng.uniform(HORIZON * 0.5, HORIZON * 1.1))
        got = fed.query(q, at=at)
        assert_bit_identical(got, qe.query(q, at=at))
        assert_results_match(got, evaluate_naive(single, q, at=at))


def test_federated_cache_and_fanout_counters():
    rng = np.random.default_rng(42)
    sharded, _ = build_stores(rng, 4)
    fed = QueryEngine(sharded)
    q = MetricQuery("m", agg="mean", range_s=600.0, step_s=60.0, group_by=("node",))
    first = fed.query(q, at=900.0)
    hit = fed.query(q, at=900.0)
    assert hit.source == "cache"
    assert_bit_identical(hit, first)
    stats = fed.stats()
    assert stats["shards"] == 4.0
    assert stats["federated_queries"] == 1.0  # cache hit never re-scattered
    assert 1.0 <= stats["fanout_mean"] <= 4.0
    assert stats["cache_hits"] == 1.0


def test_federated_cache_invalidated_by_any_shard_commit():
    rng = np.random.default_rng(43)
    sharded, _ = build_stores(rng, 4)
    fed = QueryEngine(sharded)
    q = MetricQuery("m", agg="count", range_s=600.0, step_s=60.0)
    before = fed.query(q, at=900.0)
    assert fed.query(q, at=900.0).source == "cache"
    # a commit on whichever shard owns this key mints a new epoch sum,
    # so the next evaluation misses the pre-commit entry and re-scatters
    key = sharded.series_keys("m")[0]
    last_t, _ = sharded.latest(key)
    sharded.insert(key, max(last_t, HORIZON) + 100.0, 123.0)
    after = fed.query(q, at=900.0)
    assert after.source != "cache"
    assert_bit_identical(after, before)  # commit landed outside the window


def test_federated_serves_aged_out_instant_from_shard_tiers():
    """Singleton instant queries past ring retention answer from the
    owning shard's tiers, exactly as the plain store's engine does from
    its own — and stay partition-invariant."""
    key = SeriesKey.of("m", node="n0")

    def filled(store):
        store.set_capacity("m", 32)
        engine = QueryEngine.with_rollups(store, resolutions=(10.0,), enable_cache=False)
        for i in range(400):
            store.insert(key, float(i), float(i))
            if i % 10 == 9:
                engine.fold_rollups(float(i))
        return engine

    fed = filled(ShardedTimeSeriesStore(n_shards=4))
    qe = filled(TimeSeriesStore())
    q = MetricQuery("m", agg="mean", range_s=100.0, group_by=("node",))
    got = fed.query(q, at=200.0)  # ring holds only ~[368, 399]
    want = qe.query(q, at=200.0)
    assert got.source == want.source == "rollup:10s"
    assert_bit_identical(got, want)


def test_samples_read_matches_plain_engine():
    rng = np.random.default_rng(44)
    sharded, single = build_stores(rng, 4)
    fed = QueryEngine(sharded, enable_cache=False)
    qe = QueryEngine(single, enable_cache=False)
    q = MetricQuery("m", agg="mean", range_s=400.0)
    ft, fv = fed.samples(q, at=950.0)
    st, sv = qe.samples(q, at=950.0)
    assert np.array_equal(ft, st)
    assert np.array_equal(fv, sv)

"""Property-style tests: engine results must match the brute-force oracle.

Randomized stores (irregular timestamps, many labelled series) and
randomized queries, evaluated both by the vectorized engine (raw and
rollup-served) and by :func:`repro.query.reference.evaluate_naive`.
The oracle pools samples in its own order, so it agrees to 1e-9; two
executions of the engine agree bit for bit (:func:`assert_bit_identical`,
which the shard suites hold every store shape to).  Seeded RNG keeps
every run deterministic.
"""

import numpy as np
import pytest

from repro.query import (
    LabelMatcher,
    MetricQuery,
    QueryEngine,
    evaluate_naive,
)
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

HORIZON = 1000.0


def random_store(rng, n_series=12, max_points=300, counter=False):
    store = TimeSeriesStore(default_capacity=4096)
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
            # mostly-increasing counter with occasional resets
            increments = rng.exponential(5.0, size=n)
            values = np.cumsum(increments)
            for reset_at in rng.integers(1, n, size=max(1, n // 80)):
                values[reset_at:] = np.cumsum(increments[reset_at:])
        else:
            values = rng.normal(50.0, 20.0, size=n)
        store.insert_batch(key, times, values)
    return store


def random_query(rng, metric="m"):
    agg = str(rng.choice(["mean", "sum", "min", "max", "count", "last", "p50", "p95", "p99"]))
    matchers = []
    if rng.random() < 0.5:
        matchers.append(LabelMatcher("node", "=~", str(rng.choice(["n[0-2]", "n.*", "n3"]))))
    if rng.random() < 0.3:
        matchers.append(LabelMatcher("rack", "!=", "r1"))
    range_s = float(rng.choice([90.0, 300.0, 777.0, 1000.0])) if rng.random() < 0.8 else None
    step_s = float(rng.choice([30.0, 60.0, 250.0])) if rng.random() < 0.7 else None
    group_by = [(), ("node",), ("rack",), ("node", "rack")][int(rng.integers(0, 4))]
    return MetricQuery(
        metric, agg=agg, matchers=tuple(matchers), range_s=range_s, step_s=step_s,
        group_by=group_by,
    )


def assert_results_match(got, want, rtol=1e-9):
    assert len(got.series) == len(want.series), (
        f"series count {len(got.series)} != {len(want.series)} for {got.query}"
    )
    for a, b in zip(got.series, want.series):
        assert a.labels == b.labels
        np.testing.assert_allclose(a.times, b.times, rtol=0, atol=1e-9)
        np.testing.assert_allclose(a.values, b.values, rtol=rtol, atol=1e-9)


def assert_bit_identical(got, want):
    """Two engines' answers: the same series, the same bits."""
    assert len(got.series) == len(want.series), (
        f"series count {len(got.series)} != {len(want.series)} for {got.query}"
    )
    for a, b in zip(got.series, want.series):
        assert a.labels == b.labels
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values), (
            f"bitwise mismatch for {got.query} {a.labels}"
        )


@pytest.mark.parametrize("seed", range(8))
def test_engine_matches_reference_raw(seed):
    rng = np.random.default_rng(seed)
    store = random_store(rng)
    qe = QueryEngine(store, enable_cache=False)
    for _ in range(12):
        q = random_query(rng)
        at = float(rng.uniform(HORIZON * 0.5, HORIZON * 1.1))
        assert_results_match(qe.query(q, at=at), evaluate_naive(store, q, at=at))


@pytest.mark.parametrize("seed", range(4))
def test_engine_matches_reference_with_rollups(seed):
    """Tier-served execution must be bit-compatible with raw scans."""
    rng = np.random.default_rng(100 + seed)
    store = random_store(rng)
    [rollups] = store.create_tiersets((10.0, 50.0))
    rollups.fold(float(rng.uniform(HORIZON * 0.6, HORIZON)))
    qe = QueryEngine(store, enable_cache=False)
    for _ in range(12):
        q = random_query(rng)
        at = float(rng.uniform(HORIZON * 0.5, HORIZON * 1.1))
        assert_results_match(qe.query(q, at=at), evaluate_naive(store, q, at=at))
    assert qe.served_rollup > 0  # the tiers actually served something


@pytest.mark.parametrize("seed", range(4))
def test_rate_matches_reference(seed):
    rng = np.random.default_rng(200 + seed)
    store = random_store(rng, counter=True)
    qe = QueryEngine(store, enable_cache=False)
    for _ in range(8):
        q = random_query(rng, metric="ctr")
        q = MetricQuery(
            "ctr", agg="rate", matchers=q.matchers, range_s=q.range_s, step_s=q.step_s,
            group_by=q.group_by,
        )
        at = float(rng.uniform(HORIZON * 0.5, HORIZON * 1.1))
        assert_results_match(qe.query(q, at=at), evaluate_naive(store, q, at=at))


def test_cached_result_equals_fresh():
    rng = np.random.default_rng(7)
    store = random_store(rng)
    cached = QueryEngine(store)
    fresh = QueryEngine(store, enable_cache=False)
    q = MetricQuery("m", agg="mean", range_s=600.0, step_s=60.0)
    first = cached.query(q, at=900.0)
    hit = cached.query(q, at=900.0)
    assert hit.source == "cache"
    assert_bit_identical(hit, fresh.query(q, at=900.0))
    assert_bit_identical(first, hit)

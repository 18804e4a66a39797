"""One pass in process: a multi-place store reads each query in one pass.

Where every task of a pass would run on this side — no pool, a pool
that is not active, or a scatter kept in process for its size — the
engine runs the pass once over the plan's rows in ``(group, rank)``
order; only a live pool gets one task per touched place.

* **Pass counts.**  Every :data:`~repro.query.passes.SHARD_PASSES` call
  on this side is counted by a wrapper, every task handed to the pool by
  a wrapper of its ``dispatch``.
* **Exactness.**  The per-place in-process run the one pass replaced —
  one task per touched place, each place's rows split out of the plan by
  a stable sort, merged back by the gather — is kept here as the oracle
  (:func:`per_place`, patched over one engine's ``_run_on_shards``).
  Every scatter kind and the standing block read must answer with the
  same bytes, at 1, 2 and 8 places, and match the brute-force reference
  where the raw rings cover the window.
"""

import types
from collections import Counter

import numpy as np
import pytest

from repro.query import QueryEngine, evaluate_naive, passes
from repro.query.standing import StandingQueryEngine
from repro.shard import ParallelShardedStore, ShardedTimeSeriesStore
from repro.telemetry.metric import SeriesKey

from tests.query.test_property import assert_results_match

HORIZON = 1000.0
RESOLUTIONS = (10.0, 50.0)


@pytest.fixture
def passes_here(monkeypatch):
    """Calls of each shard pass on this side, by kind."""
    counts = Counter()
    for kind, run in list(passes.SHARD_PASSES.items()):
        def counted(state, payload, run=run, kind=kind):
            counts[kind] += 1
            return run(state, payload)

        monkeypatch.setitem(passes.SHARD_PASSES, kind, counted)
    return counts


def count_dispatched(monkeypatch, pool) -> Counter:
    """Tasks handed to ``pool``, by kind."""
    sent = Counter()
    dispatch = pool.dispatch

    def counted(tasks):
        sent.update(kind for _, kind, _ in tasks)
        return dispatch(tasks)

    monkeypatch.setattr(pool, "dispatch", counted)
    return sent


def fill(store, n_series=16, *, seed=0):
    """``n_series`` gauges and as many counters, every 5 s over the
    horizon, the tiers folded every 50 s.  Series ``i`` is on node
    ``n{i % 4}``, so with 4 places every node's series span them all."""
    rng = np.random.default_rng(seed)
    keys = [SeriesKey.of("m", node=f"n{i % 4}", idx=str(i)) for i in range(n_series)]
    keys += [SeriesKey.of("ctr", node=f"n{i % 4}", idx=str(i)) for i in range(n_series)]
    ids = store.registry.ids_for(keys)
    total = np.zeros(n_series)
    tiers = store.tiersets[0] if store.tiersets else None
    for k, t in enumerate(np.arange(0.0, HORIZON, 5.0)):
        jitter = rng.uniform(0.0, 1.0, 2 * n_series)
        total += rng.exponential(3.0, n_series)
        total[rng.random(n_series) < 0.02] = 0.0  # counter resets
        values = np.concatenate([rng.normal(50.0, 20.0, n_series), total])
        store.append_batch(ids, t + jitter, values)
        if tiers is not None and k % 10 == 9:
            tiers.fold(float(t))
    return keys


# ----------------------------------------------------------- pass counts

QUERIES = [
    "mean(m[300s] by 60s) group by (node)",  # partial, range
    "max(m[300s])",  # partial, instant
    "p95(m[300s] by 60s) group by (node)",  # sampled
    "rate(ctr[300s] by 60s) group by (node)",  # rate
    "rate(ctr[300s])",  # instant rate
]


def test_in_process_store_runs_one_pass_per_read(passes_here):
    store = ShardedTimeSeriesStore(n_shards=4, default_capacity=256)
    store.create_tiersets(RESOLUTIONS)
    fill(store)
    engine = QueryEngine(store, enable_cache=False)
    for expr in QUERIES:
        q = engine.parse(expr)
        assert engine.plan(q).fanout == 4
        passes_here.clear()
        assert engine.query(q, at=HORIZON).series
        assert passes_here == {"scatter": 1}, expr
    passes_here.clear()
    engine.samples('last(m{node="n1"}[100s])', at=HORIZON, since=HORIZON - 50.0)
    assert passes_here == {"scatter": 1}

    standing = StandingQueryEngine(engine)
    for expr in ("mean(m[300s] by 60s) group by (node)", "max(m[300s] by 30s) group by (idx)"):
        q = engine.parse(expr)
        assert standing.register(q)
        for at in (HORIZON - 20.0, HORIZON):
            passes_here.clear()
            result = standing.query(q, at=at)
            assert result is not None and result.source == "standing"
            assert passes_here == {"standing": 1}, expr
    passes_here.clear()
    engine.fold_rollups(HORIZON)
    assert passes_here == {"fold": 1}


def test_scatter_kept_inline_by_size_beside_a_live_pool_runs_one_pass(monkeypatch, passes_here):
    with ParallelShardedStore(n_shards=4, default_capacity=256, workers=2) as store:
        store.start_parallel()
        fill(store)
        engine = QueryEngine(store, enable_cache=False)
        sent = count_dispatched(monkeypatch, store.pool)
        q = engine.parse("mean(m[300s] by 60s) group by (node)")  # 16 series
        assert engine.plan(q).fanout == 4
        passes_here.clear()
        assert engine.query(q, at=HORIZON).series
        assert passes_here == {"scatter": 1}
        assert not sent
        assert engine.inline_by_size == 1 and engine.serial_fallbacks == 0


@pytest.mark.usefixtures("every_pass_dispatched")
def test_pooled_scatter_runs_one_pass_per_touched_place(monkeypatch, passes_here):
    with ParallelShardedStore(n_shards=4, default_capacity=256, workers=2) as store:
        store.start_parallel()
        fill(store)
        engine = QueryEngine(store, enable_cache=False)
        sent = count_dispatched(monkeypatch, store.pool)
        # idx 0, 1, 4, 5: two of the four places
        for expr, touched in (("mean(m[300s] by 60s) group by (node)", 4),
                              ("mean(m{idx=~\"0|1|4|5\"}[300s] by 60s)", 2)):
            q = engine.parse(expr)
            assert engine.plan(q).fanout == touched
            passes_here.clear()
            sent.clear()
            assert engine.query(q, at=HORIZON).series
            assert not passes_here
            assert sent == {"scatter": touched}, expr
        assert engine.serial_fallbacks == 0

        # a stopped pool: the pass runs here, once
        store.pool.close()
        passes_here.clear()
        sent.clear()
        assert engine.query(engine.parse(QUERIES[0]), at=HORIZON).series
        assert passes_here == {"scatter": 1} and not sent
        assert engine.serial_fallbacks == 1


# ------------------------------------------------------------- exactness


def per_place(self, kind, task, work=None):
    """The in-process run before one pass: one task per touched place,
    each place's rows split out of the plan's in plan order."""
    if work is None:
        return [(0, None)], self._run_here(kind, [(0, task(None))])
    if not work.sids.size:
        return [], []
    places = work.sids % self.store.n_places
    cols = work.cols[:, np.argsort(places, kind="stable")]
    counts = np.bincount(places, minlength=self.store.n_places)
    ends = np.cumsum(counts)
    parts = [
        (place, type(work)(cols[:, end - n:end]))
        for place, (n, end) in enumerate(zip(counts.tolist(), ends.tolist())) if n
    ]
    return parts, self._run_here(kind, [(place, task(rows)) for place, rows in parts])


def engines(n_shards, capacity=64):
    """The one-pass engine and the per-place oracle over one store whose
    rings hold the last ``5 * capacity`` s of the horizon."""
    store = ShardedTimeSeriesStore(n_shards=n_shards, default_capacity=capacity)
    store.create_tiersets(RESOLUTIONS)
    fill(store)
    engine = QueryEngine(store, enable_cache=False)
    oracle = QueryEngine(store, enable_cache=False)
    oracle._run_on_shards = types.MethodType(per_place, oracle)
    return store, engine, oracle


def assert_same_bytes(got, want):
    assert got.source == want.source
    assert len(got.series) == len(want.series)
    for a, b in zip(got.series, want.series):
        assert a.labels == b.labels
        assert a.times.tobytes() == b.times.tobytes()
        assert a.values.tobytes() == b.values.tobytes(), (got.query, a.labels)


#: (expression, evaluation time, whether the raw rings cover the window —
#: every bin of it); the rings of :func:`engines` hold the last ≈ 320 s
EXACT_CASES = [
    ("mean(m[240s] by 60s) group by (node)", HORIZON, True),
    ("sum(m[240s] by 30s) group by (node)", HORIZON - 7.0, True),
    ("last(m[290s] by 50s) group by (idx)", HORIZON, True),
    ("count(m[240s] by 60s)", HORIZON - 3.0, True),
    # tier rows below the fold watermarks, raw tails above them
    ("mean(m[800s] by 50s) group by (node)", HORIZON, False),
    ("min(m[900s] by 100s) group by (idx)", HORIZON - 20.0, False),
    ("max(m[300s]) group by (node)", HORIZON, True),
    ("last(m[300s]) group by (idx)", HORIZON, True),
    # aged-out instant singletons: every group one series, served from tiers
    ("mean(m[100s]) group by (idx)", 300.0, False),
    ("last(m[200s]) group by (idx)", 500.0, False),
    ("max(m[100s]) group by (node)", 300.0, False),  # not singletons: no answer
    ("p50(m[240s] by 60s) group by (node)", HORIZON, True),
    ("p95(m[300s])", HORIZON, True),
    ("p99(m[200s] by 40s) group by (idx)", HORIZON - 11.0, True),
    ("rate(ctr[240s] by 60s) group by (node)", HORIZON, True),
    ("rate(ctr[240s] by 40s) group by (idx)", HORIZON - 5.0, True),
    ("rate(ctr[300s]) group by (node)", HORIZON, True),
    ("rate(ctr[300s])", HORIZON - 9.0, True),
    ("rate(ctr[100s]) group by (idx)", 300.0, False),  # aged out: tier fallback
]


@pytest.mark.parametrize("n_shards", [1, 2, 8])
def test_one_pass_answers_the_per_place_bytes(n_shards):
    store, engine, oracle = engines(n_shards)
    served_from_tiers = 0
    for expr, at, raw_covered in EXACT_CASES:
        q = engine.parse(expr)
        got = engine.query(q, at=at)
        assert_same_bytes(got, oracle.query(q, at=at))
        served_from_tiers += got.source.startswith("rollup:")
        if raw_covered:
            assert_results_match(got, evaluate_naive(store, q, at=at))
    assert served_from_tiers >= 6
    aged = engine.query(engine.parse("mean(m[100s]) group by (idx)"), at=300.0)
    assert len(aged.series) == 16 and aged.source.startswith("rollup:")
    for since in (None, HORIZON - 50.0):
        q = 'last(m{node=~"n1|n2"}[200s])'
        got = engine.samples(q, at=HORIZON, since=since)
        want = oracle.samples(q, at=HORIZON, since=since)
        assert got[0].size and all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("n_shards", [1, 2, 8])
def test_one_pass_standing_block_is_the_per_place_block(n_shards):
    store, engine, oracle = engines(n_shards, capacity=256)  # the rings hold every window
    new, old = StandingQueryEngine(engine), StandingQueryEngine(oracle)
    for expr in (
        "mean(m[300s] by 60s) group by (node)",
        "sum(m[300s] by 30s)",
        "last(m[240s] by 60s) group by (idx)",  # one-series groups: the dense block
        "max(m[200s] by 20s) group by (idx)",
        "rate(ctr[300s] by 60s) group by (node)",
        "rate(ctr[200s] by 50s) group by (idx)",
    ):
        q = engine.parse(expr)
        assert new.register(q) and old.register(q)
        for at in (HORIZON - 31.0, HORIZON):
            got, want = new.query(q, at=at), old.query(q, at=at)
            assert got is not None and got.source == "standing", expr
            assert_same_bytes(got, want)
            assert_results_match(got, evaluate_naive(store, q, at=at))
    assert new.stats()["scan_fallbacks"] == old.stats()["scan_fallbacks"] == 0

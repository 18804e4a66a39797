"""Sharded store: id-based placement, API parity, ingest equivalence."""

import numpy as np
import pytest

from repro.query import QueryEngine
from repro.shard import ShardedTimeSeriesStore
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore


def _keys(n, metrics=2):
    return [
        SeriesKey.of(f"metric{m}", node=f"n{i:03d}")
        for i in range(n)
        for m in range(metrics)
    ]


def _placed(store, keys):
    """Each key's place, as the store's label index records it."""
    index = store.label_index()
    where = dict(zip(index.keys, index.places.tolist()))
    return [where[key] for key in keys]


def test_placement_is_deterministic_per_intern_order_and_total():
    """A series' place is its series id mod the place count: the same
    intern order places every key alike, whatever the key says, and
    another intern order moves keys with their ids."""
    keys = _keys(50)
    for n_shards in (1, 2, 3, 8):
        first, again, reverse = (ShardedTimeSeriesStore(n_shards) for _ in range(3))
        for store, order in ((first, keys), (again, keys), (reverse, keys[::-1])):
            store.insert_many(order, np.ones(len(order)), np.zeros(len(order)))
        want = [i % n_shards for i in range(len(keys))]  # the i-th key interned
        assert _placed(first, keys) == _placed(again, keys) == want
        assert _placed(reverse, keys[::-1]) == want


def test_series_land_in_exactly_one_place():
    store = ShardedTimeSeriesStore(n_shards=4)
    for key in _keys(30):
        store.insert(key, 1.0, 2.0)
    index = store.label_index()
    assert index.places.tolist() == (index.sids % 4).tolist()
    for key in _keys(30):
        assert store.has(key)
    assert store.cardinality() == 60
    assert sum(store.shard_cardinalities()) == 60
    assert store.shard_cardinalities() == [15, 15, 15, 15]


@pytest.mark.parametrize("n_shards", [None, 1, 4])
def test_every_series_with_data_is_interned(n_shards):
    """Whatever write met a series first — scalar, per-series bulk or
    columnar — the store that holds its ring interned it: sid-addressed
    plans, tiers and grids reach every series ``series_keys`` lists."""
    store = TimeSeriesStore() if n_shards is None else ShardedTimeSeriesStore(n_shards)
    keys = _keys(9, metrics=1)
    for key in keys[:3]:
        store.insert(key, 1.0, 2.0)
    for key in keys[3:6]:
        store.insert_batch(key, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    ids = store.registry.ids_for(keys[6:])
    store.append_batch(ids, np.full(ids.size, 1.0), np.full(ids.size, 5.0))
    listed = store.series_keys()
    assert sorted(listed, key=str) == sorted(keys, key=str)
    for key in listed:
        assert store.registry.get(key) is not None
        assert store.rings.count(store.registry.get(key)) > 0


@pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 8])
def test_append_batch_matches_single_store(n_shards):
    rng = np.random.default_rng(n_shards)
    keys = _keys(25, metrics=3)
    single = TimeSeriesStore(default_capacity=256)
    sharded = ShardedTimeSeriesStore(n_shards=n_shards, default_capacity=256)
    sid_s = np.array([single.registry.id_for(k) for k in keys])
    sid_f = np.array([sharded.registry.id_for(k) for k in keys])
    t = 0.0
    for _ in range(12):
        n_rows = int(rng.integers(20, 200))
        rows = rng.integers(0, len(keys), size=n_rows)
        times = t + rng.uniform(0, 5.0, size=n_rows)
        values = rng.normal(size=n_rows)
        single.append_batch(sid_s[rows], times, values)
        sharded.append_batch(sid_f[rows], times, values)
        t += 5.0
    assert sharded.total_inserts == single.total_inserts
    assert sharded.series_keys() == single.series_keys()
    for key in single.series_keys():
        st, sv = single.query(key, -np.inf, np.inf)
        ft, fv = sharded.query(key, -np.inf, np.inf)
        assert np.array_equal(st, ft)
        assert np.array_equal(sv, fv)


def test_append_batch_rejects_foreign_ids():
    store = ShardedTimeSeriesStore(n_shards=2)
    store.registry.id_for(SeriesKey.of("m", node="a"))
    with pytest.raises(IndexError):
        store.append_batch(
            np.array([5]), np.array([1.0]), np.array([2.0])
        )


def test_ring_wraparound_matches_single_store():
    keys = _keys(10)
    single = TimeSeriesStore(default_capacity=16)
    sharded = ShardedTimeSeriesStore(n_shards=3, default_capacity=16)
    sid_s = np.array([single.registry.id_for(k) for k in keys])
    sid_f = np.array([sharded.registry.id_for(k) for k in keys])
    for tick in range(40):  # 40 points into capacity-16 rings
        times = np.full(len(keys), float(tick))
        values = np.arange(len(keys), dtype=float) + tick
        single.append_batch(sid_s, times, values)
        sharded.append_batch(sid_f, times, values)
    for key in keys:
        st, sv = single.query(key, -np.inf, np.inf)
        ft, fv = sharded.query(key, -np.inf, np.inf)
        assert st.size == 16
        assert np.array_equal(st, ft)
        assert np.array_equal(sv, fv)


def test_global_listener_sees_all_rows_with_global_ids():
    store = ShardedTimeSeriesStore(n_shards=4)
    keys = _keys(20)
    sids = np.array([store.registry.id_for(k) for k in keys])
    seen = []
    store.add_ingest_listener(lambda ids, t, v: seen.append((ids.copy(), t.copy(), v.copy())))
    store.append_batch(sids, np.zeros(len(keys)), np.arange(len(keys), dtype=float))
    assert len(seen) == 1  # one delivery per commit, whatever the place count
    total = sum(ids.size for ids, _, _ in seen)
    assert total == len(keys)
    for ids, times, values in seen:
        for sid, v in zip(ids, values):
            key = store.registry.key_for(int(sid))  # global namespace
            # value encodes the key's position, proving id translation
            assert keys[int(v)] == key


def test_epochs_and_generations_are_monotone():
    store = ShardedTimeSeriesStore(n_shards=4)
    key = SeriesKey.of("m", node="x")
    e0 = store.metric_epoch("m")
    g0 = store.series_generation("m")
    store.insert(key, 1.0, 1.0)
    e1 = store.metric_epoch("m")
    g1 = store.series_generation("m")
    assert e1 > e0 and g1 > g0
    store.insert(key, 2.0, 1.0)
    assert store.metric_epoch("m") > e1
    assert store.series_generation("m") == g1  # no new series


def test_epochs_and_generations_count_every_place():
    """One table for the store: a commit spanning every place bumps its
    metric's epoch once, and the generation counts the series of all
    places."""
    store = ShardedTimeSeriesStore(n_shards=4)
    keys = _keys(16, metrics=1)
    ids = store.registry.ids_for(keys)
    store.append_batch(ids, np.zeros(ids.size), np.ones(ids.size))
    assert min(store.shard_cardinalities()) > 0
    assert store.metric_epoch("metric0") == 1
    assert store.series_generation("metric0") == len(keys)
    assert store.series_generation(None) == len(keys)
    store.insert(keys[0], 1.0, 2.0)
    assert store.metric_epoch("metric0") == 2
    assert store.metric_epoch("metric1") == store.series_generation("metric1") == 0


def test_scalar_reads_route_to_owner():
    store = ShardedTimeSeriesStore(n_shards=4)
    key = SeriesKey.of("m", node="y")
    store.insert_batch(key, np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0, 30.0]))
    assert store.has(key)
    assert store.latest(key) == (3.0, 30.0)
    assert store.earliest_time(key) == 1.0
    t, v = store.query(key, 2.0, 10.0)
    assert t.tolist() == [2.0, 3.0] and v.tolist() == [20.0, 30.0]


def test_aggregate_across_matches_single_store_pooling_order():
    """'last' (and float association) depend on pooling order: across
    series the engine pools in canonical key order, not creation order,
    so a sharded store answers exactly what the single store does."""
    stores = [TimeSeriesStore(), ShardedTimeSeriesStore(n_shards=1), ShardedTimeSeriesStore(4)]
    b, a = SeriesKey.of("m", node="b"), SeriesKey.of("m", node="a")
    for store in stores:
        store.insert(b, 1.0, 111.0)  # created first, str-sorts last
        store.insert(a, 1.0, 222.0)  # a last-time tie with b
    plain = QueryEngine(stores[0], enable_cache=False)
    for sharded in stores[1:]:
        fed = QueryEngine(sharded, enable_cache=False)
        for agg in ("last", "sum", "mean", "min", "max", "count"):
            expr = f"{agg}(m[10s])"
            assert fed.scalar(expr, at=10.0) == plain.scalar(expr, at=10.0), agg
    assert plain.scalar("last(m[10s])", at=10.0) == 111.0  # the tie goes to node=b


def test_set_capacity_applies_to_new_series():
    store = ShardedTimeSeriesStore(n_shards=2)
    store.set_capacity("m", 4)
    key = SeriesKey.of("m", node="z")
    store.insert_batch(key, np.arange(10.0), np.arange(10.0))
    t, _ = store.query(key, -np.inf, np.inf)
    assert t.size == 4  # overwrote oldest


@pytest.mark.parametrize(
    "make", [TimeSeriesStore, lambda: ShardedTimeSeriesStore(n_shards=3)], ids=["plain", "sharded"]
)
def test_one_rollup_layout_per_store(make):
    """A store has one cascade over every place and one layout for its lifetime:
    the same layout (in any order) returns the very same list, another
    raises and leaves the tiers alone."""
    store = make()
    assert store.tiersets is None
    tiersets = store.create_tiersets((60.0, 10.0))
    assert store.tiersets is tiersets
    assert [m.store for m in tiersets] == [store]
    assert store.create_tiersets([10, 60.0]) is tiersets
    with pytest.raises(RuntimeError, match="different layout"):
        store.create_tiersets((10.0,))
    assert store.tiersets is tiersets


@pytest.mark.parametrize("n_shards", [2, 4, 8])
@pytest.mark.parametrize("n_series,commits", [(12, 1), (256, 1), (4096, 1), (4096, 8)])
def test_places_balance_to_within_one_series(n_shards, n_series, commits):
    """Placement by id balances at every size and however admission is
    batched: no place holds more than one series above another."""
    store = ShardedTimeSeriesStore(n_shards=n_shards, default_capacity=4)
    keys = [SeriesKey.of("m", node=f"n{i:05d}") for i in range(n_series)]
    for part in np.array_split(np.arange(n_series), commits):
        batch = [keys[i] for i in part.tolist()]
        store.insert_many(batch, np.ones(len(batch)), np.zeros(len(batch)))
    cards = store.shard_cardinalities()
    assert sum(cards) == n_series
    assert max(cards) - min(cards) <= 1
    assert max(cards) <= sum(cards) / n_shards + 1

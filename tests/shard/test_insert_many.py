"""``insert_many`` writes what N scalar ``insert`` calls write, as one commit.

Over every store shape of the ``executor`` fixture: the same rows, the
same interning order, the same query answers, and the same rows handed
to ingest listeners — in one delivery per touched shard instead of one
per row.
"""

import numpy as np
import pytest

from repro.shard import ShardedTimeSeriesStore
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

QUERIES = (
    "mean(m[60s] by 10s) group by (node)",
    "sum(m[60s] by 10s)",
    "last(k[60s]) group by (job)",
)


def _instants():
    """``(t, keys, values)`` per instant: new series appear at the second
    and third, and one key repeats within an instant."""
    rng = np.random.default_rng(7)
    out = []
    for step, t in enumerate((10.0, 20.0, 30.0, 40.0)):
        keys = [SeriesKey.of("m", node=f"n{i}") for i in range(3 + step)]
        keys.append(SeriesKey.of("m", node="n0"))  # repeated at the same instant
        if step >= 2:
            keys.append(SeriesKey.of("k", job="j1"))
        out.append((t, keys, rng.normal(size=len(keys))))
    return out


def _write(store, batched):
    for t, keys, values in _instants():
        if batched:
            store.insert_many(keys, np.full(len(keys), t), values)
        else:
            for key, value in zip(keys, values.tolist()):
                store.insert(key, t, value)


def _listened(store):
    seen = []
    store.add_ingest_listener(lambda i, t, v: seen.append((i.copy(), t.copy(), v.copy())))
    return seen


def _rows(store, deliveries):
    """Every delivered row as ``(key, time, value)``, per key in delivery order."""
    rows = [
        (str(store.registry.key_for(int(sid))), float(t), float(v))
        for ids, times, values in deliveries
        for sid, t, v in zip(ids, times, values)
    ]
    return sorted(rows, key=lambda row: row[0])  # stable: per-key order kept


def test_insert_many_equals_scalar_inserts(executor):
    scalar = executor.store(3, resolutions=(10.0,), capacity=64)
    batched = executor.store(3, resolutions=(10.0,), capacity=64)
    heard_scalar, heard_batched = _listened(scalar), _listened(batched)
    _write(scalar, batched=False)
    _write(batched, batched=True)

    n_rows = sum(len(keys) for _, keys, _ in _instants())
    assert batched.total_inserts == scalar.total_inserts == n_rows
    assert [batched.registry.key_for(i) for i in range(len(batched.registry))] == [
        scalar.registry.key_for(i) for i in range(len(scalar.registry))
    ]
    assert batched.series_keys() == scalar.series_keys()
    for key in scalar.series_keys():
        want_t, want_v = scalar.query(key, -np.inf, np.inf)
        got_t, got_v = batched.query(key, -np.inf, np.inf)
        assert np.array_equal(got_t, want_t) and np.array_equal(got_v, want_v), key

    assert _rows(batched, heard_batched) == _rows(scalar, heard_scalar)
    assert len(heard_scalar) == n_rows
    assert len(heard_batched) <= len(_instants())  # one delivery per commit

    executor.degrade(scalar)
    executor.degrade(batched)
    want_engine, got_engine = executor.engine(scalar), executor.engine(batched)
    for expr in QUERIES:
        want = want_engine.query(expr, at=45.0)
        got = got_engine.query(expr, at=45.0)
        assert [s.labels for s in got.series] == [s.labels for s in want.series], expr
        for g, w in zip(got.series, want.series):
            assert np.array_equal(g.times, w.times) and np.array_equal(g.values, w.values), expr


@pytest.mark.parametrize("make", [TimeSeriesStore, lambda: ShardedTimeSeriesStore(4)],
                         ids=["single", "sharded"])
def test_insert_many_is_one_commit(make):
    store = make()
    commits = []
    store.add_ingest_listener(lambda i, t, v: commits.append(i.size))
    keys = [SeriesKey.of("m", node=f"n{i}") for i in range(40)]
    store.insert_many(keys, np.full(len(keys), 1.0), np.arange(len(keys), dtype=float))
    # one delivery for the commit, whatever the place count; never one per row
    assert commits == [len(keys)]
    assert store.metric_epoch("m") == 1
    store.insert_many([], [], [])
    assert sum(commits) == len(keys)

"""Span-tree parity: a plain store's passes, and in-process,
pool-dispatched, stopped-pool and crash-fallback scatter passes over a
sharded one, must produce the same span tree shape (names + parentage,
one leaf per place) for an identical query — the guarantee that a trace
reads the same whatever the store shape and whether the fleet ran
``--parallel`` or not.
"""

import os

import pytest

from repro.obs.trace import TRACER
from repro.query import MetricQuery, QueryEngine
from repro.shard import ShardedTimeSeriesStore
from tests.shard.test_federation_property import assert_bit_identical
from tests.shard.test_parallel import fill_serial, fill_through_pool, parallel_store, series_data


@pytest.fixture(autouse=True)
def clean_global_tracer():
    TRACER.disable()
    TRACER.reset()
    yield
    TRACER.disable()
    TRACER.reset()


QUERY = MetricQuery("m", agg="mean", range_s=400.0, step_s=60.0, group_by=("node",))


def tree_shape(spans):
    """Every span as its root-to-leaf name path, sorted — parentage and
    multiplicity, independent of ids, pids, and timing."""
    by_id = {s[2]: s for s in spans}

    def path(s):
        names = [s[0]]
        parent = s[3]
        while parent is not None and parent in by_id:
            parent_span = by_id[parent]
            names.append(parent_span[0])
            parent = parent_span[3]
        return tuple(reversed(names))

    return sorted(path(s) for s in spans)


def traced_query(engine, at=950.0):
    TRACER.enable()
    TRACER.reset()
    result = engine.query(QUERY, at=at)
    spans = TRACER.drain()
    TRACER.disable()
    return result, spans


def test_every_executor_produces_the_same_span_tree(executor):
    data = series_data(11)
    store = executor.store(4)
    fill_through_pool(store, data)
    executor.degrade(store)
    engine = executor.engine(store, enable_cache=False)

    # the reference: the same places, every pass run in process
    serial_sharded = ShardedTimeSeriesStore(n_shards=store.n_places, default_capacity=4096)
    fill_serial(serial_sharded, data)
    ser = QueryEngine(serial_sharded, enable_cache=False)
    want, serial_spans = traced_query(ser)
    serial_shape = tree_shape(serial_spans)

    # the in-process trace has the full hierarchy: query -> execute ->
    # scatter -> per-place leaves
    assert ("engine.query",) in serial_shape
    assert ("engine.query", "engine.execute", "federated.scatter",
            "scatter.shard") in serial_shape

    # on ``worker-killed`` this is the query that finds the worker dead:
    # its shards fall back inside the already-open federated.scatter span
    got, spans = traced_query(engine)
    assert (getattr(engine, "serial_fallbacks", 0) > 0) == executor.falls_back
    assert tree_shape(spans) == serial_shape
    assert_bit_identical(got, want)

    # a shard leaf crossed a process boundary exactly when a live worker
    # owned the shard and the pass was dispatched to it
    for name, pid, *_, args in spans:
        if name != "scatter.shard":
            assert pid == os.getpid()
            continue
        in_worker = (executor.pooled and not executor.by_size) or (
            executor.name == "worker-killed" and store.pool.worker_of(args["shard"]) != 0
        )
        assert (pid != os.getpid()) == in_worker, (executor.name, args)


def test_disabled_tracing_records_nothing_on_either_engine():
    data = series_data(5)
    serial_sharded = ShardedTimeSeriesStore(n_shards=2, default_capacity=4096)
    fill_serial(serial_sharded, data)
    ser = QueryEngine(serial_sharded, enable_cache=False)
    ser.query(QUERY, at=950.0)
    assert len(TRACER) == 0
    with parallel_store(data, 2, 1) as store:
        par = QueryEngine(store, enable_cache=False)
        par.query(QUERY, at=950.0)
    assert len(TRACER) == 0

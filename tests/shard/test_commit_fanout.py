"""A commit is one ring-kernel call and one call of each listener.

Whatever the place count, and beside a live pool too: the places of a
sharded store split reads, never writes — so one ``append_batch`` or
``insert_many`` reaches :meth:`RawRings.append` once and every ingest
listener (rollup feed, standing grids, the pool's column forwarder)
once.  The counterpart of the ``shard.inserts == 0`` guard on the loop
path: per-place fan-out on the commit path must not come back.
"""

import numpy as np
import pytest

from repro.query import MetricQuery, QueryEngine
from repro.query.standing import StandingQueryEngine
from repro.shard import ParallelShardedStore, ShardedTimeSeriesStore
from repro.telemetry.metric import SeriesKey


def counted(store):
    """Count the ring-kernel calls and each listener's calls of ``store``."""
    calls = {"kernel": 0}
    kernel = store.rings.append

    def append(*args):
        calls["kernel"] += 1
        return kernel(*args)

    store.rings.append = append

    def wrap(k, listener):
        def on_ingest(ids, times, values):
            calls[k] += 1
            listener(ids, times, values)

        return on_ingest

    for k, listener in enumerate(list(store._listeners)):
        calls[k] = 0
        store._listeners[k] = wrap(k, listener)
    return calls


@pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pooled"])
@pytest.mark.parametrize("n_places", [1, 2, 8])
def test_one_commit_is_one_kernel_call_and_one_call_per_listener(n_places, pooled):
    if pooled:
        store = ParallelShardedStore(n_places, default_capacity=64, workers=2)
        store.start_parallel()
    else:
        store = ShardedTimeSeriesStore(n_places, default_capacity=64)
    with_tiers = QueryEngine.with_rollups(store, resolutions=(10.0,), enable_cache=False)
    assert StandingQueryEngine(with_tiers).register(
        MetricQuery("m", agg="mean", range_s=60.0, step_s=10.0, group_by=("node",))
    )
    keys = [SeriesKey.of("m", node=f"n{i:02d}") for i in range(24)]
    ids = store.registry.ids_for(keys)
    calls = counted(store)
    listeners = len(store._listeners)
    assert listeners == 2  # the rollup feed; the standing grids or, pooled, the forwarder
    try:
        # every place gets rows, every series several, in no order
        rows = np.tile(ids, 3)[::-1]
        store.append_batch(rows, np.repeat([3.0, 2.0, 1.0], ids.size), np.ones(rows.size))
        assert calls == {"kernel": 1, **{k: 1 for k in range(listeners)}}
        # keyed, with series first seen here
        more = keys + [SeriesKey.of("m", node=f"x{i}") for i in range(9)]
        store.insert_many(more, np.full(len(more), 4.0), np.zeros(len(more)))
        assert calls == {"kernel": 2, **{k: 2 for k in range(listeners)}}
        assert store.cardinality() == len(more)
        assert min(store.shard_cardinalities()) > 0
    finally:
        if pooled:
            store.close()

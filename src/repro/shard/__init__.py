"""Sharded time-series storage: one ring store, its series in N places.

A :class:`ShardedTimeSeriesStore` is one
:class:`~repro.telemetry.tsdb.TimeSeriesStore` — one registry, one ring
store, one rollup cascade, one commit — whose series ids fall into N
*places*: id ``sid`` lives in place ``sid % N``, fixed when the key is
interned.  A place is what one query pass covers: the one
:class:`~repro.query.engine.QueryEngine` plans a query once, runs one
pass per touched place and gathers the partial rows in a
partition-independent order, so every place count answers alike.

Who runs a place pass is a property of the store, not a class of
engine: :mod:`repro.shard.parallel` relocates the rings and tiers into
shared memory beside a persistent worker pool
(:class:`ParallelShardedStore`; :class:`ParallelShardContext` is the
one-stop entry point) whose workers each own some places; the engine
dispatches its passes to that pool while it is live, and runs the same
pass functions in process otherwise.
"""

from repro.query.engine import QueryEngine
from repro.shard.parallel import ParallelShardContext, ParallelShardedStore, ShardWorkerPool
from repro.shard.store import ShardedTimeSeriesStore

# exists only for ``from repro.shard import FederatedQueryEngine`` in bench/wl_fleet_act.py
FederatedQueryEngine = QueryEngine

__all__ = [
    "ParallelShardContext",
    "ParallelShardedStore",
    "ShardWorkerPool",
    "ShardedTimeSeriesStore",
]

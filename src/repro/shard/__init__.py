"""Sharded time-series storage with federated scatter-gather queries.

The MODA substrate scales past a single in-process store by
hash-partitioning series across N independent shard stores
(:class:`ShardedTimeSeriesStore`) and federating reads back together
through the one :class:`~repro.query.engine.QueryEngine`, the store's
``places`` being its shards.  Routing is
deterministic on the series key, so a series always lives on exactly
one shard; ingest splits columnar batches by shard, and a query is
planned once, run as one pass per touched shard and gathered in a
partition-independent order, so partial results merge exactly.

Who runs a shard pass is a property of the store, not a class of
engine: :mod:`repro.shard.parallel` relocates shard columns into shared
memory beside a persistent worker pool (:class:`ParallelShardedStore`;
:class:`ParallelShardContext` is the one-stop entry point), the engine
dispatches its passes to that pool while it is live, and runs the same
pass functions in process otherwise.
"""

from repro.query.engine import QueryEngine
from repro.shard.parallel import ParallelShardContext, ParallelShardedStore, ShardWorkerPool
from repro.shard.store import ShardedTimeSeriesStore, shard_of_key

# exists only for ``from repro.shard import FederatedQueryEngine`` in bench/wl_fleet_act.py
FederatedQueryEngine = QueryEngine

__all__ = [
    "ParallelShardContext",
    "ParallelShardedStore",
    "ShardWorkerPool",
    "ShardedTimeSeriesStore",
    "shard_of_key",
]

"""Sharded time-series storage with federated scatter-gather queries.

The MODA substrate scales past a single in-process store by
hash-partitioning series across N independent shard stores
(:class:`ShardedTimeSeriesStore`) and federating reads back together
(:class:`FederatedQueryEngine`).  Routing is deterministic on the
series key, so a series always lives on exactly one shard; ingest
splits columnar batches by shard, and queries scatter per-shard
subqueries whose partial results merge exactly.

:mod:`repro.shard.parallel` adds the process-parallel execution tier:
shard columns relocated into shared memory and a persistent worker pool
running the per-shard scatter/append/fold passes concurrently
(:class:`ParallelShardContext` is the one-stop entry point), degrading
to the serial implementations whenever the pool is unavailable.
"""

from repro.shard.federated import FederatedQueryEngine, FederatedStandingProvider
from repro.shard.parallel import (
    ParallelFederatedQueryEngine,
    ParallelShardContext,
    ParallelShardedStore,
    ParallelStandingProvider,
    ShardWorkerPool,
)
from repro.shard.store import ShardedTimeSeriesStore, shard_of_key

__all__ = [
    "FederatedQueryEngine",
    "FederatedStandingProvider",
    "ParallelFederatedQueryEngine",
    "ParallelShardContext",
    "ParallelShardedStore",
    "ParallelStandingProvider",
    "ShardWorkerPool",
    "ShardedTimeSeriesStore",
    "shard_of_key",
]

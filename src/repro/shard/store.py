"""The sharded store: one ring store whose series fall into N places.

A :class:`ShardedTimeSeriesStore` is a
:class:`~repro.telemetry.tsdb.TimeSeriesStore` — one
:class:`~repro.telemetry.batch.SeriesRegistry`, one
:class:`~repro.telemetry.tsdb.RawRings`, one rollup cascade, one
listener list — whose series ids fall into ``n_shards`` places: id
``sid`` lives in place ``sid % n_shards``, fixed when the key is
interned.  Routing is that one integer op, so a commit is the plain
store's (one sort, one ring-kernel call, one call of each listener)
whatever the shard count, and places balance to within one series at
every size.  What the places buy is the read side: the query engine
plans per place and runs one pass per touched place, in process or on a
worker pool (:class:`~repro.shard.parallel.ParallelShardedStore`).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.telemetry.tsdb import RawRings, TimeSeriesStore


class ShardedTimeSeriesStore(TimeSeriesStore):
    """A :class:`~repro.telemetry.tsdb.TimeSeriesStore` of ``n_shards``
    places: the full store surface, plus per-place balance."""

    def __init__(
        self, n_shards: int = 4, default_capacity: int = 4096, *,
        rings: Optional[RawRings] = None,
    ) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if rings is None:
            rings = RawRings(lanes=n_shards)  # a lane per place: its rings lie together
        super().__init__(default_capacity, rings=rings)
        self.n_places = int(n_shards)

    @property
    def shards(self) -> List[TimeSeriesStore]:
        """The store itself, once: the stores whose listeners see its
        commits (what ``bench/`` wraps to time listeners)."""
        return [self]

    def shard_cardinalities(self) -> List[int]:
        """Live series per place (balance diagnostics)."""
        return np.bincount(self.rings.sids() % self.n_places, minlength=self.n_places).tolist()

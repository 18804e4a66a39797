"""Shared fixtures.

``executor`` is the one input the bit-identity suites take in place of
an engine class: every store shape is served by the one query algebra,
and *who runs a shard pass* is a property of the store the engine
observes, so every case runs unchanged over each store shape and each
way of running a pass.
"""

import pytest

from repro.query import QueryEngine
from repro.query import engine as query_engine
from repro.shard import ParallelShardedStore, ShardedTimeSeriesStore
from repro.telemetry.tsdb import TimeSeriesStore


class ShardExecutor:
    """One store shape and way of running its passes, as stores built to
    provoke it.

    ``single``: a plain store (its one place, whatever shard count is
    asked for).  ``inline``: a plain sharded store, no pool.  Every
    store builds its tiers with ``create_tiersets``, and every engine is
    a ``QueryEngine``.  ``pool-1`` / ``pool-2``: shared-memory
    shards beside a live pool of that many workers.  ``pool-2-auto``:
    the same, and the engine keeps scatters over few series in process
    (its default; every other pool case pins ``INLINE_SCATTER_SERIES``
    to 0 so that each pass goes to the pool).  ``pool-stopped``: the
    pool shut down after the data went in.  ``worker-killed``: two
    workers, respawn off, worker 0 killed after the data went in — the
    next dispatch loses its shards' tasks and breaks the pool.
    :meth:`degrade` applies the last two; on the others it does nothing.
    """

    NAMES = ("single", "inline", "pool-1", "pool-2", "pool-2-auto", "pool-stopped", "worker-killed")

    def __init__(self, name: str) -> None:
        self.name = name
        self._stores = []

    @property
    def pooled(self) -> bool:
        """A live pool runs every pass that is dispatched: the workers
        fold and keep the standing grids."""
        return self.name in ("pool-1", "pool-2", "pool-2-auto")

    @property
    def by_size(self) -> bool:
        """Scatters over few series stay in process beside the live
        pool: counted in ``inline_by_size``, never a fallback."""
        return self.name == "pool-2-auto"

    @property
    def falls_back(self) -> bool:
        """A pool exists, and (after :meth:`degrade`) passes run in
        process anyway: counted in ``serial_fallbacks``."""
        return self.name in ("pool-stopped", "worker-killed")

    def store(self, n_shards: int, *, resolutions=None, capacity: int = 4096):
        if self.name == "single":
            store = TimeSeriesStore(default_capacity=capacity)
        elif self.name == "inline":
            store = ShardedTimeSeriesStore(n_shards=n_shards, default_capacity=capacity)
        else:
            store = ParallelShardedStore(
                n_shards=n_shards,
                default_capacity=capacity,
                workers=1 if self.name == "pool-1" else 2,
                respawn=self.name != "worker-killed",
            )
            self._stores.append(store)
            store.start_parallel()
        if resolutions is not None:
            store.create_tiersets(resolutions)
        return store

    def engine(self, store, **kwargs):
        """The query engine over a store this executor built."""
        return QueryEngine(store, **kwargs)

    def degrade(self, store) -> None:
        if self.name == "pool-stopped":
            store.pool.close()
        elif self.name == "worker-killed":
            store.pool.inject_crash(0)

    def close(self) -> None:
        for store in self._stores:
            store.close()


@pytest.fixture
def every_pass_dispatched(monkeypatch):
    """No scatter is small enough to stay in process: what "the pool ran
    it" and the crash-path assertions are about."""
    monkeypatch.setattr(query_engine, "INLINE_SCATTER_SERIES", 0)


@pytest.fixture(params=ShardExecutor.NAMES)
def executor(request):
    ex = ShardExecutor(request.param)
    if not ex.by_size:
        request.getfixturevalue("every_pass_dispatched")
    yield ex
    ex.close()

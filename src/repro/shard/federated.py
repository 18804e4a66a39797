"""The query engine over a sharded store, and who runs its passes.

:class:`FederatedQueryEngine` is :class:`~repro.query.engine.QueryEngine`
— the same plan, the same shard passes of :mod:`repro.query.passes`,
the same canonical gather — over the places of a
:class:`~repro.shard.store.ShardedTimeSeriesStore`: its places are the
shard stores, its rollup cascades the store's ``tiersets``.  The store's
label index carries each series' shard, so a plan comes partitioned:
per shard the ``(local sid, gidx, rank)`` columns of the series it owns.

What differs is *who runs a pass*, and that is observed, not configured:
:meth:`FederatedQueryEngine._run_on_shards` dispatches a pass to the
store's worker pool while that is live (:mod:`repro.shard.parallel`) and
otherwise — or for a shard whose worker died, or for a scatter over so
few series that the round trip would cost more than the pass
(:data:`INLINE_SCATTER_SERIES`) — runs the very same function here.
Plan and gather never know which.

Per-series arithmetic happens on exactly one shard (a series never
splits) and the gather reduces in a partition-independent order, so the
answer is **bit-identical** to the plain engine over a single store
holding the same data, for every shard count and either executor.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.query.engine import QueryEngine
from repro.query.rollup import RollupManager
from repro.shard.store import ShardedTimeSeriesStore

#: Dispatch result of a task lost to a dead worker.
WORKER_DIED = object()

#: A scatter pass over at most this many series runs in process although
#: a pool is live.  Calibration (E18 ``small_pass_tax``, 4 shards × 2
#: workers): a dispatch costs a fixed F ≈ 0.65–0.9 ms over the same pass
#: run here (wake two workers, pickle ~40 small arrays, unpickle them),
#: and reading a series costs c ≈ 8 µs from raw rings, ≈ 16 µs stitched
#: from a tier, on either side.  W workers on cores of their own save at
#: most c·k·(1 − 1/W), so the pool breaks even no earlier than k = F /
#: (c·(1 − 1/W)): ≈ 80–220 series at W = 2, ≈ 55–150 at W = 4.  On the
#: 2-vCPU development host (one core's worth of throughput) the measured
#: crossover is 130–190 series with tiers and none up to 512 without.
#: 64 is below all of those: no pass kept here would have been faster
#: dispatched.  Tests and E18 pin it to 0 to send every pass to the pool.
INLINE_SCATTER_SERIES = 64


class FederatedQueryEngine(QueryEngine):
    """The query engine over hash-partitioned shard stores.

    Reads the store's per-shard rollup cascades (``store.tiersets``) and
    runs its shard passes on the store's worker pool while that is live
    (``store.pool``) — both observed, neither configured here.
    """

    def __init__(
        self,
        store: ShardedTimeSeriesStore,
        *,
        cache=None,
        enable_cache: bool = True,
        instant_quantum_s: float = 1.0,
    ) -> None:
        super().__init__(
            store,
            cache=cache,
            enable_cache=enable_cache,
            instant_quantum_s=instant_quantum_s,
        )
        self.places = store.shards
        #: passes the pool ran, by kind; passes it should have run and
        #: (partly) could not; scatters kept in process for their size
        self.pool_passes: Counter = Counter()
        self.serial_fallbacks = 0
        self.inline_by_size = 0

    @classmethod
    def with_rollups(
        cls,
        store: ShardedTimeSeriesStore,
        *,
        resolutions: Sequence[float] = (10.0, 60.0, 600.0),
        capacity: int = 4096,
        **kwargs,
    ) -> "FederatedQueryEngine":
        """Give the store one rollup cascade per shard, build the engine."""
        store.create_tiersets(resolutions, tier_capacity=capacity)
        return cls(store, **kwargs)

    @property
    def tiersets(self) -> Optional[List[RollupManager]]:
        """Per-shard rollup cascades, parallel to ``store.shards``."""
        return self.store.tiersets

    @property
    def parallel_scatters(self) -> int:
        """Scatter passes the worker pool ran."""
        return self.pool_passes["scatter"]

    @property
    def parallel_folds(self) -> int:
        """Fold passes the worker pool ran."""
        return self.pool_passes["fold"]

    def _run_on_shards(self, kind: str, tasks: List[Tuple[int, Dict]]) -> List:
        """Run one pass of ``kind`` on the shards of ``tasks`` — ``(shard,
        payload)`` pairs — and return their results in task order.

        The one place that decides who runs a shard pass, from what it
        observes: the store's pool and the size of the pass.  One
        dispatch to the owning workers while the pool is live; the same
        :data:`~repro.query.passes.SHARD_PASSES` function here, on the
        parent's view of the shard, where there is no pool, it is
        stopped, a worker died with its reply (the pool breaks, or
        respawns it) — or the pass is a scatter over no more than
        :data:`INLINE_SCATTER_SERIES` series, which a round trip would
        cost more than it reads.  Reads are idempotent, a re-run fold is
        skipped tier by tier by its watermarks, and parent state is
        authoritative throughout.  A pass the pool could not run, wholly
        or in part, counts once in ``serial_fallbacks``; one kept here
        for its size counts in ``inline_by_size`` instead and never
        looks at the pool, so a dead worker is noticed at the next
        dispatched pass (fold, standing, large scatter), not at the next
        small read.  Either way the pass traces as one ``<kind>.shard``
        span per shard.
        """
        if not tasks:
            return []
        pool = self.store.pool
        results: List = [WORKER_DIED] * len(tasks)
        small = (
            pool is not None
            and kind == "scatter"
            and sum(len(payload["sids"]) for _, payload in tasks) <= INLINE_SCATTER_SERIES
        )
        if small:
            self.inline_by_size += 1
        elif pool is not None and pool.active:
            results = pool.dispatch([(shard, kind, payload) for shard, payload in tasks])
        here = [i for i, data in enumerate(results) if data is WORKER_DIED]
        if not here:
            self.pool_passes[kind] += 1
            return results
        if pool is not None and not small:
            self.serial_fallbacks += 1
        for i, data in zip(here, self._run_here(kind, [tasks[i] for i in here])):
            results[i] = data
        return results

    def stats(self) -> Dict[str, float]:
        out = super().stats()
        executed = self.served_raw + self.served_rollup
        out["shards"] = float(self.store.n_shards)
        out["federated_queries"] = float(executed)
        out["fanout_total"] = float(self.fanout_total)
        out["fanout_mean"] = self.fanout_total / max(1, executed)
        pool = self.store.pool
        if pool is not None:
            out["parallel_scatters"] = float(self.parallel_scatters)
            out["parallel_folds"] = float(self.parallel_folds)
            out["serial_fallbacks"] = float(self.serial_fallbacks)
            out["inline_by_size"] = float(self.inline_by_size)
            out.update({f"pool_{k}": v for k, v in pool.stats().items()})
        return out

"""Hash-partitioned time-series store: N shards behind one facade.

:class:`ShardedTimeSeriesStore` partitions series across ``n_shards``
independent :class:`~repro.telemetry.tsdb.TimeSeriesStore` instances.
Each shard owns the full single-store machinery — its own
:class:`~repro.telemetry.batch.SeriesRegistry`, ring buffers, per-metric
write epochs and series generations, ingest listeners — so a shard is
exactly the storage unit a production deployment would run as one
process.  The facade speaks the store protocol the query engine reads:
its ``places`` are the shards, ``tiersets`` their rollup cascades (one
layout per store, :meth:`~repro.telemetry.tsdb.TimeSeriesStore.create_tiersets`)
and ``pool`` the worker pool that may run their passes.

Routing is **deterministic and content-addressed**: a series key always
maps to the same shard (:func:`shard_of_key`, CRC-32 of the canonical
key string), independent of insertion order, process, or run.  The
facade keeps a *global* registry interning keys to dense global ids —
the currency of the columnar ingest pipeline — plus vectorized routing
tables ``global id → (shard, local id)``, so splitting a
:class:`~repro.telemetry.batch.SampleBatch` by shard costs a couple of
NumPy gathers, not a Python call per row.

The batch commit path sorts the batch **once** (the same
``(series, time)`` lexsort the single store pays), maps each resulting
per-series segment to its shard, regroups the segments by shard with one
gather and hands each shard its (now contiguous) runs through
:meth:`TimeSeriesStore.append_segments` — the trusted pre-sorted
entry — so a sharded commit is one vectorised ring scatter per touched
shard and never a per-shard re-sort.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.batch import SeriesRegistry, sort_series_columns
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import (
    IngestListener,
    LabelIndex,
    MetricVersions,
    TimeSeriesStore,
    segment_rows,
)


def shard_of_key(key: SeriesKey, n_shards: int) -> int:
    """Deterministic shard index of a series key.

    CRC-32 over the canonical string form — stable across processes and
    runs (unlike ``hash()``, which is salted per interpreter), cheap,
    and well-spread for the ``metric{label=value}`` shapes telemetry
    produces.
    """
    return zlib.crc32(str(key).encode()) % n_shards


class ShardedTimeSeriesStore:
    """Facade over ``n_shards`` single stores with deterministic routing.

    Implements the full read/write surface of
    :class:`~repro.telemetry.tsdb.TimeSeriesStore` (scalar inserts,
    per-series bulk inserts, columnar ``append_batch``, window queries,
    key listing, epochs/generations, listeners), so every existing
    consumer — collectors, loops, dashboards, the query layer — works
    unchanged on top of it.  Its ``places`` are its shards, so the one
    :class:`~repro.query.engine.QueryEngine` runs its passes per shard
    and gathers their partial rows.
    """

    #: the worker pool that can run this store's shard passes; the
    #: query engine runs them in process while there is none, or while
    #: it is not live (:class:`repro.shard.parallel.ParallelShardedStore`)
    pool = None
    #: one rollup cascade per shard (:meth:`create_tiersets`)
    tiersets = None

    def __init__(self, n_shards: int = 4, default_capacity: int = 4096) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self.n_shards = int(n_shards)
        self.default_capacity = int(default_capacity)
        self.shards: List[TimeSeriesStore] = [
            self._make_shard(idx) for idx in range(self.n_shards)
        ]
        #: every shard counts its commits and series into one table, so an
        #: epoch or generation read here costs one lookup, not one per shard
        self.versions = MetricVersions()
        for shard in self.shards:
            shard.versions = self.versions
        #: global intern table — the id namespace the ingest pipeline moves
        self.registry = SeriesRegistry()
        #: routing tables indexed by global series id (dense, grown lazily)
        self._shard_of = np.empty(0, dtype=np.int16)  # 16 bits: stable argsort is a radix sort
        self._local_of = np.empty(0, dtype=np.int64)
        self._routed = 0
        #: per-shard local id → global id (for translating listener columns)
        self._global_of: List[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(self.n_shards)
        ]
        self._listeners: List[IngestListener] = []
        self._indexes: Dict[Optional[str], LabelIndex] = {}

    def _make_shard(self, idx: int) -> TimeSeriesStore:
        """Build the per-shard store.  Subclasses override to relocate
        shard columns (:class:`repro.shard.parallel.ParallelShardedStore`
        puts the rings in shared memory for the process-parallel tier)."""
        return TimeSeriesStore(self.default_capacity)

    @property
    def places(self) -> List[TimeSeriesStore]:
        """The stores whose rings hold this store's series: its shards."""
        return self.shards

    # one rollup layout per store, one cascade per place: the plain
    # store's rule and builder, over the shards
    create_tiersets = TimeSeriesStore.create_tiersets
    _make_tierset = TimeSeriesStore._make_tierset

    # ------------------------------------------------------------- routing
    def shard_index(self, key: SeriesKey) -> int:
        """The shard a series key routes to."""
        return shard_of_key(key, self.n_shards)

    def shard_for(self, key: SeriesKey) -> TimeSeriesStore:
        return self.shards[shard_of_key(key, self.n_shards)]

    def _ensure_routed(self) -> None:
        """Extend the routing tables to cover every interned global id.

        Ids are assigned densely by the global registry; each new id is
        routed once, interned into its shard's registry (shard-local
        ids are therefore monotone in global id, which keeps per-shard
        segment streams sorted after a global ``(series, time)`` sort).
        """
        n = len(self.registry)
        if self._routed == n:
            return
        if n > self._shard_of.size:
            cap = max(64, 2 * self._shard_of.size, n)
            self._shard_of = np.resize(self._shard_of, cap)
            self._local_of = np.resize(self._local_of, cap)
        for gid in range(self._routed, n):
            key = self.registry.key_for(gid)
            s = shard_of_key(key, self.n_shards)
            local = self.shards[s].registry.id_for(key)
            self._shard_of[gid] = s
            self._local_of[gid] = local
            g_map = self._global_of[s]
            if local >= g_map.size:
                self._global_of[s] = g_map = np.resize(g_map, max(64, 2 * g_map.size, local + 1))
            g_map[local] = gid
        self._routed = n

    # ---------------------------------------------------------- management
    def set_capacity(self, metric: str, capacity: int) -> None:
        for shard in self.shards:
            shard.set_capacity(metric, capacity)

    def add_ingest_listener(self, listener: IngestListener) -> None:
        """Register a facade-level listener over every shard's commits.

        The listener receives **global** series ids (this facade's
        :attr:`registry` namespace); shard-local ids are translated
        through the routing tables before delivery.  Components that
        attach to one shard directly (per-shard rollup managers) keep
        using that shard's local ids.
        """
        self._listeners.append(listener)
        for s, shard in enumerate(self.shards):
            shard.add_ingest_listener(self._translating_listener(s, listener))

    def _translating_listener(self, shard_idx: int, listener: IngestListener) -> IngestListener:
        def on_ingest(ids: np.ndarray, times: np.ndarray, values: np.ndarray) -> None:
            self._ensure_routed()
            listener(self._global_of[shard_idx][ids], times, values)

        return on_ingest

    # --------------------------------------------------------------- writing
    def insert(self, key: SeriesKey, t: float, value: float) -> None:
        self.registry.id_for(key)
        self.shard_for(key).insert(key, t, value)

    def insert_batch(self, key: SeriesKey, times: np.ndarray, values: np.ndarray) -> None:
        self.registry.id_for(key)
        self.shard_for(key).insert_batch(key, times, values)

    def insert_many(self, keys: Sequence[SeriesKey], times, values) -> None:
        """Keyed columnar commit, the keyed twin of :meth:`insert`: the
        rows of ``insert(keys[i], times[i], values[i])`` for every ``i``,
        interned into :attr:`registry` in order, then sorted once, routed
        once and committed once per touched shard."""
        if len(keys):
            self._append(self.registry.ids_for(keys), times, values)

    def append_batch(
        self,
        series_ids: np.ndarray,
        times: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Columnar bulk commit split across shards.

        One global ``(series, time)`` lexsort — the identical sort a
        single store would pay — then each per-series segment is routed
        to its shard and committed through the trusted pre-sorted
        :meth:`TimeSeriesStore.append_segments` path, so the split adds
        O(segments) routing gathers and one row gather over the
        unsharded commit.  Ids must come from this facade's
        :attr:`registry`.
        """
        self._append(series_ids, times, values)

    def _append(self, series_ids, times, values) -> None:
        series_ids = np.asarray(series_ids, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if not (series_ids.shape == times.shape == values.shape):
            raise ValueError("series_ids, times, values must be parallel 1-D arrays")
        if series_ids.size == 0:
            return
        self._ensure_routed()
        if int(series_ids.max()) >= self._routed:
            raise IndexError("series id not interned in this store's registry")
        ids_s, times_s, values_s, starts, ends = sort_series_columns(
            series_ids, times, values
        )
        seg_gids = ids_s[starts]
        seg_locals = self._local_of[seg_gids]
        if self.n_shards == 1:
            self.shards[0].append_segments(seg_locals, times_s, values_s, starts, ends)
            return
        # regroup the segments by shard (stable: id order survives inside
        # a shard) with one gather, so each shard's runs lie back to back
        seg_shards = self._shard_of[seg_gids]
        order = np.argsort(seg_shards, kind="stable")
        lens = (ends - starts)[order]
        ends = np.cumsum(lens)
        rows = order if ends[-1] == order.size else segment_rows(starts[order], lens)
        starts = ends - lens
        times_o, values_o, locals_o = times_s[rows], values_s[rows], seg_locals[order]
        lo = 0
        for shard, n in zip(self.shards, np.bincount(seg_shards, minlength=self.n_shards).tolist()):
            if n:
                shard.append_segments(
                    locals_o[lo:lo + n], times_o, values_o, starts[lo:lo + n], ends[lo:lo + n]
                )
                lo += n

    # --------------------------------------------------------------- reading
    def has(self, key: SeriesKey) -> bool:
        return self.shard_for(key).has(key)

    def series_keys(self, metric: Optional[str] = None) -> List[SeriesKey]:
        return list(self.label_index(metric).keys)

    def label_index(self, metric: Optional[str] = None) -> LabelIndex:
        """One :class:`LabelIndex` over every shard's series of ``metric``,
        each with its shard and its series id there; rebuilt only when
        some shard has grown one."""
        generation = self.series_generation(metric)
        index = self._indexes.get(metric)
        if index is None or index.generation != generation:
            sids = [shard.series_ids(metric) for shard in self.shards]
            index = self._indexes[metric] = LabelIndex(
                generation,
                [
                    shard.registry.key_for(sid)
                    for shard, part in zip(self.shards, sids) for sid in part.tolist()
                ],
                np.repeat(np.arange(self.n_shards), [part.size for part in sids]),
                np.concatenate(sids),
                self.n_shards,
            )
        return index

    def series_generation(self, metric: Optional[str]) -> int:
        """Monotone: bumps whenever any shard grows a series of ``metric``
        (``None``: of any metric)."""
        if metric is None:
            return sum(shard.series_generation(None) for shard in self.shards)
        return self.versions.generation(metric)

    def metric_epoch(self, metric: str) -> int:
        """Monotone: bumps on every commit touching ``metric`` on any shard."""
        return self.versions.epoch(metric)

    def cardinality(self) -> int:
        return sum(shard.cardinality() for shard in self.shards)

    @property
    def total_inserts(self) -> int:
        return sum(shard.total_inserts for shard in self.shards)

    def latest(self, key: SeriesKey) -> Optional[Tuple[float, float]]:
        return self.shard_for(key).latest(key)

    def earliest_time(self, key: SeriesKey) -> Optional[float]:
        return self.shard_for(key).earliest_time(key)

    def query(self, key: SeriesKey, t0: float, t1: float) -> Tuple[np.ndarray, np.ndarray]:
        return self.shard_for(key).query(key, t0, t1)

    # ------------------------------------------------------------ telemetry
    def shard_cardinalities(self) -> List[int]:
        """Live series per shard (balance diagnostics)."""
        return [shard.cardinality() for shard in self.shards]

    def shard_stats(self) -> Dict[str, float]:
        cards = self.shard_cardinalities()
        return {
            "shards": float(self.n_shards),
            "series_total": float(sum(cards)),
            "series_max_shard": float(max(cards)) if cards else 0.0,
            "series_min_shard": float(min(cards)) if cards else 0.0,
            "inserts_total": float(self.total_inserts),
        }

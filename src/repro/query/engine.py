"""The query planner/executor.

:class:`QueryEngine` is the serving layer between the raw
:class:`~repro.telemetry.tsdb.TimeSeriesStore` and everything that reads
telemetry (analytics facades, MAPE-K loops, dashboards, the CLI).  An
execution runs through four stages:

1. **Cache probe** — canonical expression + quantized window
   (:class:`~repro.query.cache.QueryCache`).
2. **Resolve** — label matchers → concrete series keys → the grouped,
   sid-addressed :class:`QueryPlan`, built from the store's per-metric
   :class:`~repro.telemetry.tsdb.LabelIndex` (matchers evaluated per
   distinct label value, groups by code columns), memoised per query
   shape against the store's series generation and shared with the
   federated and standing engines.
3. **Plan** — pick the coarsest rollup tier that can serve the
   ``(step, agg)`` pair exactly, else raw; tier-served queries still
   merge the raw tail past each series' fold watermark, so results are
   identical to a full raw scan (for partial-servable aggregators)
   while long-range queries touch only rollup rows for the bulk of the
   window.
4. **Execute** — fully vectorized binned aggregation
   (:mod:`repro.query.kernels`); cross-series pooling, percentiles,
   group-by, and counter-reset-aware ``rate`` without per-bin Python
   loops.

Semantics are defined by :mod:`repro.query.model` and mirrored by the
brute-force evaluator in :mod:`repro.query.reference`, which the
property tests hold the engine to.
"""

from __future__ import annotations

import dataclasses
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.trace import TRACER
from repro.query.cache import QueryCache
from repro.query.kernels import (
    PARTIAL_AGGS,
    PartialBins,
    counter_increase,
    grouped_aggregate,
)
from repro.query.model import MetricQuery
from repro.query.parser import parse_query
from repro.query.rollup import RollupManager, RollupTier
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import LabelIndex, TimeSeriesStore

GroupLabels = Tuple[Tuple[str, str], ...]

#: Query shapes the plan memo keeps (least recently used go first).
_PLANS_MAX = 4096


@dataclass(frozen=True)
class ResultSeries:
    """One output series: group labels plus aligned time/value arrays."""

    labels: GroupLabels
    times: np.ndarray
    values: np.ndarray

    def label(self, name: str) -> Optional[str]:
        for k, v in self.labels:
            if k == name:
                return v
        return None

    def __str__(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{{{inner}}}" if inner else "{}"


@dataclass(frozen=True)
class QueryResult:
    """Engine output: the query, its resolved window, and result series."""

    query: MetricQuery
    t0: float
    t1: float
    series: Tuple[ResultSeries, ...]
    source: str  # "raw", "rollup:<res>s", or "cache"

    def first(self) -> Optional[ResultSeries]:
        return self.series[0] if self.series else None

    def scalar(self) -> Optional[float]:
        """Single value of a one-series instant query (else raises)."""
        if not self.series:
            return None
        if len(self.series) > 1:
            raise ValueError(
                f"scalar() on a {len(self.series)}-series result; drop group_by or select harder"
            )
        values = self.series[0].values
        return float(values[-1]) if values.size else None


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class ShardWork:
    """One store's (or one shard's) rows of a :class:`QueryPlan`.

    Parallel columns, in the plan's ``(group, rank)`` order: the series
    id there, its group index, its rank within the group and its
    position in :meth:`QueryEngine.select` order.  They are lists — what
    a scatter pass loops over and a pool dispatch pickles; the
    vectorised standing read takes :meth:`arrays`, built on first use
    (registered shapes only).
    """

    __slots__ = ("sids", "gidx", "rank", "sel", "_arrays")

    def __init__(self, sids: List[int], gidx: List[int], rank: List[int], sel: List[int]) -> None:
        self.sids = sids
        self.gidx = gidx
        self.rank = rank
        self.sel = sel
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sids, gidx, rank)`` as int64 arrays."""
        if self._arrays is None:
            self._arrays = tuple(
                np.asarray(col, dtype=np.int64) for col in (self.sids, self.gidx, self.rank)
            )
        return self._arrays


class QueryPlan(NamedTuple):
    """The resolved selection of one query shape, grouped and sid-addressed.

    ``keys`` are the selected series flattened in canonical ``(group,
    rank)`` order — groups by sorted label tuple (``labels``), members
    by ``str`` — and group ``g`` owns ``keys[bounds[g]:bounds[g + 1]]``.
    ``shards`` holds the same rows as sid-addressed columns, one
    :class:`ShardWork` per place the series live: one for a single
    store, one per shard for a sharded one (``fanout`` counts those that
    hold any).
    """

    generation: int
    labels: Tuple[GroupLabels, ...]
    keys: List[SeriesKey]
    bounds: List[int]
    shards: List[ShardWork]
    fanout: int


def instant_tier_partials(
    store, rollups: RollupManager, key: SeriesKey, t0: float, t1: float
) -> Optional[Dict[str, float]]:
    """Partial statistics of an aged-out instant window served from tiers.

    Applies only when the raw ring no longer covers the window (its
    oldest retained sample is newer than ``t0``): the raw scan and the
    brute-force reference both see nothing, so answering from the
    finest tier whose bins lie **fully inside** ``[t0, t1]`` is
    strictly more history, never a different answer for data the ring
    still holds.  Partially overlapping bins are excluded — their
    statistics would mix samples from outside the window.  Returns the
    pooled ``(sum, count, min, max, last_t, last_v, resolution)`` of
    the qualifying rows, or ``None``.  Shared by the single-store
    engine and the federated engine (which applies it per shard).
    """
    earliest = store.earliest_time(key)
    if earliest is None or earliest <= t0:
        return None
    for tier in rollups.tiers:  # finest first: freshest detail
        rows = tier.window(key, t0, t1)
        if rows is None or not rows["time"].size:
            continue
        keep = rows["time"] + tier.resolution_s <= t1
        if not keep.any():
            continue
        return {
            "sum": float(np.sum(rows["sum"][keep])),
            "count": float(np.sum(rows["count"][keep])),
            "min": float(np.min(rows["min"][keep])),
            "max": float(np.max(rows["max"][keep])),
            # rows are time-ordered, so the tail is the freshest sample
            "last_t": float(rows["last_t"][keep][-1]),
            "last_v": float(rows["last_v"][keep][-1]),
            "resolution": tier.resolution_s,
        }
    return None


def instant_tier_rate(
    store, rollups: RollupManager, key: SeriesKey, t0: float, t1: float
) -> Optional[Tuple[float, float]]:
    """Counter increase of an aged-out instant window served from tiers.

    The ``rate`` analogue of :func:`instant_tier_partials`, with the same
    applicability rule: only when the raw ring no longer covers the
    window, and only from bins fully inside ``[t0, t1]``.  Consecutive
    bins' ``last_v`` values form the counter's sampled trajectory at
    tier resolution, so their reset-clamped deltas are the increase the
    raw scan would have seen at bin boundaries (increases swallowed by
    an intra-bin reset are lost — rollups keep bin-end values only, so
    the tier answer is a conservative floor, never an overcount).
    Returns ``(total_increase, resolution)`` or ``None``; shared by the
    single-store engine and the federated engine (applied per shard).
    """
    from repro.query.kernels import counter_increase

    earliest = store.earliest_time(key)
    if earliest is None or earliest <= t0:
        return None
    for tier in rollups.tiers:  # finest first: most bin boundaries
        rows = tier.window(key, t0, t1)
        if rows is None or not rows["time"].size:
            continue
        keep = rows["time"] + tier.resolution_s <= t1
        if int(keep.sum()) < 2:  # need >= 2 bin-end values for a delta
            continue
        inc = counter_increase(rows["last_v"][keep])
        return float(np.sum(inc)), tier.resolution_s
    return None


class QueryEngine:
    """Vectorized metric query engine with tiered rollups and caching."""

    def __init__(
        self,
        store: TimeSeriesStore,
        *,
        rollups: Optional[RollupManager] = None,
        cache: Optional[QueryCache] = None,
        enable_cache: bool = True,
        instant_quantum_s: float = 1.0,
    ) -> None:
        self.store = store
        self.rollups = rollups
        self.cache = cache if cache is not None else (QueryCache() if enable_cache else None)
        self.instant_quantum_s = float(instant_quantum_s)
        self.queries_total = 0
        self.samples_total = 0
        self.served_raw = 0
        self.served_rollup = 0
        self._parse_cache: Dict[str, MetricQuery] = {}
        #: the one plan memo: an LRU per query shape, each entry valid for
        #: the series generation it was built at — one-shot drill-downs
        #: age out without taking the dashboard and loop shapes with them
        self._plans: "OrderedDict[MetricQuery, QueryPlan]" = OrderedDict()
        self._expr_cache: Dict[MetricQuery, str] = {}
        self._standing = None

    # -------------------------------------------------------------- public
    def parse(self, expr: str) -> MetricQuery:
        q = self._parse_cache.get(expr)
        if q is None:
            q = self._parse_cache[expr] = parse_query(expr)
        return q

    def query(
        self,
        q: Union[str, MetricQuery],
        *,
        at: float,
        fuse: Optional[bool] = None,
    ) -> QueryResult:
        """Evaluate ``q`` with its window ending at time ``at``.

        ``fuse`` is accepted for interface parity with
        :class:`repro.core.runtime.QueryHub` (monitors can be wired to
        either) and ignored here — the bare engine never widens.
        """
        if isinstance(q, str):
            q = self.parse(q)
        if TRACER.enabled:
            with TRACER.span("engine.query", metric=q.metric, agg=q.agg):
                return self._query(q, at)
        return self._query(q, at)

    def _query(self, q: MetricQuery, at: float) -> QueryResult:
        self.queries_total += 1
        expr = self._expr_cache.get(q)
        if expr is None:
            if len(self._expr_cache) > 4096:
                self._expr_cache.clear()
            expr = self._expr_cache[q] = q.to_expr()
        quantum = q.step_s if q.step_s is not None else self.instant_quantum_s
        cache_key = None
        if self.cache is not None:
            # Version-key on the metric's write epoch: any commit touching
            # this metric mints a new key, so a query issued after new
            # samples landed inside the window can never serve the stale
            # pre-commit tail.  Old-epoch entries age out of the LRU.
            cache_key = QueryCache.make_key(
                expr, at - (q.range_s or 0.0), at, quantum,
                version=self._cache_version(q),
            )
            hit = self.cache.get(cache_key)
            if hit is not None:
                return dataclasses.replace(hit, source="cache")
        if TRACER.enabled:
            with TRACER.span("engine.execute"):
                result = self._execute(q, at)
        else:
            result = self._execute(q, at)
        if self.cache is not None:
            self.cache.put(cache_key, result)
        return result

    def _cache_version(self, q: MetricQuery):
        """Writer-side version of everything ``q``'s result depends on.

        Range results depend only on committed samples (tier stitching
        is bit-identical to a raw scan, so folding never changes them)
        — the metric write epoch suffices.  Instant results can now be
        served from tiers once the ring ages out, so a fold with no
        intervening commit *can* change them: mix the fold counter in.
        """
        epoch = self.store.metric_epoch(q.metric)
        if q.step_s is None and self.rollups is not None:
            return (epoch, self.rollups.folds)
        return epoch

    def scalar(self, q: Union[str, MetricQuery], *, at: float) -> Optional[float]:
        """Convenience: single-series instant value, ``None`` when no data."""
        return self.query(q, at=at).scalar()

    def samples(
        self,
        q: Union[str, MetricQuery],
        *,
        at: float,
        since: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Raw sample extraction through the serving layer (no binning).

        Returns the pooled, time-sorted ``(times, values)`` of every
        sample of the matched series with ``since < t <= at`` (``since``
        exclusive — cursor semantics for marker-style event streams;
        ``None`` means full retention).  The query's aggregator is
        ignored; its metric, matchers, and ``range_s`` define selection
        and the window floor.  This is how loops consume point streams
        (progress markers, transfer logs) via label selection instead of
        reaching into producer objects.
        """
        if isinstance(q, str):
            q = self.parse(q)
        self.samples_total += 1
        keys = self.select(q)
        t1 = float(at)
        t0 = t1 - q.range_s if q.range_s is not None else self._earliest(keys, t1)
        if since is not None:
            t0 = max(t0, since)
        all_t, all_v = [], []
        for key in keys:
            times, values = self.store.query(key, t0, t1)
            if since is not None and times.size and times[0] <= since:
                keep = times > since
                times, values = times[keep], values[keep]
            if times.size:
                all_t.append(times)
                all_v.append(values)
        if not all_t:
            return np.empty(0), np.empty(0)
        times = np.concatenate(all_t)
        values = np.concatenate(all_v)
        if len(all_t) > 1:
            order = np.argsort(times, kind="stable")
            times, values = times[order], values[order]
        return times, values

    def select(self, q: MetricQuery) -> List[SeriesKey]:
        """Series keys matching the query's metric + label matchers, in
        canonical ``str`` order — resolved against the store's label
        index of the metric, so it costs the distinct label values the
        matchers look at plus the keys selected."""
        index = self.store.label_index(q.metric)
        return [index.keys[i] for i in q.positions(index).tolist()]

    def plan(self, q: MetricQuery) -> QueryPlan:
        """The grouped, sid-addressed selection of ``q`` (memoised).

        Rebuilt only when the metric's key set changes — every series
        with data is interned (the store's ``_admit`` is the only ring
        creator), so every selected key has a sid.
        """
        plan = self._plans.get(q)
        if plan is None or plan.generation != self.store.series_generation(q.metric):
            plan = self._plans[q] = self._build_plan(q, self.store.label_index(q.metric))
            if len(self._plans) > _PLANS_MAX:
                self._plans.popitem(last=False)
        self._plans.move_to_end(q)
        return plan

    @staticmethod
    def _build_plan(q: MetricQuery, index: LabelIndex) -> QueryPlan:
        """Group the selection by the index's label codes.

        Codes rise with their values, so a stable lexsort of the
        ``group_by`` code columns puts the groups in sorted-label order
        and leaves each group's members in key order — the ``(group,
        rank)`` order of the plan.
        """
        pos = q.positions(index)
        n = pos.size
        order = np.arange(n)
        new_group = np.zeros(n, dtype=bool)
        new_group[:1] = True
        labels: Tuple[GroupLabels, ...] = ((),) if n else ()
        if q.group_by and n:
            columns = [index.column(name) for name in q.group_by]
            order = np.lexsort([column.codes[pos] for column in reversed(columns)])
            pos = pos[order]
            codes = [column.codes[pos] for column in columns]
            for c in codes:
                new_group[1:] |= c[1:] != c[:-1]
            labels = tuple(
                tuple(
                    (name, column.values[code])
                    for name, column, code in zip(q.group_by, columns, group)
                )
                for group in zip(*(c[new_group].tolist() for c in codes))
            )
        starts = np.flatnonzero(new_group)
        gidx = np.cumsum(new_group) - 1
        rank = np.arange(n) - starts[gidx]
        keys = [index.keys[i] for i in pos.tolist()]
        # the rows of each place back to back, (group, rank) order kept
        places = index.places[pos]
        by_place = np.argsort(places, kind="stable")
        rows = [col[by_place].tolist() for col in (index.sids[pos], gidx, rank, order)]
        shards = []
        lo = 0
        for n_here in np.bincount(places, minlength=index.n_places).tolist():
            shards.append(ShardWork(*(col[lo:lo + n_here] for col in rows)))
            lo += n_here
        fanout = sum(1 for work in shards if work.sids)
        return QueryPlan(
            index.generation, labels, keys, starts.tolist() + [n] if n else [0], shards, fanout
        )

    def standing_provider(self):
        """The one standing-state provider over this engine's store.

        Every :class:`~repro.query.standing.StandingQueryEngine` over
        this engine shares it, so a shape registered twice keeps one
        grid and one ingest listener.
        """
        if self._standing is None:
            self._standing = self._make_standing_provider()
        return self._standing

    def _make_standing_provider(self):
        from repro.query.standing import StoreStandingProvider

        return StoreStandingProvider(self.store)

    def tier_resolutions(self) -> List[float]:
        """Rollup tier resolutions (seconds, finest first); empty if none.

        The serving layer's degrade ladder uses this to pick the
        coarsest tier a request can be downgraded to; exposing it here
        keeps front-door code engine-shape-agnostic (the federated
        engine overrides with its per-shard tier list).
        """
        if self.rollups is None:
            return []
        return [t.resolution_s for t in self.rollups.tiers]

    def stats(self) -> Dict[str, float]:
        out = {
            "queries_total": float(self.queries_total),
            "served_raw": float(self.served_raw),
            "served_rollup": float(self.served_rollup),
        }
        if self.cache is not None:
            out.update({f"cache_{k}": v for k, v in self.cache.stats().items()})
        if self.rollups is not None:
            out.update({f"rollup_{k}": v for k, v in self.rollups.stats().items()})
        return out

    # ----------------------------------------------------------- execution
    def _execute(self, q: MetricQuery, at: float) -> QueryResult:
        plan = self.plan(q)
        t1 = float(at)
        t0 = t1 - q.range_s if q.range_s is not None else self._earliest(plan.keys, t1)

        tier: Optional[RollupTier] = None
        if self.rollups is not None and q.agg in PARTIAL_AGGS and q.step_s is not None:
            tier = self.rollups.tier_for(q.step_s, q.agg)

        series: List[ResultSeries] = []
        tier_res: Optional[float] = None
        for g, labels in enumerate(plan.labels):
            member_keys = plan.keys[plan.bounds[g]:plan.bounds[g + 1]]
            if q.step_s is None:
                times, values, inst_res = self._execute_instant(q, member_keys, t0, t1)
                if inst_res is not None:
                    tier_res = inst_res
            elif q.agg == "rate":
                times, values = self._execute_rate(q, member_keys, t0, t1)
            elif q.agg in PARTIAL_AGGS:
                times, values, group_used_tier = self._execute_partial(
                    q, member_keys, t0, t1, tier
                )
                if group_used_tier and tier is not None:
                    tier_res = tier.resolution_s
            else:  # percentiles: need the full sample distribution
                times, values = self._execute_sampled(q, member_keys, t0, t1)
            if times.size:
                series.append(ResultSeries(labels, _freeze(times), _freeze(values)))

        if tier_res is not None:
            source = f"rollup:{int(tier_res)}s"
            self.served_rollup += 1
        else:
            source = "raw"
            self.served_raw += 1
        return QueryResult(q, t0, t1, tuple(series), source)

    def _earliest(self, keys: Sequence[SeriesKey], t1: float) -> float:
        earliest = t1
        for key in keys:
            first = self.store.earliest_time(key)
            if first is not None and first <= t1:
                earliest = min(earliest, first)
        return earliest

    @staticmethod
    def _grid(t0: float, t1: float, step: float) -> Tuple[float, int]:
        """Absolute-grid-aligned bin layout covering ``[t0, t1]``."""
        first = math.floor(t0 / step)
        last = math.floor(t1 / step)
        return first * step, int(last - first + 1)

    def _raw_window(self, key: SeriesKey, t0: float, t1_excl: float):
        """Raw samples with ``t0 <= t < t1_excl`` (store query is inclusive)."""
        times, values = self.store.query(key, t0, t1_excl)
        if times.size and times[-1] >= t1_excl:
            keep = times < t1_excl
            times, values = times[keep], values[keep]
        return times, values

    def _execute_partial(
        self,
        q: MetricQuery,
        keys: Sequence[SeriesKey],
        t0: float,
        t1: float,
        tier: Optional[RollupTier],
    ) -> Tuple[np.ndarray, np.ndarray, bool]:
        step = q.step_s
        grid_t0, n_bins = self._grid(t0, t1, step)
        t1_excl = grid_t0 + n_bins * step
        # Pool tier rows and raw tails across the whole group before
        # touching the kernels: one add_rows + one add_samples call per
        # group, regardless of how many series it contains.
        row_chunks: List[Dict[str, np.ndarray]] = []
        raw_t_chunks: List[np.ndarray] = []
        raw_v_chunks: List[np.ndarray] = []
        for key in keys:
            cut = grid_t0
            if tier is not None:
                wm = tier.watermark(key)
                if wm is not None:
                    cut = min(max(wm, grid_t0), t1_excl)
                rows = tier.window(key, grid_t0, cut)
                if rows is not None and rows["time"].size:
                    row_chunks.append(rows)
            times, values = self._raw_window(key, cut, t1_excl)
            if times.size:
                raw_t_chunks.append(times)
                raw_v_chunks.append(values)
        partial = PartialBins(n_bins)
        if row_chunks:
            cols = {
                name: np.concatenate([c[name] for c in row_chunks]) for name in row_chunks[0]
            }
            bin_idx = ((cols["time"] - grid_t0) // step).astype(np.int64)
            partial.add_rows(
                bin_idx,
                cols["sum"],
                cols["count"],
                cols["min"],
                cols["max"],
                cols["last_t"],
                cols["last_v"],
            )
        if raw_t_chunks:
            times = np.concatenate(raw_t_chunks)
            values = np.concatenate(raw_v_chunks)
            bin_idx = ((times - grid_t0) // step).astype(np.int64)
            partial.add_samples(bin_idx, times, values)
        nz, vals = partial.finalize(q.agg)
        return grid_t0 + nz * step, vals, bool(row_chunks)

    def _execute_sampled(
        self, q: MetricQuery, keys: Sequence[SeriesKey], t0: float, t1: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        step = q.step_s
        grid_t0, n_bins = self._grid(t0, t1, step)
        t1_excl = grid_t0 + n_bins * step
        all_t, all_v = [], []
        for key in keys:
            times, values = self._raw_window(key, grid_t0, t1_excl)
            if times.size:
                all_t.append(times)
                all_v.append(values)
        if not all_t:
            return np.empty(0), np.empty(0)
        times = np.concatenate(all_t)
        values = np.concatenate(all_v)
        bin_idx = ((times - grid_t0) // step).astype(np.int64)
        nz, vals = grouped_aggregate(bin_idx, values, q.agg, times=times)
        return grid_t0 + nz * step, vals

    def _execute_rate(
        self, q: MetricQuery, keys: Sequence[SeriesKey], t0: float, t1: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-series reset-clamped increases, summed across the group.

        Each increase is attributed to the bin of its *later* sample;
        bin rate = pooled increase / step.
        """
        step = q.step_s
        grid_t0, n_bins = self._grid(t0, t1, step)
        t1_excl = grid_t0 + n_bins * step
        increase = np.zeros(n_bins)
        touched = np.zeros(n_bins, dtype=bool)
        for key in keys:
            times, values = self._raw_window(key, grid_t0, t1_excl)
            if times.size < 2:
                continue
            inc = counter_increase(values)
            bin_idx = ((times[1:] - grid_t0) // step).astype(np.int64)
            increase += np.bincount(bin_idx, weights=inc, minlength=n_bins)
            touched |= np.bincount(bin_idx, minlength=n_bins).astype(bool)
        nz = np.nonzero(touched)[0]
        return grid_t0 + nz * step, increase[nz] / step

    def _execute_instant(
        self, q: MetricQuery, keys: Sequence[SeriesKey], t0: float, t1: float
    ) -> Tuple[np.ndarray, np.ndarray, Optional[float]]:
        """Single-bin aggregate over the inclusive window ``[t0, t1]``.

        The third element is the resolution of the rollup tier that
        served the group, or ``None`` for a raw-served (or empty) group.
        """
        if q.agg == "rate":
            span = t1 - t0
            if span <= 0:
                return np.empty(0), np.empty(0), None
            total = 0.0
            any_delta = False
            for key in keys:
                _, values = self.store.query(key, t0, t1)
                inc = counter_increase(values)
                if inc.size:
                    any_delta = True
                    total += float(np.sum(inc))
            if not any_delta:
                if len(keys) == 1 and self.rollups is not None:
                    # aged-out singleton counter: serve the increase from
                    # rollup tiers, matching the partial-agg tier fallback
                    hit = instant_tier_rate(self.store, self.rollups, keys[0], t0, t1)
                    if hit is not None:
                        total, res = hit
                        return np.array([t0]), np.array([total / span]), res
                return np.empty(0), np.empty(0), None
            return np.array([t0]), np.array([total / span]), None
        all_t, all_v = [], []
        for key in keys:
            times, values = self.store.query(key, t0, t1)
            if times.size:
                all_t.append(times)
                all_v.append(values)
        if not all_t:
            if len(keys) == 1 and q.agg in PARTIAL_AGGS and self.rollups is not None:
                value, res = self._instant_from_tiers(q.agg, keys[0], t0, t1)
                if value is not None:
                    return np.array([t0]), np.array([value]), res
            return np.empty(0), np.empty(0), None
        if q.agg == "last" and len(all_t) == 1:
            # single-series gauge read — the hottest loop-monitor shape;
            # per-series windows are time-sorted, so skip the bin kernel
            return np.array([t0]), np.array([all_v[0][-1]]), None
        times = np.concatenate(all_t)
        values = np.concatenate(all_v)
        _, vals = grouped_aggregate(
            np.zeros(values.size, dtype=np.int64), values, q.agg, times=times
        )
        return np.array([t0]), vals, None

    def _instant_from_tiers(
        self, agg: str, key: SeriesKey, t0: float, t1: float
    ) -> Tuple[Optional[float], Optional[float]]:
        row = instant_tier_partials(self.store, self.rollups, key, t0, t1)
        if row is None:
            return None, None
        if agg == "mean":
            value = row["sum"] / row["count"]
        elif agg == "sum":
            value = row["sum"]
        elif agg == "count":
            value = row["count"]
        elif agg == "min":
            value = row["min"]
        elif agg == "max":
            value = row["max"]
        else:  # last
            value = row["last_v"]
        return value, row["resolution"]

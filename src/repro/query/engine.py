"""The query engine: plan → run on places → gather.

:class:`QueryEngine` is the serving layer between a store and everything
that reads telemetry (analytics facades, MAPE-K loops, dashboards, the
front door).  Every store shape is served by the one algebra below — a
plain :class:`~repro.telemetry.tsdb.TimeSeriesStore` is the one-place
case of a sharded store, the series of each *place* addressed by that
place's own series ids::

    cache probe ─> plan ─> run on places ─> gather ─> QueryResult
                    │          │               │
      QueryPlan per shape,   one pass per    canonical lexsort +
      sid columns per place  touched place   reduceat, partition-free

1. **Cache probe** — canonical expression + quantized window, version-
   keyed on the metric's write epoch (:class:`~repro.query.cache.QueryCache`).
2. **Plan** — label matchers → the grouped, sid-addressed
   :class:`QueryPlan`, built from the store's per-metric
   :class:`~repro.telemetry.tsdb.LabelIndex` (matchers evaluated per
   distinct label value, groups by code columns) and memoised per query
   shape against the store's series generation.  It picks the coarsest
   rollup tier that serves the ``(step, agg)`` pair exactly.
3. **Run on places** — one pass of :mod:`repro.query.passes` per place
   holding any selected series (:meth:`QueryEngine._run_on_shards`):
   per-series partial rows, stitched from the tier below each series'
   fold watermark and the raw tail past it, so a tier-served answer is
   the raw scan's.  Here the passes run in process; the sharded engine
   (:class:`repro.shard.federated.FederatedQueryEngine`) may hand them
   to a worker pool.
4. **Gather** — the rows of every place, concatenated and reduced in one
   canonical order ``(group, bin, last_t, source, rank)`` that does not
   depend on how series are partitioned (:func:`reduce_partial`), so
   every store shape and executor returns bit-identical answers.

Semantics are defined by :mod:`repro.query.model` and mirrored by the
brute-force evaluator in :mod:`repro.query.reference`, which the
property tests hold the engine to.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.trace import TRACER
from repro.query.cache import QueryCache
from repro.query.kernels import PARTIAL_AGGS, grouped_aggregate, segment_bounds
from repro.query.model import MetricQuery
from repro.query.parser import parse_query
from repro.query.passes import SHARD_PASSES, ShardState
from repro.query.rollup import RollupManager, select_tier_index
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import LabelIndex, TimeSeriesStore

GroupLabels = Tuple[Tuple[str, str], ...]

#: Entries each engine memo keeps — plans, parsed expressions, canonical
#: strings — least recently used going first.
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
    source: str  # "raw", "rollup:<res>s", "cache" or "standing"

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


class ShardWork:
    """One place's rows of a :class:`QueryPlan`.

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
    :class:`ShardWork` per place of the store (``fanout`` counts those
    that hold any).
    """

    generation: int
    labels: Tuple[GroupLabels, ...]
    keys: List[SeriesKey]
    bounds: List[int]
    shards: List[ShardWork]
    fanout: int


class _Memo(OrderedDict):
    """The rule of every memo on the read path: an LRU of at most
    ``_PLANS_MAX`` entries, so one-shot ad-hoc shapes age out without
    taking the dashboard and loop shapes with them.  Safe to share
    between threads — the front door parses at submit while its worker
    plans."""

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def put(self, key, value):
        with self._lock:
            self[key] = value
            self.move_to_end(key)
            if len(self) > _PLANS_MAX:
                self.popitem(last=False)
        return value

    def lookup(self, key, make):
        with self._lock:
            value = self.get(key)
            if value is not None:
                self.move_to_end(key)
                return value
        return self.put(key, make(key))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def concat_rows(parts: Sequence[Dict[str, np.ndarray]]) -> Dict[str, np.ndarray]:
    """Column-wise concatenation of row tables with the same columns."""
    if len(parts) == 1:
        return parts[0]
    return {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}


def build_series(
    labels: Sequence[GroupLabels],
    gidx: np.ndarray,
    bins: np.ndarray,
    vals: np.ndarray,
    grid_t0: float,
    step: Optional[float],
) -> List[ResultSeries]:
    """Slice reduced ``(group, bin)`` rows — group-major, bins ascending —
    into one read-only result series per group (bin ``b`` stamped
    ``grid_t0 + b * step``; every bin of an instant query at ``grid_t0``)."""
    times = np.full(bins.size, grid_t0) if step is None else grid_t0 + bins * step
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    # freeze the parents once — the per-group slices are views and
    # inherit read-only
    _freeze(times)
    _freeze(vals)
    starts, ends = segment_bounds(gidx)
    return [
        ResultSeries(labels[g], times[lo:hi], vals[lo:hi])
        for g, lo, hi in zip(gidx[starts].tolist(), starts.tolist(), ends.tolist())
    ]


def reduce_partial(
    parts: Sequence[Dict[str, np.ndarray]],
    agg: str,
    labels: Sequence[GroupLabels],
    grid_t0: float,
    step: Optional[float],
) -> List[ResultSeries]:
    """The gather: partial rows of every place merged into output bins.

    The one canonical ``lexsort`` — ``(group, bin, last_t, source,
    rank)``, every key partition-independent — fixes both the summation
    order (bit-stable across store shapes) and the ``last`` winner
    (latest ``last_t``; ties prefer raw samples over tier rows, then the
    later-ranked series).  Rows that already arrive in canonical order
    with one row per ``(group, bin)`` — one place whose groups are
    single series, such as a one-series instant read — skip the sort:
    every reduction would be the identity.  Batch scatters and standing
    reads both end here.
    """
    parts = [p for p in parts if p["gidx"].size]
    if not parts:
        return []
    cols = concat_rows(parts)
    gidx, bins = cols["gidx"], cols["bin"]
    same = gidx[1:] == gidx[:-1]
    if (gidx[1:] >= gidx[:-1]).all() and not (same & (bins[1:] <= bins[:-1])).any():
        order = starts = ends = None
        out_g, out_b = gidx, bins
    else:
        order = np.lexsort((cols["rank"], cols["source"], cols["last_t"], bins, gidx))
        gidx, bins = gidx[order], bins[order]
        starts, ends = segment_bounds(gidx, bins)
        out_g, out_b = gidx[starts], bins[starts]

    def reduced(ufunc, name: str) -> np.ndarray:
        col = cols[name]
        return col if order is None else ufunc.reduceat(col[order], starts)

    if agg == "mean":
        vals = reduced(np.add, "sum") / reduced(np.add, "count")
    elif agg in ("sum", "count"):
        vals = reduced(np.add, agg)
    elif agg == "min":
        vals = reduced(np.minimum, "min")
    elif agg == "max":
        vals = reduced(np.maximum, "max")
    else:  # last: the segment tail is (newest last_t, then raw, then highest rank)
        vals = cols["last_v"] if order is None else cols["last_v"][order][ends - 1]
    return build_series(labels, out_g, out_b, vals, grid_t0, step)


class QueryEngine:
    """Vectorized metric query engine with tiered rollups and caching.

    Serves one place — the store itself, its rings, its ``rollups`` and
    the standing grids kept beside them — and runs every pass in
    process; :class:`repro.shard.federated.FederatedQueryEngine` is the
    same engine over the places of a sharded store.
    """

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
        #: the stores whose rings the passes read, by place index
        self.places: List[TimeSeriesStore] = [store]
        self.queries_total = 0
        self.samples_total = 0
        self.served_raw = 0
        self.served_rollup = 0
        self.fanout_total = 0
        self._parsed: _Memo = _Memo()
        self._exprs: _Memo = _Memo()
        #: the plan memo, each entry valid for the series generation it
        #: was built at
        self._plans: _Memo = _Memo()
        self._standing = None
        self._fold_task = None

    # -------------------------------------------------------------- places
    @property
    def tiersets(self) -> Optional[List[RollupManager]]:
        """The rollup cascade of each place (``None``: no tiers)."""
        return [self.rollups] if self.rollups is not None else None

    def _shard_state(self, place: int) -> ShardState:
        """This side's view of one place for a pass run in process."""
        tiersets = self.tiersets
        manager = tiersets[place] if tiersets else None
        return ShardState(
            self.places[place].rings,
            manager.dense if manager is not None else None,
            manager.folder if manager is not None else None,
            self._standing.place_grids[place] if self._standing is not None else None,
        )

    def _run_on_shards(self, kind: str, tasks: List[Tuple[int, Dict]]) -> List:
        """Run one pass of ``kind`` on the places of ``tasks`` — ``(place,
        payload)`` pairs — and return their results in task order.  Here
        every pass runs in process; the sharded engine's override may
        hand them to a worker pool."""
        return self._run_here(kind, tasks)

    def _run_here(self, kind: str, tasks: List[Tuple[int, Dict]]) -> List:
        """Run the :data:`~repro.query.passes.SHARD_PASSES` function of
        ``kind`` over this side's view of each task's place, tracing one
        ``<kind>.shard`` span per place."""
        run = SHARD_PASSES[kind]
        results = []
        for place, payload in tasks:
            state = self._shard_state(place)
            if TRACER.enabled:
                with TRACER.span(f"{kind}.shard", shard=place):
                    results.append(run(state, payload))
            else:
                results.append(run(state, payload))
        return results

    # -------------------------------------------------------------- public
    def parse(self, expr: str) -> MetricQuery:
        return self._parsed.lookup(expr, parse_query)

    def query(self, q: Union[str, MetricQuery], *, at: float) -> QueryResult:
        """Evaluate ``q`` with its window ending at time ``at``."""
        if isinstance(q, str):
            q = self.parse(q)
        if TRACER.enabled:
            with TRACER.span("engine.query", metric=q.metric, agg=q.agg):
                return self._query(q, at)
        return self._query(q, at)

    def cached(self, q: MetricQuery, *, at: float) -> Optional[QueryResult]:
        """The cached answer of ``q`` at ``at``, or ``None`` — never
        executes.  Thread-safe without holding off writers: the key
        carries the write epoch read now, so a commit racing the probe
        mints a key no finished execution was stored under.  A miss is
        not counted; the execution that follows counts it."""
        if self.cache is None:
            return None
        hit = self.cache.probe(self._cache_key(q, at))
        return None if hit is None else dataclasses.replace(hit, source="cache")

    def _cache_key(self, q: MetricQuery, at: float) -> tuple:
        # Version-key on the metric's write epoch: any commit touching
        # this metric mints a new key, so a query issued after new
        # samples landed inside the window can never serve the stale
        # pre-commit tail.  Old-epoch entries age out of the LRU.
        quantum = q.step_s if q.step_s is not None else self.instant_quantum_s
        return QueryCache.make_key(
            self._exprs.lookup(q, MetricQuery.to_expr), at - (q.range_s or 0.0), at,
            quantum, version=self._cache_version(q),
        )

    def _query(self, q: MetricQuery, at: float) -> QueryResult:
        self.queries_total += 1
        cache_key = None
        if self.cache is not None:
            cache_key = self._cache_key(q, at)
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
        — the metric write epoch suffices.  Instant results can be
        served from tiers once the ring ages out, so a fold with no
        intervening commit *can* change them: mix the summed fold
        counter in.
        """
        epoch = self.store.metric_epoch(q.metric)
        tiersets = self.tiersets
        if q.step_s is None and tiersets:
            return (epoch, sum(m.folds for m in tiersets))
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
        and the window floor.  Per-series chunks pool in selection order
        before one stable time sort, whatever the partition.  This is
        how loops consume point streams (progress markers, transfer
        logs) via label selection instead of reaching into producer
        objects.
        """
        if isinstance(q, str):
            q = self.parse(q)
        self.samples_total += 1
        plan = self.plan(q)
        t1 = float(at)
        t0 = t1 - q.range_s if q.range_s is not None else self._earliest(plan, t1)
        if since is not None:
            t0 = max(t0, since)
        params = {"t0": t0, "t1": t1, "since": since}
        chunks: List[Tuple[int, np.ndarray, np.ndarray]] = []
        # chunks come back labeled with the selection position, not a group index
        for res in self._scatter("samples", plan, params, label="sel"):
            if res is not None:
                chunks.extend(zip(res["sel"], res["times"], res["values"]))
        if not chunks:
            return np.empty(0), np.empty(0)
        if len(chunks) == 1:
            return chunks[0][1], chunks[0][2]
        chunks.sort(key=lambda c: c[0])
        times = np.concatenate([c[1] for c in chunks])
        values = np.concatenate([c[2] for c in chunks])
        order = np.argsort(times, kind="stable")
        return times[order], values[order]

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
        plan = self._plans.lookup(q, self._new_plan)
        if plan.generation != self.store.series_generation(q.metric):
            plan = self._plans.put(q, self._new_plan(q))
        return plan

    def _new_plan(self, q: MetricQuery) -> QueryPlan:
        return self._build_plan(q, self.store.label_index(q.metric))

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
        """The one standing-state provider of this engine.

        Every :class:`~repro.query.standing.StandingQueryEngine` over
        this engine shares it, so a shape registered twice keeps one
        grid per place and one ingest listener.
        """
        if self._standing is None:
            from repro.query.standing import StandingProvider

            self._standing = StandingProvider(self)
        return self._standing

    # ------------------------------------------------------------- rollups
    def tier_resolutions(self) -> List[float]:
        """Rollup tier resolutions (seconds, finest first); empty if none.

        The serving layer's degrade ladder uses this to pick the
        coarsest tier a request can be downgraded to.
        """
        tiersets = self.tiersets
        return [t.resolution_s for t in tiersets[0].tiers] if tiersets else []

    def fold_rollups(self, now: float) -> int:
        """Fold every place's tiers up to ``now``; returns rows written."""
        tiersets = self.tiersets
        if not tiersets:
            return 0
        res0 = tiersets[0].tiers[0].resolution_s
        task = {"boundary": math.floor(now / res0) * res0}
        for manager in tiersets:
            manager.ensure_sids()
        written = 0
        results = self._run_on_shards("fold", [(s, task) for s in range(len(tiersets))])
        for manager, data in zip(tiersets, results):
            written += data["written"]
            manager.note_fold(data["late"])
        return written

    def attach_rollups(self, engine, period_s: Optional[float] = None, *, start_at=None) -> None:
        """Drive :meth:`fold_rollups` from a simulation engine, one task.

        Behind a collection pipeline ``start_at`` must be at least its
        sample→commit latency, or samples stamped just before a bin
        boundary commit after the fold that closed their bin and are
        dropped as late (see :meth:`RollupManager.attach`).
        """
        if not self.tiersets:
            return
        if self._fold_task is not None and not self._fold_task.stopped:
            raise RuntimeError("engine rollups already attached")
        period = period_s if period_s is not None else self.tier_resolutions()[0]
        self._fold_task = engine.every(
            period, lambda: self.fold_rollups(engine.now), start_at=start_at,
            label="rollup-fold",
        )

    def stats(self) -> Dict[str, float]:
        out = {
            "queries_total": float(self.queries_total),
            "served_raw": float(self.served_raw),
            "served_rollup": float(self.served_rollup),
        }
        if self.cache is not None:
            out.update({f"cache_{k}": v for k, v in self.cache.stats().items()})
        for manager in self.tiersets or ():
            for k, v in manager.stats().items():
                out[f"rollup_{k}"] = out.get(f"rollup_{k}", 0.0) + v
        return out

    # ----------------------------------------------------------- execution
    def _execute(self, q: MetricQuery, at: float) -> QueryResult:
        plan = self.plan(q)
        t1 = float(at)
        t0 = t1 - q.range_s if q.range_s is not None else self._earliest(plan, t1)
        self.fanout_total += plan.fanout
        step = q.step_s
        tier_res = None
        if step is not None:
            grid_t0, n_bins = self._grid(t0, t1, step)
            t1_hi = grid_t0 + n_bins * step  # exclusive right edge
            if q.agg == "rate":
                series = self._rate(plan, grid_t0, t1_hi, step)
            elif q.agg in PARTIAL_AGGS:
                series, tier_res = self._partial(q, plan, grid_t0, t1_hi, step)
            else:
                series = self._sampled(q, plan, grid_t0, t1_hi, step, n_bins)
        elif q.agg == "rate":
            series, tier_res = self._instant_rate(plan, t0, t1)
        elif q.agg in PARTIAL_AGGS:
            series, tier_res = self._partial(q, plan, t0, t1, None)
        else:
            series = self._sampled(q, plan, t0, t1, None, 1)
        if tier_res is not None:
            source = f"rollup:{int(tier_res)}s"
            self.served_rollup += 1
        else:
            source = "raw"
            self.served_raw += 1
        return QueryResult(q, t0, t1, tuple(series), source)

    def _earliest(self, plan: QueryPlan, t1: float) -> float:
        """Oldest retained sample at or before ``t1`` over the planned
        series (``t1`` when there is none): the floor of a window with
        no ``range_s``."""
        earliest = t1
        for place, work in zip(self.places, plan.shards):
            for sid in work.sids:
                first = place.rings.earliest_time(sid)
                if first is not None and first <= t1:
                    earliest = min(earliest, first)
        return earliest

    @staticmethod
    def _grid(t0: float, t1: float, step: float) -> Tuple[float, int]:
        """Absolute-grid-aligned bin layout covering ``[t0, t1]``."""
        first = math.floor(t0 / step)
        last = math.floor(t1 / step)
        return first * step, int(last - first + 1)

    def _scatter(
        self, kind: str, plan: QueryPlan, params: Dict, *,
        singleton: bool = False, label: str = "gidx",
    ) -> List:
        """Run one scatter pass over every touched place; the results of
        the places that hold any of the selection.  Each series goes out
        under its ``label`` column of the plan; ``singleton`` sends along
        which ones are alone in their group (the aged-out instant
        fallbacks serve only those).

        Always exactly one ``federated.scatter`` span per pass (when
        tracing), with per-place ``scatter.shard`` children — however
        and wherever the pass ran.
        """
        alone = None
        if singleton:
            alone = [hi - lo == 1 for lo, hi in zip(plan.bounds, plan.bounds[1:])]
        tasks = [
            (s, {
                "kind": kind,
                "sids": w.sids,
                "gidxs": getattr(w, label),
                "ranks": w.rank,
                "singleton": [alone[g] for g in w.gidx] if singleton else None,
                "params": params,
            })
            for s, w in enumerate(plan.shards) if w.sids
        ]
        if TRACER.enabled:
            with TRACER.span("federated.scatter", kind=kind, fanout=len(tasks)):
                return self._run_on_shards("scatter", tasks)
        return self._run_on_shards("scatter", tasks)

    def _partial(
        self,
        q: MetricQuery,
        plan: QueryPlan,
        grid_t0: float,
        t1_hi: float,
        step: Optional[float],
    ) -> Tuple[List[ResultSeries], Optional[float]]:
        """Partial aggregates: tier rows + raw tails, one gather.  An
        instant read serves a singleton group whose raw ring aged out
        from its place's tiers."""
        instant_tiers = step is None and bool(self.tiersets)
        params = {
            "grid_t0": grid_t0,
            "t1_hi": t1_hi,
            "step": step,
            "tier_idx": select_tier_index(self.tier_resolutions(), step, q.agg),
            "instant_tiers": instant_tiers,
        }
        entries: List[Dict[str, np.ndarray]] = []
        tier_res: Optional[float] = None
        for res in self._scatter("partial", plan, params, singleton=instant_tiers):
            if res is not None:
                entries.extend(res[0])
                if res[1] is not None:
                    tier_res = max(tier_res or 0.0, res[1])
        return reduce_partial(entries, q.agg, plan.labels, grid_t0, step), tier_res

    def _sampled(
        self,
        q: MetricQuery,
        plan: QueryPlan,
        grid_t0: float,
        t1_hi: float,
        step: Optional[float],
        n_bins: int,
    ) -> List[ResultSeries]:
        """Percentiles: pool raw samples per ``(group, bin)`` across places.

        Percentile is a multiset statistic (the kernel value-sorts each
        bin), so pooling order cannot affect the result.
        """
        params = {"grid_t0": grid_t0, "t1_hi": t1_hi, "step": step, "n_bins": n_bins}
        parts = [r for r in self._scatter("sampled", plan, params) if r is not None]
        if not parts:
            return []
        cols = concat_rows(parts)
        nz, vals = grouped_aggregate(cols["comp"], cols["v"], q.agg)
        return build_series(plan.labels, nz // n_bins, nz % n_bins, vals, grid_t0, step)

    def _rate(
        self, plan: QueryPlan, grid_t0: float, t1_hi: float, step: float
    ) -> List[ResultSeries]:
        """Counter rate: per-series reset-clamped increases (each
        attributed to the bin of its later sample), summed per ``(group,
        bin)`` in rank order, over the step."""
        params = {"grid_t0": grid_t0, "t1_hi": t1_hi, "step": step}
        parts = [r for r in self._scatter("rate", plan, params) if r is not None]
        if not parts:
            return []
        cols = concat_rows(parts)
        order = np.lexsort((cols["rank"], cols["bin"], cols["gidx"]))
        gidx, bins = cols["gidx"][order], cols["bin"][order]
        starts, _ = segment_bounds(gidx, bins)
        vals = np.add.reduceat(cols["inc"][order], starts) / step
        return build_series(plan.labels, gidx[starts], bins[starts], vals, grid_t0, step)

    def _instant_rate(
        self, plan: QueryPlan, t0: float, t1: float
    ) -> Tuple[List[ResultSeries], Optional[float]]:
        """Instant rate: per-series increases over ``[t0, t1]`` summed per
        group in rank order, over the window span."""
        span = t1 - t0
        if span <= 0:
            return [], None
        tier_fallback = bool(self.tiersets)
        params = {"t0": t0, "t1": t1, "tier_fallback": tier_fallback}
        parts = []
        tier_res: Optional[float] = None
        for res in self._scatter("instant_rate", plan, params, singleton=tier_fallback):
            if res is not None:
                parts.append(res[0])
                if res[1] is not None:
                    tier_res = max(tier_res or 0.0, res[1])
        if not parts:
            return [], tier_res
        cols = concat_rows(parts)
        order = np.lexsort((cols["rank"], cols["gidx"]))
        gidx = cols["gidx"][order]
        starts, _ = segment_bounds(gidx)
        totals = np.add.reduceat(cols["total"][order], starts)
        return build_series(
            plan.labels, gidx[starts], np.zeros(starts.size, dtype=np.int64),
            totals / span, t0, None,
        ), tier_res

"""The query engine: plan → run on places → gather.

:class:`QueryEngine` is the serving layer between a store and everything
that reads telemetry (analytics facades, MAPE-K loops, dashboards, the
front door).  Every store shape is served by the one algebra below,
through the one store protocol: one ring store (``rings``) whose series
ids fall into ``n_places`` places — id ``sid`` in place ``sid %
n_places``, one place on a plain
:class:`~repro.telemetry.tsdb.TimeSeriesStore` — its one rollup cascade
in ``tiersets`` and the worker pool, if any, in ``pool``::

    memo probe ─> plan ─> run on places ─> gather ─> QueryResult
                    │          │                 │
      QueryPlan per shape,   one pass in       canonical lexsort +
      one sid column block   process; one per  reduceat, partition-free
                             touched place on
                             a live pool

1. **Memo probe** — canonical expression + quantized window, at the
   metric's write version (:class:`_Answers`, the read path's one result memo).
2. **Plan** — label matchers → the grouped, sid-addressed
   :class:`QueryPlan`, built from the store's per-metric
   :class:`~repro.telemetry.tsdb.LabelIndex` (matchers evaluated per
   distinct label value, groups by code columns) and memoised per query
   shape against the store's series generation.  It picks the coarsest
   rollup tier that serves the ``(step, agg)`` pair exactly.
3. **Run on places** — passes of :mod:`repro.query.passes`
   (:meth:`QueryEngine._run_on_shards`): per-series partial rows,
   stitched from the tier below each series' fold watermark and the raw
   tail past it, so a tier-served answer is the raw scan's.  In process
   that is one pass over the plan's rows, whatever the place count; on
   the store's worker pool, while that is live, one pass per place
   holding any selected series — observed, not configured.
4. **Gather** — the rows of every pass, concatenated and reduced in one
   canonical order ``(group, bin, last_t, source, rank)`` that does not
   depend on how series are partitioned (:func:`reduce_partial`), so
   every store shape and executor returns bit-identical answers.

Semantics are defined by :mod:`repro.query.model` and mirrored by the
brute-force evaluator in :mod:`repro.query.reference`, which the
property tests hold the engine to.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.trace import TRACER
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

#: Answers the result memo keeps, least recently used going first.
_ANSWERS_MAX = 512

#: Dispatch result of a task lost to a dead worker.
WORKER_DIED = object()

#: A scatter pass over at most this many series runs in process although
#: a pool is live.  Calibration (E18 ``small_pass_tax``: 1,024 series,
#: 4 shards × 2 workers, no tiers, 2-vCPU host, one in-process pass per
#: query): a pass over 8 / 64 / 512 series costs 0.30 / 0.62 / 2.44 ms
#: here and 1.82 / 2.80 / 5.33 ms through the pool: c ≈ 4.3 µs per
#: series here, and a dispatch adds a fixed F ≈ 1.5 ms (wake two
#: workers, pickle the worklists, unpickle the rows).  W workers on cores
#: of their own save at most c·k·(1 − 1/W), so the pool breaks even no
#: earlier than k = F / (c·(1 − 1/W)): ≈ 700 series at W = 2, ≈ 470 at
#: W = 4; on the 2-vCPU host it loses at every size (×2.2 at 512).  So
#: no pass kept here would have been faster dispatched, and passes of
#: 65–512 series are dispatched at ≥ 2× their cost here: 64 is a floor,
#: not the break-even.  It stays, because moving it changes what
#: ``serve_dash`` reads where (at 256 the parent maps the pool's tier
#: pages too: peak RSS +4 MB for p50 −6 %).  Tests and E18 pin it to 0
#: to send every pass to the pool.
INLINE_SCATTER_SERIES = 64


class ResultSeries:
    """One output series: group labels plus aligned, read-only time/value
    arrays.  A slotted record: a wide result builds thousands per read.
    The series of one result may share one read-only ``times`` array."""

    __slots__ = ("labels", "times", "values")

    def __init__(self, labels: GroupLabels, times: np.ndarray, values: np.ndarray) -> None:
        self.labels = labels
        self.times = times
        self.values = values

    def __repr__(self) -> str:
        return f"ResultSeries({self.labels!r}, {self.times!r}, {self.values!r})"

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


class ShardWork(NamedTuple):
    """The rows of a :class:`QueryPlan`, or of one place of it.

    Parallel int64 columns, in the plan's ``(group, rank)`` order: the
    series id, its group index, its rank within the group and its
    position in :meth:`QueryEngine.select` order — what a pass reads
    every window of with one kernel call, a standing read takes as they
    are and a pool dispatch pickles as arrays.  They are the rows of one
    ``(4, n)`` block: a plan memo holds thousands of these.
    """

    cols: np.ndarray
    sids = property(lambda self: self.cols[0])
    gidx = property(lambda self: self.cols[1])
    rank = property(lambda self: self.cols[2])
    sel = property(lambda self: self.cols[3])


class QueryPlan(NamedTuple):
    """The resolved selection of one query shape, grouped and sid-addressed.

    ``keys`` are the selected series flattened in canonical ``(group,
    rank)`` order — groups by sorted label tuple (``labels``), members
    by ``str`` — and group ``g`` owns ``keys[bounds[g]:bounds[g + 1]]``.
    ``work`` holds the same rows, in the same order, as sid-addressed
    columns; ``fanout`` counts the places of the store that hold any of
    them.  The split by place is derived only where a pool runs a pass
    (:meth:`QueryEngine._places`).
    """

    generation: int
    labels: Tuple[GroupLabels, ...]
    keys: List[SeriesKey]
    bounds: List[int]
    work: ShardWork
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


class _Answer(NamedTuple):
    """A record of the result memo: ``result``, read at the write ``version``."""

    version: Hashable
    result: QueryResult


class _Answers:
    """The read path's one result memo, the engine's: the loops' hub and
    the front door's submit-time probe read it too.

    Staleness comes from the version and nothing else.  A record stands
    for the write version of the data its answer read
    (:meth:`QueryEngine._cache_version`); a commit moves the version, so
    a read after it misses.  Storing an answer at version ``v`` drops its
    expression's records at older versions, which no read can reach any
    more, and keeps nothing behind a newer version: an expression's
    records share one version, and the LRU bound (:data:`_ANSWERS_MAX`)
    caps only records a read can still hit.  Locked: the front door
    probes at submit while its worker stores.
    """

    def __init__(self) -> None:
        #: (canonical expression, first window quantum, last) -> record
        self._records: "OrderedDict[tuple, _Answer]" = OrderedDict()
        self._live: Dict[str, Tuple[Hashable, set]] = {}  # expression -> version, keys
        self._lock = threading.Lock()
        self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._records)

    def probe(self, key: tuple, version, *, miss: int = 0) -> Optional[_Answer]:
        """The record of ``key`` at ``version``, else ``None``: ``miss``
        misses, none for a probe whose caller counts the miss later."""
        with self._lock:
            answer = self._records.get(key)
            if answer is None or answer.version != version:
                self.misses += miss
                return None
            self._records.move_to_end(key)
            self.hits += 1
            return answer

    def put(self, key: tuple, version, result: QueryResult) -> None:
        records = self._records
        with self._lock:
            live = self._live.get(key[0])
            if live is not None and live[0] != version:
                # behind a newer answer: not kept (a store that gains tiers
                # turns an instant read's epochs into (epoch, folds) pairs)
                if type(live[0]) is type(version) and live[0] > version:
                    return
                for old in live[1]:
                    del records[old]
                live = None
            if live is None:
                live = self._live[key[0]] = (version, set())
            records[key] = _Answer(version, result)
            records.move_to_end(key)
            live[1].add(key)
            while len(records) > _ANSWERS_MAX:
                old = records.popitem(last=False)[0]
                keys = self._live[old[0]][1]
                keys.discard(old)
                if not keys:
                    del self._live[old[0]]
                self.evictions += 1

    def stats(self) -> Dict[str, float]:
        lookups = self.hits + self.misses
        return {
            "entries": float(len(self._records)), "hits": float(self.hits),
            "misses": float(self.misses), "evictions": float(self.evictions),
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _Concatenated(dict):
    """Row tables with the same columns, joined column by column on first
    read: a gather reads few of the columns a pass returns."""

    def __init__(self, parts: Sequence[Dict[str, np.ndarray]]) -> None:
        super().__init__()
        self._parts = parts

    def __missing__(self, name: str) -> np.ndarray:
        col = self[name] = np.concatenate([p[name] for p in self._parts])
        return col


def concat_rows(parts: Sequence[Dict[str, np.ndarray]]) -> Dict[str, np.ndarray]:
    """Column-wise concatenation of row tables with the same columns."""
    if len(parts) == 1:
        return parts[0]
    return _Concatenated(parts)


def build_series(
    labels: Sequence[GroupLabels],
    gidx: np.ndarray,
    bins: np.ndarray,
    vals: np.ndarray,
    grid_t0: float,
    step: Optional[float],
) -> List[ResultSeries]:
    """Split reduced ``(group, bin)`` rows — group-major, bins ascending —
    into one read-only result series per group (bin ``b`` stamped
    ``grid_t0 + b * step``; every bin of an instant query at ``grid_t0``).

    A dense result — every group holding the same bins, as a fleet-wide
    read of live series does — is built from the rows of one ``(group,
    bin)`` values block over one shared ``times`` (:func:`dense_series`);
    any other is sliced group by group (:func:`sliced_series`).
    """
    if gidx.size == 0:
        return []
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    dense = dense_series(labels, gidx, bins, vals, grid_t0, step)
    return dense if dense is not None else sliced_series(labels, gidx, bins, vals, grid_t0, step)


def dense_series(labels, gidx, bins, vals, grid_t0, step) -> Optional[List[ResultSeries]]:
    """:func:`build_series` of rows in which every group holds the same
    bins — row views of one frozen values block, one frozen ``times``
    shared by every series — or ``None`` when the groups differ."""
    n = gidx.size
    width = int(np.argmax(gidx != gidx[0])) or n  # rows of the first group
    if n % width:
        return None
    g2, b2 = gidx.reshape(-1, width), bins.reshape(-1, width)
    if not ((g2 == g2[:, :1]).all() and (b2 == b2[0]).all()):
        return None
    times = np.full(width, grid_t0) if step is None else grid_t0 + b2[0] * step
    return block_series(map(labels.__getitem__, g2[:, 0].tolist()), times, vals.reshape(-1, width))


def block_series(labels, times: np.ndarray, rows: np.ndarray) -> List[ResultSeries]:
    """One read-only result series per row of the values block ``rows``,
    labels in row order, all over one ``times``."""
    return list(map(ResultSeries, labels, itertools.repeat(_freeze(times)), _freeze(rows)))


def sliced_series(labels, gidx, bins, vals, grid_t0, step) -> List[ResultSeries]:
    """:func:`build_series` group by group: slices of one frozen
    ``times`` and one frozen ``vals`` (views inherit read-only)."""
    times = _freeze(np.full(gidx.size, grid_t0) if step is None else grid_t0 + bins * step)
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
    """The gather: partial rows of every pass merged into output bins.

    The one canonical ``lexsort`` — ``(group, bin, last_t, source,
    rank)``, every key partition-independent — fixes both the summation
    order (bit-stable across store shapes) and the ``last`` winner
    (latest ``last_t``; ties prefer raw samples over tier rows, then the
    later-ranked series).  Rows that arrive with one row per ``(group,
    bin)`` in canonical order — one pass whose groups are single series,
    such as a one-series instant read, or several such places' passes
    once a stable sort by group has merged their runs — skip the sort:
    every reduction would be the identity.  Batch scatters end here, and
    so does a standing read whose block is not one dense answer.
    """
    parts = [p for p in parts if p["gidx"].size]
    if not parts:
        return []
    cols = concat_rows(parts)
    gidx, bins = cols["gidx"], cols["bin"]
    order = None if len(parts) == 1 else np.argsort(gidx, kind="stable")
    if order is not None:
        gidx, bins = gidx[order], bins[order]
    same = gidx[1:] == gidx[:-1]
    if (gidx[1:] >= gidx[:-1]).all() and not (same & (bins[1:] <= bins[:-1])).any():
        starts = ends = None
        out_g, out_b = gidx, bins
    else:
        keys = ("rank", "source", "last_t", "bin", "gidx")
        order = np.lexsort([cols[name] for name in keys])
        gidx, bins = cols["gidx"][order], cols["bin"][order]
        starts, ends = segment_bounds(gidx, bins)
        out_g, out_b = gidx[starts], bins[starts]

    def reduced(ufunc, name: str) -> np.ndarray:
        col = cols[name] if order is None else cols[name][order]
        return col if starts is None else ufunc.reduceat(col, starts)

    if agg == "mean":
        vals = reduced(np.add, "sum") / reduced(np.add, "count")
    elif agg in ("sum", "count"):
        vals = reduced(np.add, agg)
    elif agg == "min":
        vals = reduced(np.minimum, "min")
    elif agg == "max":
        vals = reduced(np.maximum, "max")
    else:  # last: the segment tail is (newest last_t, then raw, then highest rank)
        last_v = cols["last_v"] if order is None else cols["last_v"][order]
        vals = last_v if ends is None else last_v[ends - 1]
    return build_series(labels, out_g, out_b, vals, grid_t0, step)


class QueryEngine:
    """Vectorized metric query engine with tiered rollups and caching.

    Serves whatever store it is given through the store's protocol: its
    rings and ``n_places`` (the places its passes split a selection
    into), its rollup cascade (``store.tiersets``, ``None`` without
    tiers) and the worker pool that may run its passes (``store.pool``)
    — all observed, none configured here.
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        *,
        enable_cache: bool = True,
        instant_quantum_s: float = 1.0,
    ) -> None:
        self.store = store
        #: the result memo (``None``: every read executes)
        self.cache = _Answers() if enable_cache else None
        self.instant_quantum_s = float(instant_quantum_s)
        self.queries_total = 0
        self.samples_total = 0
        self.served_raw = 0
        self.served_rollup = 0
        self.fanout_total = 0
        #: passes the pool ran, by kind; passes it should have run and
        #: (partly) could not; scatters kept in process for their size
        self.pool_passes: Counter = Counter()
        self.serial_fallbacks = 0
        self.inline_by_size = 0
        self._parsed: _Memo = _Memo()
        self._exprs: _Memo = _Memo()
        #: the plan memo, each entry valid for the series generation it
        #: was built at
        self._plans: _Memo = _Memo()
        self._standing = None
        self._fold_task = None

    @classmethod
    def with_rollups(
        cls,
        store: TimeSeriesStore,
        *,
        resolutions: Sequence[float] = (10.0, 60.0, 600.0),
        capacity: int = 4096,
        **kwargs,
    ) -> "QueryEngine":
        """Give the store its rollup tiers, build the engine."""
        store.create_tiersets(resolutions, tier_capacity=capacity)
        return cls(store, **kwargs)

    # -------------------------------------------------------------- places
    @property
    def tiersets(self) -> Optional[List[RollupManager]]:
        """The store's rollup cascade, a one-entry list (``None``: no tiers)."""
        return self.store.tiersets

    @property
    def parallel_scatters(self) -> int:
        """Scatter passes the worker pool ran."""
        return self.pool_passes["scatter"]

    @property
    def parallel_folds(self) -> int:
        """Fold passes the worker pool ran."""
        return self.pool_passes["fold"]

    def _run_on_shards(self, kind: str, task: Callable, work: Optional[ShardWork] = None):
        """Run one pass of ``kind`` over the plan rows ``work`` (``None``:
        a fold, which reads none), ``task`` building a payload from rows.
        Returns the ``(place, rows)`` parts the pass ran as and their
        results — one part, place ``None``, where it ran here whole.

        The one place that decides who runs a pass, before it builds a
        task, from what it observes: the store's pool and the size of
        the pass.  With no pool, a pool that is not active, or a scatter
        over no more than :data:`INLINE_SCATTER_SERIES` series (which a
        round trip would cost more than it reads), the
        :data:`~repro.query.passes.SHARD_PASSES` function runs here once
        over the plan's rows in ``(group, rank)`` order: one part for
        the gather, in canonical order, and no split by place.  While
        the pool is live it is one task per touched place (a fold: one
        per worker) dispatched to the owning workers; the tasks of a
        worker that died with its reply (the pool breaks, or respawns
        it) re-run here, place by place.  Reads are idempotent, a re-run
        fold is skipped tier by tier by its watermarks, and parent state
        is authoritative throughout.  A pass the pool could not run,
        wholly or in part, counts once in ``serial_fallbacks``; one kept
        here for its size counts in ``inline_by_size`` instead and never
        looks at the pool, so a dead worker is noticed at the next
        dispatched pass, not at the next small read.  The pass traces as
        one ``<kind>.shard`` span per part.
        """
        if work is not None and not work.sids.size:
            return [], []
        pool = self.store.pool
        if pool is not None and kind == "scatter" and work.sids.size <= INLINE_SCATTER_SERIES:
            self.inline_by_size += 1
        elif pool is not None and pool.active:
            if work is None:
                parts = [(place, None) for place in range(min(self.store.n_places, pool.n_workers))]
            else:
                parts = self._places(work)
            tasks = [(place, task(rows)) for place, rows in parts]
            results = pool.dispatch([(place, kind, payload) for place, payload in tasks])
            here = [i for i, data in enumerate(results) if data is WORKER_DIED]
            if here:
                self.serial_fallbacks += 1
                for i, data in zip(here, self._run_here(kind, [tasks[i] for i in here])):
                    results[i] = data
            else:
                self.pool_passes[kind] += 1
            return parts, results
        elif pool is not None:
            self.serial_fallbacks += 1
        return [(None, work)], self._run_here(kind, [(None, task(work))])

    def _places(self, work: ShardWork) -> List[Tuple[int, ShardWork]]:
        """The rows of ``work`` by place — ``(place, rows)`` for each
        place holding any, each one's rows in the order they had."""
        places = work.sids % self.store.n_places
        return [
            (place, ShardWork(work.cols.compress(places == place, axis=1)))
            for place in np.flatnonzero(np.bincount(places)).tolist()
        ]

    def _run_here(self, kind: str, tasks: List[Tuple[Optional[int], Dict]]) -> List:
        """Run the :data:`~repro.query.passes.SHARD_PASSES` function of
        ``kind`` over this side's view of the store — the same rings,
        tiers, folder and standing grids serve every place — tracing one
        ``<kind>.shard`` span per ``(place, payload)`` task."""
        run = SHARD_PASSES[kind]
        manager = self.tiersets[0] if self.tiersets else None
        state = ShardState(
            self.store.rings,
            manager.dense if manager is not None else None,
            manager.folder if manager is not None else None,
            self._standing.grids if self._standing is not None else None,
        )
        results = []
        for place, payload in tasks:
            if TRACER.enabled:
                with TRACER.span(f"{kind}.shard", **({} if place is None else {"shard": place})):
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
        """The memo's answer of ``q`` at ``at``, or ``None`` — never
        executes.  Thread-safe without holding off writers: the version
        is read now, so a commit racing the probe asks for a version no
        finished execution was stored at.  A miss is not counted; the
        execution that follows counts it."""
        if self.cache is None:
            return None
        hit = self.cache.probe(*self._cache_key(q, at))
        return None if hit is None else dataclasses.replace(hit.result, source="cache")

    def _cache_key(self, q: MetricQuery, at: float) -> Tuple[tuple, Hashable]:
        """The memo key of ``q`` at ``at`` — canonical expression and
        window quantized to the step (an instant read's to
        ``instant_quantum_s``), so reads within one quantum share a
        record — and the version its answer is read at."""
        quantum = q.step_s or self.instant_quantum_s or 1.0
        expr = self._exprs.lookup(q, MetricQuery.to_expr)
        t0 = at - (q.range_s or 0.0)
        return (expr, int(t0 // quantum), int(at // quantum)), self._cache_version(q)

    def _query(self, q: MetricQuery, at: float) -> QueryResult:
        self.queries_total += 1
        cache = self.cache
        if cache is not None:
            key, version = self._cache_key(q, at)
            hit = cache.probe(key, version, miss=1)
            if hit is not None:
                return dataclasses.replace(hit.result, source="cache")
        if TRACER.enabled:
            with TRACER.span("engine.execute"):
                result = self._execute(q, at)
        else:
            result = self._execute(q, at)
        if cache is not None:
            cache.put(key, version, result)
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
        # samples come back labeled with the selection position, not a group index
        parts = [r for r in self._scatter("samples", plan, params, label="sel") if r is not None]
        if not parts:
            return np.empty(0), np.empty(0)
        cols = concat_rows(parts)
        # by time, ties in selection order, then in window order
        order = np.lexsort((cols["sel"], cols["times"]))
        return cols["times"][order], cols["values"][order]

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
        work = ShardWork(np.stack([index.sids[pos], gidx, rank, order]))
        fanout = int(np.count_nonzero(np.bincount(index.places[pos], minlength=index.n_places)))
        return QueryPlan(
            index.generation, labels, keys, starts.tolist() + [n] if n else [0], work, fanout
        )

    def standing_provider(self):
        """The one standing-state provider of this engine.

        Every :class:`~repro.query.standing.StandingQueryEngine` over
        this engine shares it, so a shape registered twice keeps one
        grid and one ingest listener.
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
        """Fold the tiers up to ``now``; returns rows written.  One fold
        pass per folder: in process one covers every place, beside a pool
        each worker's covers the places it owns — place ``w`` is worker
        ``w``'s for every ``w`` below the worker count."""
        tiersets = self.tiersets
        if not tiersets:
            return 0
        [manager] = tiersets
        res0 = manager.tiers[0].resolution_s
        task = {"boundary": math.floor(now / res0) * res0}
        manager.ensure_sids()
        _, results = self._run_on_shards("fold", lambda _: task)
        manager.note_fold(sum(data["late"] for data in results))
        return sum(data["written"] for data in results)

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
        if self.store.n_places > 1:
            executed = self.served_raw + self.served_rollup
            out["shards"] = float(self.store.n_places)
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
        rings = self.store.rings
        firsts = (rings.earliest_time(sid) for sid in plan.work.sids.tolist())
        return min([t1, *(first for first in firsts if first is not None)])

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
        """Run one scatter pass over the plan's rows; the result of each
        part it ran as.  Each series goes out
        under its ``label`` column of the plan; ``singleton`` sends along
        which ones are alone in their group (the aged-out instant
        fallbacks serve only those).

        Always exactly one ``federated.scatter`` span per pass (when
        tracing), with ``scatter.shard`` children — one in process, one
        per touched place on a live pool.
        """
        alone = np.diff(plan.bounds) == 1 if singleton else None

        def task(w: ShardWork) -> Dict:
            singles = alone[w.gidx] if singleton else None
            return {"kind": kind, "sids": w.sids, "gidxs": getattr(w, label), "ranks": w.rank,
                    "singleton": singles, "params": params}

        if TRACER.enabled:
            with TRACER.span("federated.scatter", kind=kind, fanout=plan.fanout):
                return self._run_on_shards("scatter", task, plan.work)[1]
        return self._run_on_shards("scatter", task, plan.work)[1]

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

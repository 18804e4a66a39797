"""The unified autonomy-loop runtime.

The paper's contribution is not any single feedback loop but a framework
for running *many* concurrent loops over shared monitoring data with
trust controls.  This module is that control plane:

* :class:`LoopSpec` — a declarative description of one loop: name,
  priority, period, Monitor phase as a list of
  :class:`~repro.query.model.MetricQuery` expressions (plus a builder
  that turns their results into an
  :class:`~repro.core.types.Observation`), factories for the
  Analyze/Plan/Execute components, guards, and phase latencies.
* :class:`QueryHub` — the shared Monitor-phase serving layer: every
  loop's reads go through one vectorized
  :class:`~repro.query.engine.QueryEngine` and its version-keyed result
  memo.  Whether a read is shared is decided inline: once
  two different narrow selections of one widened shape (see
  :mod:`repro.query.fuse`) are read at the same tick, the rest of the
  tick is served from one widened execution, so a fleet of N
  per-partition loops costs two executions per tick instead of N
  ad-hoc store scans; with standing queries on, the standing engine's
  promotion rule turns such a shape into incrementally maintained state.
  A warm read is O(its own rows).  There is no fusion flag and no
  tuning loop — a lone reader is never widened.
* :class:`LoopRuntime` — instantiates specs into
  :class:`~repro.core.loop.MAPEKLoop` instances, multiplexes them on the
  simulation engine in tick cohorts with priority ordering
  (higher-priority loops run first on shared ticks) and deterministic
  phase jitter, arbitrates conflicting plans through the shared
  :class:`~repro.core.arbiter.PlanArbiter`, and publishes per-loop
  self-telemetry (``loop_iteration_ms``, ``loop_actions_total``,
  ``loop_vetoes_total``, ``loop_staleness_s``) back into the
  :class:`~repro.telemetry.tsdb.TimeSeriesStore` — loops are themselves
  monitorable through the same query path they monitor with.  The rows
  of every loop finishing at one instant are committed together, as one
  ``store.insert_many`` after the instant's other events; a read through
  the hub commits the rows staged so far first, so hub readers see them
  at once.  Only a direct read of the store in the middle of an instant
  can miss them.
"""

from __future__ import annotations

import sys
import zlib
from bisect import bisect_left
from operator import itemgetter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.arbiter import ArbiterGuard, PlanArbiter, ResourceKey, default_resource_keys
from repro.core.audit import AuditTrail
from repro.core.component import Analyzer, Assessor, Executor, Monitor, Planner
from repro.core.guards import Guard
from repro.core.knowledge import KnowledgeBase
from repro.core.loop import MAPEKLoop, PhaseLatency
from repro.core.types import Action, LoopIteration, Observation
from repro.obs.flight import FLIGHT
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACER
from repro.query.engine import _PLANS_MAX, QueryEngine, QueryResult, _Memo
from repro.query.fuse import fusable, widen
from repro.query.model import MetricQuery
from repro.query.standing import StandingQueryEngine
from repro.sim.engine import Engine, Event, PeriodicTask
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

__all__ = [
    "LoopHandle",
    "LoopRuntime",
    "LoopSpec",
    "MonitorQuery",
    "QueryHub",
    "QueryMonitor",
    "RuntimeConfig",
]

#: the self-telemetry series of one iteration, in publication order
_LOOP_SERIES = (
    "loop_iteration_ms", "loop_actions_total", "loop_vetoes_total", "loop_staleness_s",
)

#: engine events order by ``(time, priority, seq)``: nothing at an
#: instant runs after an event of this priority scheduled before it
_LAST = sys.maxsize

#: the cohort key of every hosted loop's ticks
_COHORT = "loop-tick"


# ---------------------------------------------------------------------------
# Shared Monitor-phase serving layer


class _Shape:
    """A widened shape and its tick memo at the hub's tick ``at`` (else ``None``):
    the first narrow reader (``None`` once another read it) and, once widened, the
    result with its write ``version`` (``None``: not for reuse), generation and, for
    an engine answer, the ``key`` of its record in the engine's result memo."""

    __slots__ = ("query", "at", "first", "version", "generation", "wide", "key")

    def __init__(self, query: MetricQuery) -> None:
        self.query, self.at, self.wide = query, None, None


class _Read:
    """A query prepared for the hub: its :class:`_Shape` (if fusable) and narrowing take."""

    __slots__ = ("query", "shape", "generation", "n_groups", "take", "labels")

    def __init__(self, query: MetricQuery, shape: Optional[_Shape]) -> None:
        self.query, self.shape, self.generation = query, shape, None


class QueryHub:
    """One query front-end shared by every loop the runtime hosts.

    Every sharing decision is made inline, from what the hub sees at one
    evaluation time, for a *fusable* narrow query (matchers ⊆ group_by —
    see :mod:`repro.query.fuse`) and its widened shape:

    * once a *different* narrow query of the same shape was read at this
      ``at``, the read is shared: it is answered by narrowing the widened
      result, which is read once per tick (see the tick memo below).  A
      first or lone reader executes directly — an unshared widened
      execution would cost a full-metric pass for a narrow answer — and
      so does every read of an uncached engine, where widening would
      never be shared;
    * with a :class:`~repro.query.standing.StandingQueryEngine`, shared
      reads also go to it, and its one promotion rule decides when the
      shape is hot enough to maintain incrementally; from then on every
      read of the shape is served from standing state.

    The tick memo (:class:`_Shape`, ``_PLANS_MAX`` shapes of one ``at`` at
    most) keeps a shape's first widened answer at ``at`` with its write
    version: a later reader at ``at`` takes its rows from it, as the hit
    it replaces, while no write (a new series too) moved the version and
    its owner still holds it — the engine's result memo, whose record the
    shape looks up again by key (the memo counts the hit), or standing,
    as its snapshot.
    :class:`QueryMonitor` hands in prepared reads (:class:`_Read`).

    The hub exposes the same read surface monitors already use
    (``query`` / ``scalar`` / ``samples`` / ``parse`` / ``store``), so
    existing telemetry-backed monitors run through it unchanged.

    Writes can go through it too: rows :meth:`stage`\\ d at one instant
    are committed as one keyed columnar write by :meth:`flush` — which a
    read through the hub calls first when it reads a metric with staged
    rows, so a hub read sees every row staged before it.
    """

    def __init__(self, engine: QueryEngine, *, standing=None) -> None:
        self.engine = engine
        self.store = engine.store
        self.standing = standing
        self.fused_served = 0
        self.direct_served = 0
        self.standing_served = 0
        #: query -> its :class:`_Read`; widened shape -> its :class:`_Shape`
        self._reads = _Memo()
        self._shapes = _Memo()
        #: the evaluation time of the tick memo and the shapes read at it
        self._tick_at: Optional[float] = None
        self._tick: List[_Shape] = []
        #: rows staged at ``_staged_at`` and not committed yet, and their metrics
        self._staged_at: Optional[float] = None
        self._staged_keys: List[SeriesKey] = []
        self._staged_values: List[float] = []
        self._staged_metrics: set = set()

    def parse(self, expr: str) -> MetricQuery:
        return self.engine.parse(expr)

    # -------------------------------------------------------------- writes
    def stage(self, keys: Sequence[SeriesKey], values: Sequence[float], *, at: float) -> None:
        """Queue the rows ``(keys[i], at, values[i])`` for the next
        :meth:`flush`.  Rows of an earlier instant are flushed first."""
        if at != self._staged_at:
            self.flush()
            self._staged_at = at
        self._staged_keys.extend(keys)
        self._staged_values.extend(values)
        self._staged_metrics.update(key.metric for key in keys)

    def flush(self) -> None:
        """Commit the staged rows with one ``store.insert_many``."""
        keys = self._staged_keys
        if keys:
            values = self._staged_values
            self._staged_keys, self._staged_values = [], []
            self._staged_metrics.clear()
            self.store.insert_many(keys, np.full(len(keys), self._staged_at), values)

    # --------------------------------------------------------------- reads
    def _read(self, q: MetricQuery) -> _Read:
        """The prepared read of ``q``; the reads of one shape share its state."""
        return self._reads.lookup(
            q, lambda q: _Read(q, self._shapes.lookup(widen(q), _Shape) if fusable(q) else None)
        )

    def query(self, q: Union[str, MetricQuery, _Read], *, at: float) -> QueryResult:
        """Evaluate ``q`` at ``at``, sharing the read when the tick does."""
        if not isinstance(q, _Read):
            q = self._read(self.engine.parse(q) if isinstance(q, str) else q)
        if q.query.metric in self._staged_metrics:
            self.flush()
        if TRACER.enabled:
            with TRACER.span("hub.query", metric=q.query.metric):
                return self._query(q, at)
        return self._query(q, at)

    def _query(self, read: _Read, at: float) -> QueryResult:
        q, shape = read.query, read.shape
        if shape is not None:
            # shared once another narrow query of the shape was read at
            # ``at``: loops spread by phase jitter read alone
            if shape.at != at:  # the tick's first reader of the shape
                if at != self._tick_at or len(self._tick) >= _PLANS_MAX:
                    for kept in self._tick:  # release the last tick's answers
                        kept.at = kept.wide = None
                    self._tick, self._tick_at = [], at
                self._tick.append(shape)
                shape.at, shape.first, shape.version = at, q, None
            elif shape.first is not None and shape.first != q:
                shape.first = None
            shared = shape.first is None
            wq, standing = shape.query, self.standing
            if shape.version is not None:
                version = self.engine._cache_version(wq)
                if shape.key is not None:  # the engine memo's record, looked up again
                    hit = self.engine.cache.probe(shape.key, version)
                    if hit is not None:
                        self.fused_served += 1
                        return self._narrow(read, hit.result, "fused+cache", shape.generation)
                elif shape.version == version and (
                    standing._snaps.get(wq, (None, None))[1] is shape.wide  # not dropped
                ):
                    standing.snapshot_hits += 1
                    self.standing_served += 1
                    return self._narrow(read, shape.wide, "fused+standing", shape.generation)
            if standing is not None and (shared or wq in standing.shapes):
                version = self.engine._cache_version(wq)
                wide = standing.query(wq, at=at)
                if wide is not None:
                    self.standing_served += 1
                    return self._keep(read, version, wide, "fused+standing")
            if shared and self.engine.cache is not None:
                self.fused_served += 1
                key, version = self.engine._cache_key(wq, at)
                wide = self.engine.query(wq, at=at)
                if standing is not None and wq in standing.shapes:
                    version = None  # a standing fallback: the next reader tries standing again
                return self._keep(read, version, wide, f"fused+{wide.source}", key)
        self.direct_served += 1
        return self.engine.query(q, at=at)

    def _keep(self, read: _Read, version, wide: QueryResult, source: str, key=None):
        """Keep ``wide`` at ``version`` for the shape's later readers (``key``:
        of its engine memo record, ``None`` for a standing answer); narrow it."""
        shape, generation = read.shape, self.store.series_generation(read.query.metric)
        shape.version, shape.generation, shape.wide, shape.key = version, generation, wide, key
        return self._narrow(read, wide, source, generation)

    def _narrow(self, read: _Read, wide: QueryResult, source: str, generation: int):
        """Select ``read``'s series from the widened result.

        Equivalent to :func:`repro.query.fuse.narrow_result`, with the
        matchers evaluated once per series generation (:meth:`_place`).  A
        widened result with a series for every group of its plan holds
        group ``g`` at position ``g``, so a read is one take of its
        positions, O(its own series) however wide the fleet.  A result
        missing some group is indexed by label on the spot.
        """
        if read.generation != generation:
            self._place(read, generation)
        series = wide.series
        if len(series) == read.n_groups:
            kept = read.take(series)
        else:  # a group without rows: positions shift
            index = {s.labels: i for i, s in enumerate(series)}
            kept = tuple(series[index[lab]] for lab in read.labels if lab in index)
        return QueryResult(read.query, wide.t0, wide.t1, kept, source)

    def _place(self, read: _Read, generation: int) -> None:
        """Resolve the positions of ``read``'s groups — the labels of its
        plan — among its widened shape's at ``generation``: both plans
        list their group labels sorted, so each is found by bisection."""
        wide = self.engine.plan(read.shape.query).labels
        labels = self.engine.plan(read.query).labels
        at = [bisect_left(wide, lab) for lab in labels]
        kept = [i for i, lab in zip(at, labels) if i < len(wide) and wide[i] == lab]
        # one C call: a tuple of two or more positions, else a tuple slice
        one = slice(kept[0], kept[0] + 1) if kept else slice(0)
        read.take = itemgetter(*kept) if len(kept) > 1 else itemgetter(one)
        read.n_groups, read.labels, read.generation = len(wide), labels, generation

    def scalar(self, q: Union[str, MetricQuery], *, at: float) -> Optional[float]:
        return self.query(q, at=at).scalar()

    def samples(
        self, q: Union[str, MetricQuery], *, at: float, since: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        if isinstance(q, str):
            q = self.engine.parse(q)
        if q.metric in self._staged_metrics:
            self.flush()
        return self.engine.samples(q, at=at, since=since)

    def stats(self) -> Dict[str, float]:
        out = {
            "fused_served": float(self.fused_served),
            "direct_served": float(self.direct_served),
            "standing_served": float(self.standing_served),
        }
        if self.standing is not None:
            out.update({f"standing_{k}": v for k, v in self.standing.stats().items()})
        out.update({f"engine_{k}": v for k, v in self.engine.stats().items()})
        return out


# ---------------------------------------------------------------------------
# Declarative monitors


@dataclass(frozen=True)
class MonitorQuery:
    """One named read in a spec's Monitor phase.

    ``mode="query"`` evaluates through the hub (shared + cached);
    ``mode="samples"`` extracts raw points with cursor semantics — each
    observation sees only samples newer than the previous one (marker
    streams, transfer logs).
    """

    slot: str
    query: Union[str, MetricQuery]
    mode: str = "query"

    def __post_init__(self) -> None:
        if self.mode not in ("query", "samples"):
            raise ValueError(f"unknown MonitorQuery mode {self.mode!r}")


#: What a spec's ``build_observation`` receives: ``slot →`` either a
#: :class:`QueryResult` (mode ``"query"``) or a ``(times, values)`` pair
#: (mode ``"samples"``).  The reserved ``"_memory"`` slot is a mutable
#: per-monitor dict that survives across cycles — builders needing state
#: (e.g. last-seen marker) keep it there, NOT in their spec closure, so
#: a spec stays instantiable more than once without state bleeding.
MonitorInputs = Mapping[str, object]

ObservationBuilder = Callable[[float, MonitorInputs], Optional[Observation]]


class QueryMonitor(Monitor):
    """Monitor phase defined entirely by declarative queries.

    Evaluates each :class:`MonitorQuery` through the shared hub and
    hands the results to the spec's builder.  Besides its reads, prepared
    when it is built, it holds only the per-slot sample cursors.
    """

    def __init__(
        self,
        name: str,
        queries: Sequence[MonitorQuery],
        build: ObservationBuilder,
        hub: QueryHub,
    ) -> None:
        self.name = name
        #: ``(slot, mode, read)``: a samples query as it is, any other prepared
        self.queries = []
        for mq in queries:
            q = hub.parse(mq.query) if isinstance(mq.query, str) else mq.query
            self.queries.append((mq.slot, mq.mode, q if mq.mode == "samples" else hub._read(q)))
        self.build = build
        self.hub = hub
        self._cursors: Dict[str, float] = {}
        self._memory: Dict[str, object] = {}

    def observe(self, now: float) -> Optional[Observation]:
        inputs: Dict[str, object] = {"_memory": self._memory}
        advanced: Dict[str, float] = {}
        for slot, mode, read in self.queries:
            if mode == "samples":
                times, values = self.hub.samples(read, at=now, since=self._cursors.get(slot))
                if times.size:
                    advanced[slot] = float(times[-1])
                inputs[slot] = (times, values)
            else:
                inputs[slot] = self.hub.query(read, at=now)
        observation = self.build(now, inputs)
        if observation is not None:
            # commit cursors only for delivered observations — a builder
            # that declines the cycle must see the same samples again next
            # tick, matching the legacy check-then-read monitor contract
            self._cursors.update(advanced)
        return observation


# ---------------------------------------------------------------------------
# Loop specification


@dataclass
class LoopSpec:
    """Declarative description of one autonomy loop.

    The Monitor phase is either declarative (``queries`` +
    ``build_observation``) or, for monitors whose query set is dynamic
    (e.g. per-running-job views), a ``monitor_factory`` receiving the
    runtime so it can read through the shared :class:`QueryHub`.
    Component factories are zero-argument callables — specs close over
    their managed-system handles.
    """

    name: str
    analyzer_factory: Callable[[], Analyzer]
    planner_factory: Callable[[], Planner]
    executor_factory: Callable[[], Executor]
    queries: Tuple[MonitorQuery, ...] = ()
    build_observation: Optional[ObservationBuilder] = None
    monitor_factory: Optional[Callable[["LoopRuntime"], Monitor]] = None
    knowledge_factory: Optional[Callable[[], KnowledgeBase]] = None
    assessor_factory: Optional[Callable[[], Assessor]] = None
    guard_factories: Tuple[Callable[[], Guard], ...] = ()
    period_s: float = 60.0
    priority: int = 0
    start_at: Optional[float] = None  # absolute first-tick time; None = now
    phase_latency: PhaseLatency = field(default_factory=PhaseLatency)
    resource_keys: Callable[[Action], Sequence[ResourceKey]] = default_resource_keys
    claim_ttl_s: Optional[float] = None  # None → period_s
    keep_iterations: int = 256  # acting/vetoed cycles kept on loop.iterations
    on_iteration: Optional[Callable[[LoopIteration], None]] = None

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.monitor_factory is None and self.build_observation is None:
            raise ValueError(
                f"spec {self.name!r} needs either (queries + build_observation) "
                "or a monitor_factory"
            )


# ---------------------------------------------------------------------------
# Runtime


@dataclass
class RuntimeConfig:
    """Control-plane knobs shared by every hosted loop."""

    enable_cache: bool = True
    #: maintain hot shared shapes as standing queries: O(new samples)
    #: incremental updates on commit instead of per-tick window scans
    #: (see :mod:`repro.query.standing`).  Opt-in: cold/ad-hoc queries
    #: still take the batch path either way.
    standing_queries: bool = False
    #: deterministic per-loop phase offset as a fraction of the period;
    #: 0 keeps every loop aligned to period boundaries (legacy timing,
    #: maximal tick sharing), >0 spreads monitor bursts across the tick
    phase_jitter_frac: float = 0.0
    #: publish per-loop self-telemetry into the store
    self_telemetry: bool = True
    #: period for publishing the runtime's metrics-registry snapshot into
    #: the store as ``obs_*`` series (monitor-the-monitor, see
    #: :mod:`repro.obs.metrics`); 0 disables the publisher
    obs_publish_period_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.phase_jitter_frac < 1.0:
            raise ValueError("phase_jitter_frac must be in [0, 1)")
        if self.obs_publish_period_s < 0.0:
            raise ValueError("obs_publish_period_s must be >= 0")


def deterministic_phase(name: str, period_s: float, frac: float) -> float:
    """Stable per-loop phase offset in ``[0, frac * period)``.

    Hash-derived, so a loop keeps its phase across runs and processes —
    jitter that spreads fleet monitor bursts without sacrificing
    reproducibility.
    """
    if frac <= 0.0:
        return 0.0
    return (zlib.crc32(name.encode()) % 10_000) / 10_000.0 * frac * period_s


class LoopHandle:
    """One hosted loop: its spec, the live MAPEK instance, its schedule.

    The handle is the supervision surface: it survives
    :meth:`LoopRuntime.restart` (which swaps in a fresh ``loop``),
    carries the quarantine flag, and remembers the spec's original
    period so retuning can converge back to it.
    """

    def __init__(self, runtime: "LoopRuntime", spec: LoopSpec, loop: MAPEKLoop) -> None:
        self.runtime = runtime
        self.spec = spec
        self.loop = loop
        self._task: Optional[PeriodicTask] = None
        self.base_period_s = spec.period_s
        self.started_at: Optional[float] = None
        self.first_tick_at: Optional[float] = None
        self.quarantined = False
        self.restarts = 0
        self.last_restart_at: Optional[float] = None
        self.retunes = 0

    # ------------------------------------------------------------- lifecycle
    def start(self, *, at: Optional[float] = None) -> None:
        """Schedule the loop; ``at`` overrides the spec's first-tick time."""
        if self.running:
            raise RuntimeError(f"loop {self.spec.name!r} already started")
        if self.quarantined:
            raise RuntimeError(f"loop {self.spec.name!r} is quarantined")
        engine = self.runtime.engine
        if at is not None:
            first = at
        else:
            first = self.spec.start_at if self.spec.start_at is not None else engine.now
        first += deterministic_phase(
            self.spec.name, self.spec.period_s, self.runtime.config.phase_jitter_frac
        )
        # Higher-priority loops run earlier on shared ticks: engine events
        # order by (time, priority, seq) and lower numbers win.  Loops
        # that tick together join one cohort (see LoopRuntime).
        self._task = engine.every(
            self.spec.period_s,
            self.loop.run_cycle,
            start_at=max(first, engine.now),
            priority=-self.spec.priority,
            label=f"loop-{self.spec.name}",
            cohort=_COHORT,
        )
        self.started_at = engine.now
        self.first_tick_at = max(first, engine.now)

    def stop(self) -> None:
        """Stop ticking and abandon the decide/execute phases the loop
        already scheduled (counted in the runtime's ``abandoned_total``):
        a stopped loop does not act, whatever its phase latency."""
        self._stop_ticks()
        self.runtime.abandoned_total += self.loop.stop()

    def _stop_ticks(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def wedge(self) -> None:
        """Chaos hook: stop firing while still reporting running.

        A wedged loop is indistinguishable from a hung one — registered,
        ``running`` true, never iterating again — which is exactly what
        heartbeat-based stuck detection must catch.  Used by the E17
        fault-injection scenarios; a restart clears it.
        """
        if self._task is not None:
            self._task.hang()

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.stopped


class LoopRuntime:
    """Hosts a fleet of loops over one engine, store, and arbiter.

    Every started loop ticks as a member of a *cohort*: the loops whose
    ``(period, next tick instant, engine priority)`` are equal run from
    one engine event per tick — a :class:`~repro.sim.engine.Bundle` of
    the engine, joined by each loop's own periodic task — in the order
    their own tick events would have had, around any other event due at
    that instant.  Cohorts follow from the schedule alone: a loop with
    ``phase_jitter_frac > 0`` or a period of its own ticks alone, and
    :meth:`LoopHandle.stop`, :meth:`quarantine`, :meth:`remove`,
    :meth:`retune` and :meth:`restart` take a loop out of its cohort
    (:meth:`LoopHandle.wedge` stops its firings but leaves it
    ``running``).  The decide/execute phases that loops delay to one
    instant share an engine event the same way (see
    :class:`~repro.core.loop.MAPEKLoop`).
    """

    def __init__(
        self,
        engine: Engine,
        store: Optional[TimeSeriesStore] = None,
        *,
        query_engine: Optional[QueryEngine] = None,
        audit: Optional[AuditTrail] = None,
        config: Optional[RuntimeConfig] = None,
        arbiter: Optional[PlanArbiter] = None,
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else RuntimeConfig()
        if query_engine is None:
            query_engine = QueryEngine(
                store if store is not None else TimeSeriesStore(),
                enable_cache=self.config.enable_cache,
            )
        self.query_engine = query_engine
        self.store = query_engine.store
        standing = None
        if self.config.standing_queries:
            standing = StandingQueryEngine(query_engine)
        self.hub = QueryHub(query_engine, standing=standing)
        self.audit = audit
        self.arbiter = arbiter if arbiter is not None else PlanArbiter(audit=audit)
        self.handles: Dict[str, LoopHandle] = {}
        self.iterations_total = 0
        self.actions_total = 0
        self.restarts_total = 0
        self.quarantines_total = 0
        self.retunes_total = 0
        #: scheduled decide/execute phases cancelled by stopping their loop
        self.abandoned_total = 0
        #: the end-of-instant commit of staged self-telemetry, while one
        #: is scheduled
        self._flush_event: Optional[Event] = None
        #: the runtime's own view into the obs taxonomy — refreshed and
        #: published by the periodic task below (when configured) or on
        #: demand via :meth:`publish_obs`
        self.obs_registry = MetricsRegistry()
        self.obs_publishes = 0
        self._obs_task: Optional[PeriodicTask] = None
        if self.config.obs_publish_period_s > 0:
            self._obs_task = engine.every(
                self.config.obs_publish_period_s,
                self.publish_obs,
                label="obs-publish",
            )

    # ---------------------------------------------------------------- fleet
    def _build_loop(self, spec: LoopSpec) -> MAPEKLoop:
        """Instantiate the spec's components into a fresh MAPEK loop."""
        if spec.monitor_factory is not None:
            monitor: Monitor = spec.monitor_factory(self)
        else:
            monitor = QueryMonitor(spec.name, spec.queries, spec.build_observation, self.hub)
        guards: List[Guard] = [factory() for factory in spec.guard_factories]
        ttl = spec.claim_ttl_s if spec.claim_ttl_s is not None else spec.period_s
        guards.append(
            ArbiterGuard(
                self.arbiter,
                spec.name,
                spec.priority,
                ttl_s=ttl,
                resource_keys=spec.resource_keys,
            )
        )
        return MAPEKLoop(
            self.engine,
            spec.name,
            monitor=monitor,
            analyzer=spec.analyzer_factory(),
            planner=spec.planner_factory(),
            executor=spec.executor_factory(),
            knowledge=spec.knowledge_factory() if spec.knowledge_factory is not None else None,
            assessor=spec.assessor_factory() if spec.assessor_factory is not None else None,
            guards=guards,
            period_s=spec.period_s,
            phase_latency=spec.phase_latency,
            audit=self.audit,
            keep_iterations=spec.keep_iterations,
            on_iteration=self._iteration_hook(spec),
        )

    def add(self, spec: LoopSpec, *, start: bool = False) -> LoopHandle:
        """Instantiate a spec into a hosted loop; optionally start it."""
        if spec.name in self.handles:
            raise ValueError(f"loop {spec.name!r} already registered")
        handle = LoopHandle(self, spec, self._build_loop(spec))
        self.handles[spec.name] = handle
        if start:
            handle.start()
        return handle

    def add_many(self, specs: Sequence[LoopSpec], *, start: bool = False) -> List[LoopHandle]:
        return [self.add(spec, start=start) for spec in specs]

    def remove(self, name: str) -> Optional[LoopHandle]:
        """Stop and unregister a loop, releasing its arbiter claims."""
        handle = self.handles.pop(name, None)
        if handle is not None:
            handle.stop()
            self.arbiter.release(name)
        return handle

    # ------------------------------------------------------ fleet operations
    # The supervision surface (see :mod:`repro.core.supervisor`): every
    # operation is audited under the acting loop's name so meta-loop
    # decisions are traceable next to the decisions of the loops they
    # govern.

    def restart(self, name: str, *, by: str = "runtime", reason: str = "") -> LoopHandle:
        """Rebuild a loop from its spec and reschedule it from now.

        A restart is the stuck-loop remedy: fresh components (a wedged
        monitor's state is discarded), released arbiter claims (a held
        ``(domain, target)`` must not outlive the holder's death), and a
        first tick one period from now.  Cumulative loop counters reset
        with the instance; the handle's ``restarts`` counter and the
        published ``loop_restarts_total`` series carry the history.
        """
        handle = self.handles[name]
        handle.stop()
        handle.quarantined = False
        self.arbiter.release(name)
        handle.loop = self._build_loop(handle.spec)
        handle.restarts += 1
        handle.last_restart_at = self.engine.now
        self.restarts_total += 1
        handle.start(at=self.engine.now + handle.spec.period_s)
        now = self.engine.now
        if self.config.self_telemetry:
            key = SeriesKey.of("loop_restarts_total", loop=name)
            self._stage((key,), (float(handle.restarts),))
        if self.audit is not None:
            data = {"op": "restart", "loop": name, "restarts": handle.restarts}
            # attach the causal trace: the spans that preceded this
            # intervention (slow ticks, stalled scatters, deferrals)
            flight = FLIGHT.dump("restart_loop", loop=name, by=by, reason=reason)
            if flight is not None:
                data["flight_dump"] = flight
            self.audit.record(
                now, by, "fleet",
                f"restarted loop {name}" + (f": {reason}" if reason else ""),
                data=data,
            )
        return handle

    def quarantine(self, name: str, *, by: str = "runtime", reason: str = "") -> LoopHandle:
        """Stop a loop and bar it from starting until unquarantined.

        The remedy for a loop that keeps planning against the fleet
        (repeatedly vetoed actuations): it stays registered — its spec,
        history, and telemetry remain inspectable — but cannot tick.
        Its claims are released so the resources it held drain back.
        """
        handle = self.handles[name]
        handle.stop()
        handle.quarantined = True
        self.quarantines_total += 1
        self.arbiter.release(name)
        if self.audit is not None:
            data = {"op": "quarantine", "loop": name}
            flight = FLIGHT.dump("quarantine_loop", loop=name, by=by, reason=reason)
            if flight is not None:
                data["flight_dump"] = flight
            self.audit.record(
                self.engine.now, by, "fleet",
                f"quarantined loop {name}" + (f": {reason}" if reason else ""),
                data=data,
            )
        return handle

    def unquarantine(self, name: str, *, by: str = "runtime", start: bool = True) -> LoopHandle:
        """Lift a quarantine; by default the loop resumes one period out."""
        handle = self.handles[name]
        handle.quarantined = False
        if start and not handle.running:
            handle.start(at=self.engine.now + handle.spec.period_s)
        if self.audit is not None:
            self.audit.record(
                self.engine.now, by, "fleet",
                f"unquarantined loop {name}",
                data={"op": "unquarantine", "loop": name},
            )
        return handle

    def retune(
        self, name: str, *, period_s: float, by: str = "runtime", reason: str = ""
    ) -> LoopHandle:
        """Change a loop's period in place, rescheduling its next tick.

        Loop state (knowledge, iteration history, counters) survives —
        only the schedule and the arbiter claim TTL (when derived from
        the period) change.  This is the load-shedding actuator: a
        supervisor that measures iteration cost can slow an expensive
        loop down, then speed it back up toward ``base_period_s`` when
        the pressure clears.
        """
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        handle = self.handles[name]
        old = handle.spec.period_s
        handle.spec.period_s = period_s
        handle.loop.period_s = period_s
        if handle.spec.claim_ttl_s is None:
            for guard in handle.loop.guards:
                if isinstance(guard, ArbiterGuard):
                    guard.ttl_s = period_s
        was_running = handle.running
        handle._stop_ticks()  # an iteration in flight still completes
        handle.retunes += 1
        self.retunes_total += 1
        if was_running and not handle.quarantined:
            handle.start(at=self.engine.now + period_s)
        if self.audit is not None:
            self.audit.record(
                self.engine.now, by, "fleet",
                f"retuned loop {name}: period {old:g}s -> {period_s:g}s"
                + (f" ({reason})" if reason else ""),
                data={"op": "retune", "loop": name, "period_s": period_s},
            )
        return handle

    def handle(self, name: str) -> LoopHandle:
        return self.handles[name]

    def start(self) -> None:
        """Start every registered, unquarantined loop not already running."""
        for handle in self.handles.values():
            if not handle.running and not handle.quarantined:
                handle.start()

    def stop(self) -> None:
        for handle in self.handles.values():
            handle.stop()
        if self._obs_task is not None:
            self._obs_task.stop()
            self._obs_task = None

    def active_loops(self) -> int:
        return sum(1 for h in self.handles.values() if h.running)

    # ----------------------------------------------------------- telemetry
    def _iteration_hook(self, spec: LoopSpec) -> Callable[[LoopIteration], None]:
        """Chain fleet accounting + self-telemetry after the spec's hook."""
        name = spec.name
        keys = tuple(SeriesKey.of(metric, loop=name) for metric in _LOOP_SERIES)

        def hook(iteration: LoopIteration) -> None:
            self.iterations_total += 1
            self.actions_total += len(iteration.results)
            if self.config.self_telemetry:
                self._publish_iteration(name, keys, iteration)
            if spec.on_iteration is not None:
                spec.on_iteration(iteration)

        return hook

    def _publish_iteration(
        self, name: str, keys: Tuple[SeriesKey, ...], iteration: LoopIteration
    ) -> None:
        """Stage one iteration's self-telemetry for the shared store.

        Published through the same store the monitors read, so loops can
        watch loops: ``mean(loop_iteration_ms[600s]) group by (loop)``
        is a valid monitor query for a meta-loop.  ``keys`` are the
        loop's :data:`_LOOP_SERIES`.
        """
        handle = self.handles.get(name)
        if handle is not None:
            loop = handle.loop
            values = [iteration.wall_ms, float(loop.actions_executed), float(loop.actions_vetoed)]
        else:  # removed: its counters went with it
            values, keys = [iteration.wall_ms], keys[:1] + keys[3:]
        if iteration.staleness is not None:
            values.append(float(iteration.staleness))
        self._stage(keys[:len(values)], values)

    def _stage(self, keys: Sequence[SeriesKey], values: Sequence[float]) -> None:
        """Queue self-telemetry rows at now: they are committed as one
        write per instant, after every other event of the instant (or
        before the next read through the hub, if that comes first)."""
        now = self.engine.now
        self.hub.stage(keys, values, at=now)
        if self._flush_event is None:
            self._flush_event = self.engine.schedule_at(
                now, self._flush, priority=_LAST, label="loop-telemetry-flush"
            )

    def _flush(self) -> None:
        self._flush_event = None
        self.hub.flush()

    def publish_obs(self) -> int:
        """Refresh the obs registry from live stats and publish it.

        Writes one sample per canonical metric into the store as
        ``obs_<namespace>_<name>`` series (``obs_cache_hits``,
        ``obs_pool_respawns_total`` …), making the monitoring stack
        itself monitorable: a meta-loop can watch
        ``rate(obs_pool_respawns_total[600s])`` with the same machinery
        fleet loops use on node telemetry.  Returns the series count.
        """
        from repro.obs import collect_metrics

        collect_metrics(runtime=self, registry=self.obs_registry)
        written = self.obs_registry.publish(self.store, self.engine.now)
        self.obs_publishes += 1
        return len(written)

    # ---------------------------------------------------------------- stats
    def stats(self) -> Dict[str, float]:
        out = {
            "loops": float(len(self.handles)),
            "loops_running": float(self.active_loops()),
            "loops_quarantined": float(
                sum(1 for h in self.handles.values() if h.quarantined)
            ),
            "iterations_total": float(self.iterations_total),
            "actions_total": float(self.actions_total),
            "restarts_total": float(self.restarts_total),
            "quarantines_total": float(self.quarantines_total),
            "retunes_total": float(self.retunes_total),
            "abandoned_total": float(self.abandoned_total),
        }
        out.update({f"hub_{k}": v for k, v in self.hub.stats().items()})
        out.update({f"arbiter_{k}": v for k, v in self.arbiter.stats().items()})
        return out

    def loop_stats(self) -> List[Dict[str, float]]:
        """Per-loop summary rows (CLI / dashboard friendly)."""
        rows = []
        for name, handle in sorted(self.handles.items()):
            loop = handle.loop
            staleness = loop.recent_staleness()
            rows.append(
                {
                    "loop": name,
                    "priority": float(handle.spec.priority),
                    "period_s": float(handle.spec.period_s),
                    "iterations": float(loop.iterations_run),
                    "actions": float(loop.actions_executed),
                    "vetoes": float(loop.actions_vetoed),
                    "mean_staleness_s": float(np.mean(staleness)) if staleness else 0.0,
                    "restarts": float(handle.restarts),
                    "state": "quarantined" if handle.quarantined
                    else ("running" if handle.running else "stopped"),
                }
            )
        return rows

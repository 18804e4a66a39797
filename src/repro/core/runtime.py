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
  :class:`~repro.query.engine.QueryEngine` and its epoch-keyed
  :class:`QueryCache`.  Whether a read is shared is decided inline: once
  two different narrow selections of one widened shape (see
  :mod:`repro.query.fuse`) are read at the same tick, the rest of the
  tick is served from one cached widened execution, so a fleet of N
  per-partition loops costs two executions per tick instead of N
  ad-hoc store scans; with standing queries on, the standing engine's
  promotion rule turns such a shape into incrementally maintained state.
  There is no fusion flag and no tuning loop — a lone reader is never
  widened.
* :class:`LoopRuntime` — instantiates specs into
  :class:`~repro.core.loop.MAPEKLoop` instances, multiplexes them on the
  simulation engine with priority ordering (higher-priority loops run
  first on shared ticks) and deterministic phase jitter, arbitrates
  conflicting plans through the shared
  :class:`~repro.core.arbiter.PlanArbiter`, and publishes per-loop
  self-telemetry (``loop_iteration_ms``, ``loop_actions_total``,
  ``loop_vetoes_total``, ``loop_staleness_s``) back into the
  :class:`~repro.telemetry.tsdb.TimeSeriesStore` — loops are themselves
  monitorable through the same query path they monitor with.
"""

from __future__ import annotations

import zlib
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
from repro.query.cache import QueryCache
from repro.query.engine import QueryEngine, QueryResult, _Memo
from repro.query.fuse import fusable, widen
from repro.query.model import MetricQuery
from repro.query.standing import StandingQueryEngine
from repro.sim.engine import Engine, PeriodicTask
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


# ---------------------------------------------------------------------------
# Shared Monitor-phase serving layer


class QueryHub:
    """One query front-end shared by every loop the runtime hosts.

    Every sharing decision is made inline, from what the hub sees at one
    evaluation time, for a *fusable* narrow query (matchers ⊆ group_by —
    see :mod:`repro.query.fuse`) and its widened shape:

    * once a *different* narrow query of the same shape was read at this
      ``at``, the read is shared: it is answered by narrowing the widened
      result, which the engine executes once and caches for the tick's
      later readers (version-keyed on the write epoch).  A first or lone
      reader executes directly — an unshared widened execution would
      cost a full-metric pass for a narrow answer — and so does every
      read of an uncached engine, where widening would never be shared;
    * with a :class:`~repro.query.standing.StandingQueryEngine`, shared
      reads also go to it, and its one promotion rule decides when the
      shape is hot enough to maintain incrementally; from then on every
      read of the shape is served from standing state.

    The hub exposes the same read surface monitors already use
    (``query`` / ``scalar`` / ``samples`` / ``parse`` / ``store``), so
    existing telemetry-backed monitors run through it unchanged.
    """

    def __init__(self, engine: QueryEngine, *, standing=None) -> None:
        self.engine = engine
        self.store = engine.store
        self.standing = standing
        self.fused_served = 0
        self.direct_served = 0
        self.standing_served = 0
        #: the evaluation time being read, and per widened shape the
        #: first narrow query read at it (``None`` once another was)
        self._tick_at: Optional[float] = None
        self._tick_reads: Dict[MetricQuery, Optional[MetricQuery]] = {}
        #: widened shape -> (its latest result's series, label -> position)
        self._widened = _Memo()

    def parse(self, expr: str) -> MetricQuery:
        return self.engine.parse(expr)

    def query(self, q: Union[str, MetricQuery], *, at: float) -> QueryResult:
        """Evaluate ``q`` at ``at``, sharing the read when the tick does."""
        if isinstance(q, str):
            q = self.engine.parse(q)
        if TRACER.enabled:
            with TRACER.span("hub.query", metric=q.metric):
                return self._query(q, at)
        return self._query(q, at)

    def _query(self, q: MetricQuery, at: float) -> QueryResult:
        if fusable(q):
            shape = widen(q)
            shared = self._shared(shape, q, at)
            standing = self.standing
            if standing is not None and (shared or shape in standing.shapes):
                wide = standing.query(shape, at=at)
                if wide is not None:
                    self.standing_served += 1
                    return self._narrow(q, shape, wide)
            if shared and self.engine.cache is not None:
                self.fused_served += 1
                return self._narrow(q, shape, self.engine.query(shape, at=at))
        self.direct_served += 1
        return self.engine.query(q, at=at)

    def _shared(self, shape: MetricQuery, q: MetricQuery, at: float) -> bool:
        """Whether a narrow query of ``shape`` other than ``q`` was
        already read at ``at``.  Only reads at the same instant can share
        a widened result (the cache keys it per ``at``), so loops spread
        by phase jitter read alone — their load is not fusible."""
        if at != self._tick_at:
            self._tick_at = at
            self._tick_reads.clear()
        first = self._tick_reads.setdefault(shape, q)
        if first is None:
            return True
        if first == q:
            return False
        self._tick_reads[shape] = None
        return True

    def _narrow(self, q: MetricQuery, shape: MetricQuery, wide: QueryResult) -> QueryResult:
        """Select ``q``'s series from the widened result by group label.

        Equivalent to :func:`repro.query.fuse.narrow_result`, with the
        matchers evaluated once per series generation — ``q``'s groups
        are the labels of its memoised engine plan — and the widened
        result indexed once, so every loop narrowing the same tick's
        result pays O(its own series), not O(fleet series).  Cache hits
        rebuild the result wrapper but share its series tuple.
        """
        series = wide.series
        entry = self._widened.get(shape)
        if entry is None or entry[0] is not series:
            entry = self._widened.put(shape, (series, {s.labels: i for i, s in enumerate(series)}))
        index = entry[1]
        kept = tuple(series[index[lab]] for lab in self.engine.plan(q).labels if lab in index)
        return QueryResult(q, wide.t0, wide.t1, kept, source=f"fused+{wide.source}")

    def scalar(self, q: Union[str, MetricQuery], *, at: float) -> Optional[float]:
        return self.query(q, at=at).scalar()

    def samples(
        self, q: Union[str, MetricQuery], *, at: float, since: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
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
    hands the results to the spec's builder.  Holds the per-slot sample
    cursors, which is the only state a declarative monitor has.
    """

    def __init__(
        self,
        name: str,
        queries: Sequence[MonitorQuery],
        build: ObservationBuilder,
        hub: QueryHub,
    ) -> None:
        self.name = name
        self.queries = [
            MonitorQuery(
                mq.slot,
                hub.parse(mq.query) if isinstance(mq.query, str) else mq.query,
                mq.mode,
            )
            for mq in queries
        ]
        self.build = build
        self.hub = hub
        self._cursors: Dict[str, float] = {}
        self._memory: Dict[str, object] = {}

    def observe(self, now: float) -> Optional[Observation]:
        inputs: Dict[str, object] = {"_memory": self._memory}
        advanced: Dict[str, float] = {}
        for mq in self.queries:
            if mq.mode == "samples":
                times, values = self.hub.samples(
                    mq.query, at=now, since=self._cursors.get(mq.slot)
                )
                if times.size:
                    advanced[mq.slot] = float(times[-1])
                inputs[mq.slot] = (times, values)
            else:
                inputs[mq.slot] = self.hub.query(mq.query, at=now)
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
    keep_iterations: int = 256
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
        # order by (time, priority, seq) and lower numbers win.
        self._task = engine.every(
            self.spec.period_s,
            self.loop.run_cycle,
            start_at=max(first, engine.now),
            priority=-self.spec.priority,
            label=f"loop-{self.spec.name}",
        )
        self.started_at = engine.now
        self.first_tick_at = max(first, engine.now)

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def wedge(self) -> None:
        """Chaos hook: cancel the next firing while still reporting running.

        A wedged loop is indistinguishable from a hung one — registered,
        ``running`` true, never iterating again — which is exactly what
        heartbeat-based stuck detection must catch.  Used by the E17
        fault-injection scenarios; a restart clears it.
        """
        if self._task is not None and self._task._event is not None:
            self._task._event.cancel()

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.stopped


class LoopRuntime:
    """Hosts a fleet of loops over one engine, store, and arbiter."""

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
                cache=QueryCache() if self.config.enable_cache else None,
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

    @classmethod
    def for_case(
        cls,
        engine: Engine,
        *,
        runtime: Optional["LoopRuntime"] = None,
        store: Optional[TimeSeriesStore] = None,
        query_engine: Optional[QueryEngine] = None,
        audit: Optional[AuditTrail] = None,
    ) -> "LoopRuntime":
        """Join a shared runtime or build a private one — case-manager glue.

        Every ``*CaseManager`` resolves its hosting runtime the same way:
        a passed-in shared runtime wins (and then audit must come from
        it, not alongside it), otherwise a private runtime is built over
        the case's store/engine.
        """
        if runtime is not None:
            if audit is not None and runtime.audit is not audit:
                raise ValueError("pass audit via the shared runtime, not alongside it")
            if store is not None and runtime.store is not store:
                raise ValueError("case store differs from the shared runtime's store")
            if query_engine is not None and runtime.query_engine is not query_engine:
                raise ValueError("pass the query engine via the shared runtime, not alongside it")
            return runtime
        if store is None and query_engine is not None:
            store = query_engine.store
        return cls(engine, store, query_engine=query_engine, audit=audit)

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
            self.store.insert(
                SeriesKey.of("loop_restarts_total", loop=name), now, float(handle.restarts)
            )
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
        handle.stop()
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

        def hook(iteration: LoopIteration) -> None:
            self.iterations_total += 1
            self.actions_total += len(iteration.results)
            if self.config.self_telemetry:
                self._publish_iteration(spec.name, iteration)
            if spec.on_iteration is not None:
                spec.on_iteration(iteration)

        return hook

    def _publish_iteration(self, name: str, iteration: LoopIteration) -> None:
        """Write one iteration's self-telemetry into the shared store.

        Published through the same store the monitors read, so loops can
        watch loops: ``mean(loop_iteration_ms[600s]) group by (loop)``
        is a valid monitor query for a meta-loop.
        """
        now = self.engine.now
        loop = self.handles[name].loop if name in self.handles else None
        store = self.store
        store.insert(SeriesKey.of("loop_iteration_ms", loop=name), now, iteration.wall_ms)
        if loop is not None:
            store.insert(
                SeriesKey.of("loop_actions_total", loop=name), now, float(loop.actions_executed)
            )
            store.insert(
                SeriesKey.of("loop_vetoes_total", loop=name), now, float(loop.actions_vetoed)
            )
        if iteration.staleness is not None:
            store.insert(
                SeriesKey.of("loop_staleness_s", loop=name), now, float(iteration.staleness)
            )

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
        }
        out.update({f"hub_{k}": v for k, v in self.hub.stats().items()})
        out.update({f"arbiter_{k}": v for k, v in self.arbiter.stats().items()})
        return out

    def loop_stats(self) -> List[Dict[str, float]]:
        """Per-loop summary rows (CLI / dashboard friendly)."""
        rows = []
        for name, handle in sorted(self.handles.items()):
            loop = handle.loop
            staleness = [
                it.staleness for it in loop.iterations if it.staleness is not None
            ]
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

"""Fleet supervision: meta-loops that watch loops and act on the fleet.

The paper's central claim is that monitoring, ODA, feedback, and
response should themselves be closed loops — which implies the loop
fleet must be monitorable *and governable* by loops.  PR 3 made the
fleet monitorable: every hosted loop publishes ``loop_iteration_ms``,
``loop_actions_total``, ``loop_vetoes_total``, and ``loop_staleness_s``
back into the shared store.  This module closes the meta-loop: a family
of :class:`MetaLoopSpec` supervisor loops, hosted on the **same**
:class:`~repro.core.runtime.LoopRuntime` as the loops they govern,
whose Monitor phase is plain :class:`~repro.query.model.MetricQuery`
expressions over that self-telemetry and whose Execute phase actuates
the fleet itself:

* **health** — heartbeat gaps (a loop that stopped iterating) and
  frozen observations (``loop_staleness_s`` beyond bound) are repaired
  with :meth:`~repro.core.runtime.LoopRuntime.restart`; loops whose
  actuations are repeatedly vetoed by the arbiter are
  :meth:`~repro.core.runtime.LoopRuntime.quarantine`\\ d.
* **tuning** — measured iteration cost (``loop_iteration_ms``) retunes
  loop periods: expensive loops are slowed down (load shedding),
  previously slowed loops are sped back up toward their spec period
  when the pressure clears.

Whether loops share their reads is not supervised: the
:class:`~repro.core.runtime.QueryHub` decides it inline at every tick,
and the standing engine's one promotion rule decides what becomes a
standing query (:mod:`repro.core.runtime`).

Supervisor actions are ordinary :class:`~repro.core.types.Action`
records (``restart_loop``, ``quarantine_loop``, ``retune_loop``) that
pass through the loop's guard chain and the shared
:class:`~repro.core.arbiter.PlanArbiter` like any other actuation —
supervision is arbitrated and audited, not privileged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.component import Analyzer, Executor, Planner
from repro.core.knowledge import KnowledgeBase
from repro.core.runtime import LoopHandle, LoopRuntime, LoopSpec, MonitorQuery
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.core.types import (
    Action,
    AnalysisReport,
    ExecutionResult,
    Observation,
    Plan,
    Symptom,
)

__all__ = [
    "MetaLoopSpec",
    "SupervisorConfig",
    "SUPERVISOR_PRIORITY",
    "FleetExecutor",
    "attach_supervisors",
    "health_supervisor_spec",
    "tuning_supervisor_spec",
]

#: Supervisors outrank every workload loop: a restart claim on
#: ``("loop", name)`` must not lose arbitration to the loop's own work.
SUPERVISOR_PRIORITY = 1000


@dataclass
class SupervisorConfig:
    """Thresholds and cadences shared by the supervisor family."""

    period_s: float = 60.0
    window_s: float = 600.0
    priority: int = SUPERVISOR_PRIORITY
    # --- health: stuck / frozen / veto-storm detection
    #: a loop is stuck when its newest heartbeat bin is older than
    #: ``heartbeat_factor`` of its own period
    heartbeat_factor: float = 3.0
    #: bin width of the heartbeat presence query
    heartbeat_step_s: float = 30.0
    #: a loop is frozen when its last published staleness exceeds this
    staleness_bound_s: float = 90.0
    #: do not restart the same loop again within this long
    restart_cooldown_s: float = 240.0
    #: quarantine a loop whose vetoes grew by at least this much in window
    quarantine_vetoes: float = 8.0
    # --- tuning: period retuning from measured iteration cost
    #: mean host-milliseconds per iteration above which a loop is slowed
    slow_iteration_ms: float = 50.0
    #: mean cost below which a previously slowed loop speeds back up
    fast_iteration_ms: float = 5.0
    #: multiplicative period step per retune
    retune_factor: float = 2.0
    #: never slow a loop beyond ``base_period * max_period_factor``
    max_period_factor: float = 8.0
    retune_cooldown_s: float = 240.0

    def __post_init__(self) -> None:
        if self.period_s <= 0 or self.window_s <= 0:
            raise ValueError("period_s and window_s must be positive")
        if self.heartbeat_factor < 1.0:
            raise ValueError("heartbeat_factor must be >= 1")
        if self.retune_factor <= 1.0:
            raise ValueError("retune_factor must be > 1")


@dataclass
class MetaLoopSpec(LoopSpec):
    """A supervisor loop's spec: a LoopSpec that governs other loops.

    The subclass is the marker supervision logic keys on — meta-loops
    never supervise each other (no restart ping-pong between the health
    supervisor and itself) and are excluded from retuning.
    """

    meta_kind: str = "meta"


def _roster(runtime: LoopRuntime) -> Dict[str, Dict[str, object]]:
    """Snapshot of the supervisable fleet, keyed by loop name."""
    out: Dict[str, Dict[str, object]] = {}
    for name in sorted(runtime.handles):
        handle = runtime.handles[name]
        out[name] = {
            "period_s": float(handle.spec.period_s),
            "base_period_s": float(handle.base_period_s),
            "running": handle.running,
            "quarantined": handle.quarantined,
            "meta": isinstance(handle.spec, MetaLoopSpec),
            # heartbeat grace counts from the first *scheduled* tick, not
            # registration — a loop configured to start later is not stuck
            "started_at": handle.first_tick_at,
            "restarts": float(handle.restarts),
            "last_restart_at": handle.last_restart_at,
        }
    return out


# ---------------------------------------------------------------------------
# Fleet actuation


class FleetExecutor(Executor):
    """Executes supervision actions against the hosting runtime.

    The managed system of a meta-loop *is* the fleet: restarts,
    quarantines and retunes all go through the runtime's
    audited fleet operations.  Unknown targets are refused, not raised —
    a supervisor acting on a stale roster must degrade gracefully.
    """

    name = "fleet-executor"

    def __init__(self, runtime: LoopRuntime, *, by: str = "supervisor") -> None:
        self.runtime = runtime
        self.by = by

    def execute(self, plan: Plan, knowledge: KnowledgeBase) -> List[ExecutionResult]:
        results = []
        now = self.runtime.engine.now
        for action in plan.actions:
            try:
                detail = self._apply(action)
                honored = True
            except (KeyError, ValueError) as exc:
                detail, honored = f"refused: {exc}", False
            results.append(ExecutionResult(action, now, honored=honored, detail=detail))
        return results

    def _apply(self, action: Action) -> str:
        if TRACER.enabled:
            with TRACER.span("supervisor.apply", kind=action.kind,
                             target=action.target):
                return self._apply_impl(action)
        return self._apply_impl(action)

    def _apply_impl(self, action: Action) -> str:
        METRICS.counter(f"supervisor.applied.{action.kind}").inc()
        runtime, name = self.runtime, action.target
        if action.kind == "restart_loop":
            handle = runtime.restart(name, by=self.by, reason=action.rationale)
            return f"restarted (restart #{handle.restarts})"
        if action.kind == "quarantine_loop":
            runtime.quarantine(name, by=self.by, reason=action.rationale)
            return "quarantined"
        if action.kind == "unquarantine_loop":
            runtime.unquarantine(name, by=self.by)
            return "unquarantined"
        if action.kind == "retune_loop":
            period = action.param("period_s")
            runtime.retune(name, period_s=period, by=self.by, reason=action.rationale)
            return f"period -> {period:g}s"
        raise ValueError(f"unknown fleet action kind {action.kind!r}")


class _CooldownPlanner(Planner):
    """Shared base: turn symptoms into actions, one per loop, rate-limited.

    Deterministic by construction — symptoms are processed in sorted
    order and the cooldown table only depends on simulated time.
    """

    name = "fleet-planner"

    def __init__(self, cooldown_s: float) -> None:
        self.cooldown_s = cooldown_s
        self._last: Dict[Tuple[str, str], float] = {}

    def _ready(self, kind: str, target: str, now: float) -> bool:
        last = self._last.get((kind, target))
        return last is None or now - last >= self.cooldown_s

    def _mark(self, kind: str, target: str, now: float) -> None:
        self._last[(kind, target)] = now


# ---------------------------------------------------------------------------
# Health supervisor


class FleetHealthAnalyzer(Analyzer):
    """Diagnoses stuck, frozen, and veto-storming loops from telemetry."""

    name = "fleet-health-analyzer"

    def __init__(self, config: SupervisorConfig) -> None:
        self.config = config

    def analyze(self, observation: Observation, knowledge: KnowledgeBase) -> AnalysisReport:
        cfg = self.config
        now = observation.time
        roster: Dict[str, Dict[str, object]] = observation.context["roster"]
        symptoms: List[Symptom] = []
        for name in sorted(roster):
            info = roster[name]
            # a deliberately stopped loop (operator stop()) is not a
            # patient: stuck detection targets loops that *claim* to be
            # running yet never iterate (the wedge/hang signature)
            if info["meta"] or info["quarantined"] or not info["running"]:
                continue
            period = float(info["period_s"])
            grace = cfg.heartbeat_factor * period
            started = info["started_at"]
            age_known = started is not None and now - float(started) > grace
            beat_age = observation.values.get(f"beat_age:{name}")
            if beat_age is None:
                # never seen in telemetry: stuck only once past the grace
                # period (a freshly added loop is not a patient yet)
                if age_known:
                    symptoms.append(
                        Symptom(f"stuck:{name}", 1.0, evidence="no heartbeat in window")
                    )
                continue
            if beat_age > grace:
                symptoms.append(
                    Symptom(
                        f"stuck:{name}",
                        1.0,
                        evidence=f"last heartbeat {beat_age:.0f}s ago (period {period:g}s)",
                    )
                )
                continue  # restart fixes frozen observations too
            staleness = observation.values.get(f"staleness:{name}")
            if staleness is not None and staleness > cfg.staleness_bound_s:
                symptoms.append(
                    Symptom(
                        f"frozen:{name}",
                        min(1.0, staleness / (4.0 * cfg.staleness_bound_s)),
                        evidence=f"staleness {staleness:.0f}s > bound {cfg.staleness_bound_s:g}s",
                    )
                )
            vetoes = observation.values.get(f"veto_delta:{name}", 0.0)
            # the cumulative veto counter resets with the loop instance, so
            # for one window after a restart the max-min delta still spans
            # pre-restart samples and would read as a storm — a freshly
            # healed loop is immune until the window rolls clean
            restarted = info.get("last_restart_at")
            contaminated = restarted is not None and now - float(restarted) < cfg.window_s
            if not contaminated and vetoes >= cfg.quarantine_vetoes:
                symptoms.append(
                    Symptom(
                        f"vetostorm:{name}",
                        min(1.0, vetoes / (4.0 * cfg.quarantine_vetoes)),
                        evidence=f"{vetoes:.0f} vetoes in window",
                    )
                )
        return AnalysisReport(now, self.name, tuple(symptoms))


class FleetHealthPlanner(_CooldownPlanner):
    """stuck/frozen → restart; vetostorm → quarantine (with cooldowns)."""

    name = "fleet-health-planner"

    def __init__(self, config: SupervisorConfig) -> None:
        super().__init__(config.restart_cooldown_s)
        self.config = config

    def plan(self, report: AnalysisReport, knowledge: KnowledgeBase) -> Plan:
        now = report.time
        actions: List[Action] = []
        for symptom in sorted(report.symptoms, key=lambda s: s.name):
            cause, _, target = symptom.name.partition(":")
            if cause in ("stuck", "frozen"):
                if self._ready("restart", target, now):
                    self._mark("restart", target, now)
                    actions.append(
                        Action("restart_loop", target, rationale=symptom.evidence)
                    )
            elif cause == "vetostorm":
                if self._ready("quarantine", target, now):
                    self._mark("quarantine", target, now)
                    actions.append(
                        Action("quarantine_loop", target, rationale=symptom.evidence)
                    )
        return Plan(
            now,
            self.name,
            tuple(actions),
            rationale=f"{len(actions)} fleet-health repair(s)" if actions else "",
        )


def health_supervisor_spec(
    runtime: LoopRuntime, config: Optional[SupervisorConfig] = None, *, name: str = "meta-health"
) -> MetaLoopSpec:
    """The stuck/frozen/veto-storm supervisor as a declarative meta-loop.

    Monitor reads are ordinary queries over the fleet's self-telemetry:
    heartbeat presence is a binned ``count`` of ``loop_iteration_ms``
    per loop (the newest non-empty bin dates the last sign of life),
    frozen detection is ``last(loop_staleness_s)`` per loop, and veto
    storms are the window increase of ``loop_vetoes_total``.
    """
    cfg = config if config is not None else SupervisorConfig()
    w, step = cfg.window_s, cfg.heartbeat_step_s
    queries = (
        MonitorQuery("beat", f"count(loop_iteration_ms[{w:g}s] by {step:g}s) group by (loop)"),
        MonitorQuery("stale", f"last(loop_staleness_s[{w:g}s]) group by (loop)"),
        MonitorQuery("veto_hi", f"max(loop_vetoes_total[{w:g}s]) group by (loop)"),
        MonitorQuery("veto_lo", f"min(loop_vetoes_total[{w:g}s]) group by (loop)"),
    )

    def build(now: float, inputs) -> Optional[Observation]:
        values: Dict[str, float] = {}
        for series in inputs["beat"].series:
            loop = series.label("loop")
            if loop and series.times.size:
                # the newest non-empty bin ends at times[-1] + step
                values[f"beat_age:{loop}"] = now - (float(series.times[-1]) + step)
        for series in inputs["stale"].series:
            loop = series.label("loop")
            if loop and series.values.size:
                values[f"staleness:{loop}"] = float(series.values[-1])
        hi = {
            s.label("loop"): float(s.values[-1])
            for s in inputs["veto_hi"].series
            if s.values.size
        }
        for series in inputs["veto_lo"].series:
            loop = series.label("loop")
            if loop and series.values.size and loop in hi:
                values[f"veto_delta:{loop}"] = hi[loop] - float(series.values[-1])
        return Observation(
            now, name, values=values, context={"roster": _roster(runtime)}
        )

    return MetaLoopSpec(
        name=name,
        meta_kind="health",
        queries=queries,
        build_observation=build,
        analyzer_factory=lambda: FleetHealthAnalyzer(cfg),
        planner_factory=lambda: FleetHealthPlanner(cfg),
        executor_factory=lambda: FleetExecutor(runtime, by=name),
        period_s=cfg.period_s,
        # healing outranks every other supervisor: a restart claim on
        # ("loop", name) must preempt e.g. a tuning claim, not lose an
        # equal-priority arbitration while the patient stays wedged
        priority=cfg.priority + 1,
    )


# ---------------------------------------------------------------------------
# Tuning supervisor


class FleetTuningAnalyzer(Analyzer):
    """Flags loops whose measured iteration cost argues for a new period."""

    name = "fleet-tuning-analyzer"

    def __init__(self, config: SupervisorConfig) -> None:
        self.config = config

    def analyze(self, observation: Observation, knowledge: KnowledgeBase) -> AnalysisReport:
        cfg = self.config
        roster: Dict[str, Dict[str, object]] = observation.context["roster"]
        symptoms: List[Symptom] = []
        metrics: Dict[str, float] = {}
        for name in sorted(roster):
            info = roster[name]
            if info["meta"] or info["quarantined"] or not info["running"]:
                continue
            cost = observation.values.get(f"cost:{name}")
            if cost is None:
                continue
            period = float(info["period_s"])
            base = float(info["base_period_s"])
            if cost > cfg.slow_iteration_ms and period < base * cfg.max_period_factor:
                symptoms.append(
                    Symptom(
                        f"overload:{name}",
                        min(1.0, cost / (4.0 * cfg.slow_iteration_ms)),
                        evidence=f"mean {cost:.1f}ms/iter at period {period:g}s",
                    )
                )
            elif cost < cfg.fast_iteration_ms and period > base:
                symptoms.append(
                    Symptom(
                        f"headroom:{name}",
                        0.5,
                        evidence=f"mean {cost:.1f}ms/iter, period {period:g}s > base {base:g}s",
                    )
                )
            else:
                continue
            metrics[f"period:{name}"] = period
            metrics[f"base:{name}"] = base
        return AnalysisReport(observation.time, self.name, tuple(symptoms), metrics=metrics)


class FleetTuningPlanner(_CooldownPlanner):
    """overload → slow the loop down; headroom → speed back toward base."""

    name = "fleet-tuning-planner"

    def __init__(self, config: SupervisorConfig) -> None:
        super().__init__(config.retune_cooldown_s)
        self.config = config

    def plan(self, report: AnalysisReport, knowledge: KnowledgeBase) -> Plan:
        cfg = self.config
        now = report.time
        actions: List[Action] = []
        for symptom in sorted(report.symptoms, key=lambda s: s.name):
            cause, _, target = symptom.name.partition(":")
            if not self._ready("retune", target, now):
                continue
            period = report.metrics.get(f"period:{target}")
            base = report.metrics.get(f"base:{target}")
            if period is None or base is None:
                continue
            if cause == "overload":
                new_period = min(period * cfg.retune_factor, base * cfg.max_period_factor)
            else:
                new_period = max(period / cfg.retune_factor, base)
            if new_period == period:
                continue
            self._mark("retune", target, now)
            actions.append(
                Action(
                    "retune_loop",
                    target,
                    params={"period_s": new_period},
                    rationale=symptom.evidence,
                )
            )
        return Plan(
            now,
            self.name,
            tuple(actions),
            rationale=f"{len(actions)} retune(s)" if actions else "",
        )


def tuning_supervisor_spec(
    runtime: LoopRuntime, config: Optional[SupervisorConfig] = None, *, name: str = "meta-tuning"
) -> MetaLoopSpec:
    """The period-retuning supervisor: measured cost → schedule pressure."""
    cfg = config if config is not None else SupervisorConfig()
    queries = (
        MonitorQuery("cost", f"mean(loop_iteration_ms[{cfg.window_s:g}s]) group by (loop)"),
    )

    def build(now: float, inputs) -> Optional[Observation]:
        values: Dict[str, float] = {}
        for series in inputs["cost"].series:
            loop = series.label("loop")
            if loop and series.values.size:
                values[f"cost:{loop}"] = float(series.values[-1])
        return Observation(
            now, name, values=values, context={"roster": _roster(runtime)}
        )

    return MetaLoopSpec(
        name=name,
        meta_kind="tuning",
        queries=queries,
        build_observation=build,
        analyzer_factory=lambda: FleetTuningAnalyzer(cfg),
        planner_factory=lambda: FleetTuningPlanner(cfg),
        executor_factory=lambda: FleetExecutor(runtime, by=name),
        period_s=cfg.period_s,
        priority=cfg.priority,
    )


# ---------------------------------------------------------------------------
# Wiring


_SPEC_BUILDERS = {
    "health": health_supervisor_spec,
    "tuning": tuning_supervisor_spec,
}


def attach_supervisors(
    runtime: LoopRuntime,
    config: Optional[SupervisorConfig] = None,
    *,
    kinds: Sequence[str] = ("health", "tuning"),
    start: bool = True,
) -> List[LoopHandle]:
    """Register (and by default start) the supervisor family on a runtime.

    ``"fusion"`` is accepted and attaches nothing: the hub now decides
    fusion inline, and benchmark scripts written for the former fusion
    supervisor still name it.
    """
    cfg = config if config is not None else SupervisorConfig()
    handles = []
    for kind in kinds:
        if kind == "fusion":
            continue
        try:
            builder = _SPEC_BUILDERS[kind]
        except KeyError:
            raise ValueError(
                f"unknown supervisor kind {kind!r}; choose from {sorted(_SPEC_BUILDERS)}"
            ) from None
        handles.append(runtime.add(builder(runtime, cfg), start=start))
    return handles

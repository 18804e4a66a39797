"""The Scheduler use case — the paper's initial autonomy loop (Fig. 3).

One classical MAPE-K loop per running application:

* **Monitor** — read new progress markers from the side channel
  (``rank 0 drops time-steps periodically to a file or memory region``).
* **Analyze** — feed the markers to a TTC forecaster; compare the
  predicted completion against the job's current walltime deadline,
  using run-history priors when the marker stream is still short.
* **Plan** — when completion is predicted to overrun the deadline,
  request an extension sized from the forecast's upper bound plus a
  safety margin; when extensions are exhausted/denied, fall back to
  signalling a checkpoint (the paper's extensibility path).
* **Execute** — call the scheduler's extension hook, which may deny or
  shorten; record whether the request was honored.
* **Assess/Knowledge** — at job end, score each extension against the
  actual overrun and store a run record for future priors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analytics.forecast import Forecaster, make_forecaster
from repro.cluster.job import Job, JobState
from repro.cluster.scheduler import Scheduler
from repro.core.audit import AuditTrail
from repro.core.component import Analyzer, Executor, Monitor, Planner
from repro.core.confidence import combined_confidence
from repro.core.guards import ActionBudgetGuard, ConfidenceGuard
from repro.core.humanloop import HumanOnTheLoopNotifier
from repro.core.knowledge import KnowledgeBase
from repro.core.loop import MAPEKLoop, PhaseLatency
from repro.core.runtime import LoopHandle, LoopRuntime, LoopSpec, MonitorQuery
from repro.core.types import (
    Action,
    AnalysisReport,
    ExecutionResult,
    Observation,
    Plan,
    Symptom,
)
from repro.analytics.similarity import JobRecord
from repro.loops.bridges import SchedulerTelemetryBridge
from repro.sim.engine import Engine
from repro.telemetry.markers import ProgressMarker, ProgressMarkerChannel


class JobProgressMonitor(Monitor):
    """Reads new progress markers for one job from the marker channel."""

    def __init__(self, channel: ProgressMarkerChannel, scheduler: Scheduler, job_id: str) -> None:
        self.channel = channel
        self.scheduler = scheduler
        self.job_id = job_id
        self.name = f"progress-monitor-{job_id}"
        self._cursor = -1.0

    def observe(self, now: float) -> Optional[Observation]:
        job = self.scheduler.jobs.get(self.job_id)
        if job is None or job.state is not JobState.RUNNING:
            return None
        new_markers = self.channel.read_since(self.job_id, self._cursor)
        if new_markers:
            self._cursor = new_markers[-1].time
        last = self.channel.last(self.job_id)
        values: Dict[str, float] = {
            "deadline": job.deadline,
            "time_limit_s": job.time_limit_s,
            "start_time": job.start_time,
        }
        if last is not None:
            values["last_step"] = last.step
            values["last_marker_time"] = last.time
            if last.total_steps:
                values["total_steps"] = last.total_steps
        return Observation(
            now,
            self.name,
            values=values,
            context={"new_markers": new_markers, "job_id": self.job_id},
        )


class ProgressAnalyzer(Analyzer):
    """Forecasts time-to-completion and diagnoses predicted overruns."""

    def __init__(self, forecaster: Optional[Forecaster] = None, *, forecaster_name: str = "ols") -> None:
        self.forecaster = forecaster if forecaster is not None else make_forecaster(forecaster_name)
        self.name = f"progress-analyzer-{self.forecaster.name}"

    def analyze(self, observation: Observation, knowledge: KnowledgeBase) -> AnalysisReport:
        for marker in observation.context.get("new_markers", ()):
            self.forecaster.update(marker.time, marker.step)
        now = observation.time
        deadline = observation.values["deadline"]
        total_steps = observation.values.get("total_steps")
        metrics: Dict[str, float] = {"deadline": deadline}
        symptoms: List[Symptom] = []
        confidence = 0.0
        if total_steps is not None:
            result = self.forecaster.forecast(now, total_steps)
            if result is not None:
                metrics.update(
                    eta=result.eta,
                    eta_lo=result.eta_lo,
                    eta_hi=result.eta_hi,
                    rate=result.rate,
                    n_markers=float(result.n_markers),
                )
                horizon = max(1.0, deadline - observation.values["start_time"])
                confidence = combined_confidence(result, knowledge, horizon)
                if result.eta_hi > deadline:
                    overrun = result.eta_hi - deadline
                    severity = min(1.0, overrun / max(1.0, 0.25 * horizon))
                    symptoms.append(
                        Symptom(
                            "predicted_overrun",
                            severity,
                            evidence=f"eta_hi={result.eta_hi:.0f}s beyond deadline={deadline:.0f}s "
                            f"by {overrun:.0f}s",
                        )
                    )
        else:
            # no totals in markers: fall back to run-history prior
            prior = knowledge.recall("runtime_prior")
            if prior is not None:
                metrics["prior_runtime_s"] = prior
        return AnalysisReport(now, self.name, tuple(symptoms), metrics, confidence)


@dataclass
class ExtensionPlanner(Planner):
    """Plans walltime extensions, falling back to checkpoint requests.

    ``safety_margin_s`` pads the request beyond the forecast upper
    bound; ``act_within_s`` avoids premature action when the deadline is
    still far (late-binding keeps forecasts sharp and budgets unspent).
    """

    safety_margin_s: float = 300.0
    act_within_s: float = 1800.0
    min_extension_s: float = 60.0
    max_extension_s: float = 14400.0
    checkpoint_fallback: bool = True
    name: str = "extension-planner"

    def plan(self, report: AnalysisReport, knowledge: KnowledgeBase) -> Plan:
        overrun = report.symptom("predicted_overrun")
        if overrun is None:
            return Plan(report.time, self.name, confidence=report.confidence)
        deadline = report.metrics["deadline"]
        if deadline - report.time > self.act_within_s:
            # too early: re-evaluate closer to the deadline
            return Plan(report.time, self.name, confidence=report.confidence)
        job_id = str(knowledge.recall("job_id"))
        if knowledge.recall("extensions_blocked", False):
            if self.checkpoint_fallback and knowledge.recall("supports_checkpoint", True):
                action = Action(
                    "signal_checkpoint",
                    job_id,
                    rationale="extensions exhausted; requesting checkpoint before kill",
                )
                return Plan(
                    report.time, self.name, (action,), report.confidence, action.rationale
                )
            return Plan(report.time, self.name, confidence=report.confidence)
        needed = report.metrics["eta_hi"] - deadline + self.safety_margin_s
        extra = float(min(self.max_extension_s, max(self.min_extension_s, needed)))
        action = Action(
            "request_extension",
            job_id,
            params={"extra_s": extra},
            rationale=f"forecast overrun {overrun.evidence}; requesting +{extra:.0f}s",
        )
        return Plan(report.time, self.name, (action,), report.confidence, action.rationale)


class SchedulerExecutor(Executor):
    """Executes extension/checkpoint actions against the scheduler.

    Denials are remembered in Knowledge (``extensions_blocked``) so the
    planner can pivot to the checkpoint fallback — the loop "needs
    awareness of whether or not the request was honored".
    """

    name = "scheduler-executor"

    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler

    def execute(self, plan: Plan, knowledge: KnowledgeBase) -> List[ExecutionResult]:
        results: List[ExecutionResult] = []
        now = self.scheduler.engine.now
        for action in plan.actions:
            if action.kind == "request_extension":
                response = self.scheduler.request_extension(
                    action.target, action.param("extra_s")
                )
                if response.denied:
                    knowledge.remember("extensions_blocked", True)
                results.append(
                    ExecutionResult(
                        action,
                        now,
                        honored=not response.denied,
                        detail=response.reason,
                        response={"granted_s": response.granted_s},
                    )
                )
            elif action.kind == "signal_checkpoint":
                ok = self.scheduler.signal_checkpoint(action.target)
                if ok:
                    knowledge.remember("checkpoint_requested", True)
                results.append(
                    ExecutionResult(
                        action, now, honored=ok, detail="checkpoint started" if ok else "no hook"
                    )
                )
            else:
                results.append(
                    ExecutionResult(action, now, honored=False, detail=f"unknown kind {action.kind}")
                )
        return results


@dataclass
class SchedulerCaseConfig:
    """Assembly options for the Scheduler case."""

    forecaster_name: str = "ols"
    loop_period_s: float = 60.0
    safety_margin_s: float = 300.0
    act_within_s: float = 1800.0
    checkpoint_fallback: bool = True
    min_confidence: float = 0.0  # 0 disables the confidence gate
    budget_max_extensions: int = 3
    budget_max_total_s: float = 7200.0
    phase_latency: PhaseLatency = field(default_factory=PhaseLatency)


def scheduler_job_spec(
    job_id: str,
    *,
    config: Optional[SchedulerCaseConfig] = None,
    knowledge: Optional[KnowledgeBase] = None,
    executor: Optional[Executor] = None,
    scheduler: Optional[Scheduler] = None,
    extra_guard_factories: Sequence = (),
    on_iteration=None,
    start_at: Optional[float] = None,
    priority: int = 0,
) -> LoopSpec:
    """Declarative per-job spec for the Scheduler case.

    The Monitor phase is five grouped instant queries over the job's
    lifecycle gauges (published by
    :class:`~repro.loops.bridges.SchedulerTelemetryBridge`) plus a
    cursor-tracked ``samples`` read of the mirrored progress-marker
    series — the paper's side channel consumed through the query layer.
    Each job's loop is phase-aligned to its own start time, so its reads
    are normally alone at their tick and the hub executes them directly.
    """
    cfg = config if config is not None else SchedulerCaseConfig()
    if executor is None:
        if scheduler is None:
            raise ValueError("pass either an executor or a scheduler to build one from")
        executor = SchedulerExecutor(scheduler)

    def _gauge(inputs, slot: str) -> Optional[float]:
        result = inputs[slot]
        return result.scalar() if result.series else None

    def build(now: float, inputs) -> Optional[Observation]:
        # per-monitor memory (not a spec-closure dict): the spec can be
        # instantiated again without inheriting another instance's markers
        state = inputs["_memory"]
        running = _gauge(inputs, "running")
        if running is None or running < 1.0:
            return None
        deadline = _gauge(inputs, "deadline")
        limit = _gauge(inputs, "limit")
        start = _gauge(inputs, "start")
        if deadline is None or limit is None or start is None:
            return None
        times, steps = inputs["markers"]
        new_markers = [
            ProgressMarker(job_id, float(t), float(s)) for t, s in zip(times, steps)
        ]
        if times.size:
            state["last"] = (float(times[-1]), float(steps[-1]))
        values: Dict[str, float] = {
            "deadline": deadline,
            "time_limit_s": limit,
            "start_time": start,
        }
        last = state.get("last")
        if last is not None:
            values["last_step"] = last[1]
            values["last_marker_time"] = last[0]
            total = _gauge(inputs, "total")
            if total:
                values["total_steps"] = total
        return Observation(
            now,
            f"progress-monitor-{job_id}",
            values=values,
            context={"new_markers": new_markers, "job_id": job_id},
        )

    selector = f'{{job="{job_id}"}}'
    return LoopSpec(
        name=f"sched-case-{job_id}",
        priority=priority,
        queries=(
            MonitorQuery("running", f"last(job_running{selector}) group by (job)"),
            MonitorQuery("deadline", f"last(job_deadline_s{selector}) group by (job)"),
            MonitorQuery("limit", f"last(job_time_limit_s{selector}) group by (job)"),
            MonitorQuery("start", f"last(job_start_time_s{selector}) group by (job)"),
            MonitorQuery("total", f"last(job_progress_total{selector}) group by (job)"),
            MonitorQuery("markers", f"last(job_progress_steps{selector})", mode="samples"),
        ),
        build_observation=build,
        analyzer_factory=lambda: ProgressAnalyzer(forecaster_name=cfg.forecaster_name),
        planner_factory=lambda: ExtensionPlanner(
            safety_margin_s=cfg.safety_margin_s,
            act_within_s=cfg.act_within_s,
            checkpoint_fallback=cfg.checkpoint_fallback,
        ),
        executor_factory=lambda: executor,
        knowledge_factory=(lambda: knowledge) if knowledge is not None else None,
        guard_factories=tuple(extra_guard_factories),
        period_s=cfg.loop_period_s,
        phase_latency=cfg.phase_latency,
        start_at=start_at,
        on_iteration=on_iteration,
    )


class SchedulerCaseManager:
    """Spawns one loop per running job on the runtime; assesses at job end.

    Thin compat wrapper: each job start registers a
    :func:`scheduler_job_spec` with the hosted
    :class:`~repro.core.runtime.LoopRuntime`; job end removes it and
    scores its plans.  The marker channel is mirrored into the runtime's
    store so the monitors consume markers through the query layer.
    """

    def __init__(
        self,
        engine: Engine,
        scheduler: Scheduler,
        channel: ProgressMarkerChannel,
        *,
        config: Optional[SchedulerCaseConfig] = None,
        audit: Optional[AuditTrail] = None,
        shared_knowledge: Optional[KnowledgeBase] = None,
        executor_factory=None,
        notifier: Optional[HumanOnTheLoopNotifier] = None,
        runtime: Optional[LoopRuntime] = None,
        priority: int = 0,
    ) -> None:
        self.engine = engine
        self.scheduler = scheduler
        self.channel = channel
        self.config = config if config is not None else SchedulerCaseConfig()
        self.audit = audit
        self.shared = shared_knowledge if shared_knowledge is not None else KnowledgeBase()
        self.executor_factory = executor_factory
        self.notifier = notifier
        self.priority = priority
        self.runtime = LoopRuntime.for_case(
            engine, runtime=runtime, store=channel.mirror_store, audit=audit
        )
        if channel.mirror_store is None:
            channel.attach_mirror(self.runtime.store)
        elif channel.mirror_store is not self.runtime.store:
            # monitors read markers from the runtime's store; a foreign
            # mirror would leave them silently blind
            raise ValueError(
                "marker channel mirrors into a different store than the "
                "shared runtime queries"
            )
        self.bridge = SchedulerTelemetryBridge(scheduler, self.runtime.store)
        self.loops: Dict[str, MAPEKLoop] = {}
        self._handles: Dict[str, LoopHandle] = {}
        self.assessments: List[float] = []
        scheduler.on_job_start.append(self._job_started)
        scheduler.on_job_end.append(self._job_ended)

    # ------------------------------------------------------------ lifecycle
    def _job_started(self, job: Job) -> None:
        cfg = self.config
        knowledge = KnowledgeBase()
        knowledge.remember("job_id", job.job_id)
        knowledge.remember("supports_checkpoint", job.profile.supports_checkpoint)
        knowledge.run_history = self.shared.run_history  # shared priors
        prior = self.shared.run_history.predict_runtime(
            self._features(job), app_name=job.profile.name
        )
        if prior is not None:
            knowledge.remember("runtime_prior", prior[0])
        guard_factories = [
            lambda: ActionBudgetGuard(
                kinds={"request_extension"},
                max_actions_per_target=cfg.budget_max_extensions,
                max_amount_per_target=cfg.budget_max_total_s,
                amount_param="extra_s",
            )
        ]
        if cfg.min_confidence > 0:
            guard_factories.append(lambda: ConfidenceGuard(cfg.min_confidence))
        executor = (
            self.executor_factory(self.scheduler)
            if self.executor_factory is not None
            else SchedulerExecutor(self.scheduler)
        )
        on_iteration = None
        if self.notifier is not None:
            # human-ON-the-loop (Section IV): the loop acts autonomously
            # and the operator receives explanations asynchronously
            def on_iteration(iteration, _job_id=job.job_id):
                if iteration.acted and iteration.plan is not None:
                    self.notifier.notify(
                        self.engine.now,
                        f"sched-case-{_job_id}",
                        iteration.plan.rationale or "action executed",
                        confidence=iteration.plan.confidence,
                        honored=any(r.honored for r in iteration.results),
                    )

        spec = scheduler_job_spec(
            job.job_id,
            config=cfg,
            knowledge=knowledge,
            executor=executor,
            extra_guard_factories=guard_factories,
            on_iteration=on_iteration,
            start_at=self.engine.now + cfg.loop_period_s,
            priority=self.priority,
        )
        handle = self.runtime.add(spec, start=True)
        self._handles[job.job_id] = handle
        self.loops[job.job_id] = handle.loop

    def _job_ended(self, job: Job) -> None:
        handle = self._handles.pop(job.job_id, None)
        loop = self.loops.pop(job.job_id, None)
        if handle is None or loop is None:
            return
        self.runtime.remove(handle.spec.name)
        self._assess(job, loop.knowledge)
        self.shared.run_history.add(
            JobRecord(
                job.job_id,
                job.profile.name,
                self._features(job),
                runtime_s=job.runtime or 0.0,
                succeeded=job.state is JobState.COMPLETED,
            )
        )

    # ------------------------------------------------------------ knowledge
    @staticmethod
    def _features(job: Job) -> Dict[str, float]:
        return {
            "n_nodes": float(job.n_nodes),
            "walltime_request_s": float(job.walltime_request_s),
            "total_steps": float(job.profile.total_steps),
        }

    def _assess(self, job: Job, knowledge: KnowledgeBase) -> None:
        """Score every extension plan against what actually happened.

        A granted extension scores by how much of it was *needed*: the
        ideal grant covers the true overrun with modest headroom.  A
        rescued job (would have timed out, completed after extension)
        scores near 1; an extension on a job that timed out anyway, or
        mostly-unused padding, scores low.
        """
        now = self.engine.now
        for outcome in knowledge.unassessed_outcomes():
            granted = sum(
                r.response.get("granted_s", 0.0) for r in outcome.results if r.honored
            )
            if granted <= 0:
                # denied plans: neutral-low (the loop learned the hook's limits)
                knowledge.assess_outcome(outcome, 0.3, now)
                self.assessments.append(0.3)
                continue
            if job.state is JobState.COMPLETED:
                used = max(0.0, (job.end_time - job.start_time) - job.walltime_request_s)
                efficiency = min(1.0, used / granted) if granted > 0 else 0.0
                score = 0.5 + 0.5 * efficiency  # completion dominates
            elif job.state is JobState.TIMEOUT:
                score = 0.1  # extension spent, job still lost
            else:
                score = 0.3
            knowledge.assess_outcome(outcome, score, now)
            self.assessments.append(score)

    # ----------------------------------------------------------------- stats
    def active_loops(self) -> int:
        return len(self.loops)

    def mean_assessment(self) -> Optional[float]:
        if not self.assessments:
            return None
        return sum(self.assessments) / len(self.assessments)

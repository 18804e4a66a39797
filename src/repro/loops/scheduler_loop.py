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
from typing import Dict, List, Optional

from repro.analytics.forecast import make_forecaster
from repro.cluster.job import Job, JobState
from repro.cluster.scheduler import Scheduler
from repro.core.component import Analyzer, Executor, Planner
from repro.core.confidence import combined_confidence
from repro.core.guards import ActionBudgetGuard, ConfidenceGuard, Guard
from repro.core.humanloop import HumanOnTheLoopNotifier
from repro.core.knowledge import KnowledgeBase, PlanOutcome
from repro.core.loop import PhaseLatency
from repro.core.runtime import LoopRuntime, LoopSpec, MonitorQuery
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
from repro.telemetry.markers import ProgressMarker, ProgressMarkerChannel


class ProgressAnalyzer(Analyzer):
    """Forecasts time-to-completion and diagnoses predicted overruns."""

    def __init__(self, *, forecaster_name: str = "ols") -> None:
        self.forecaster = make_forecaster(forecaster_name)
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
    executor: Executor,
    knowledge: Optional[KnowledgeBase] = None,
    on_iteration=None,
    start_at: Optional[float] = None,
) -> LoopSpec:
    """Declarative per-job spec for the Scheduler case.

    The Monitor phase is five grouped instant queries over the job's
    lifecycle gauges (published by
    :class:`~repro.loops.bridges.SchedulerTelemetryBridge`) plus a
    cursor-tracked ``samples`` read of the mirrored progress-marker
    series — the paper's side channel consumed through the query layer.
    Each job's loop is phase-aligned to its own start time, so its reads
    are normally alone at their tick and the hub executes them directly.

    The extension budget (and the confidence gate, when
    ``min_confidence`` > 0) is one guard instance per spec, like
    ``knowledge``: a restarted loop keeps what the job has already spent.
    """
    cfg = config if config is not None else SchedulerCaseConfig()
    guards: List[Guard] = [
        ActionBudgetGuard(
            kinds={"request_extension"},
            max_actions_per_target=cfg.budget_max_extensions,
            max_amount_per_target=cfg.budget_max_total_s,
            amount_param="extra_s",
        )
    ]
    if cfg.min_confidence > 0:
        guards.append(ConfidenceGuard(cfg.min_confidence))

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
        guard_factories=tuple((lambda guard=guard: guard) for guard in guards),
        period_s=cfg.loop_period_s,
        phase_latency=cfg.phase_latency,
        start_at=start_at,
        on_iteration=on_iteration,
    )


def host_scheduler_case(
    runtime: LoopRuntime,
    scheduler: Scheduler,
    channel: ProgressMarkerChannel,
    *,
    config: Optional[SchedulerCaseConfig] = None,
    executor_factory=None,
    notifier: Optional[HumanOnTheLoopNotifier] = None,
) -> KnowledgeBase:
    """Host the Scheduler case on ``runtime``: one loop per running job.

    The marker channel is mirrored into the runtime's store (it raises
    if it already mirrors elsewhere) so the monitors consume markers
    through the query layer.  Each job start adds a
    :func:`scheduler_job_spec` named ``sched-case-<job_id>``, first
    ticking one period later; each job end removes it, scores its plans
    and records the run.  Returns the case's shared knowledge: the run
    history every job's priors come from, and every scored plan outcome
    (``effectiveness()`` is the mean assessment).
    """
    cfg = config if config is not None else SchedulerCaseConfig()
    engine = runtime.engine
    shared = KnowledgeBase()
    channel.attach_mirror(runtime.store)
    SchedulerTelemetryBridge(scheduler, runtime.store)

    def job_started(job: Job) -> None:
        knowledge = KnowledgeBase()
        knowledge.remember("job_id", job.job_id)
        knowledge.remember("supports_checkpoint", job.profile.supports_checkpoint)
        knowledge.run_history = shared.run_history  # shared priors
        prior = shared.run_history.predict_runtime(_features(job), app_name=job.profile.name)
        if prior is not None:
            knowledge.remember("runtime_prior", prior[0])
        executor = (
            executor_factory(scheduler)
            if executor_factory is not None
            else SchedulerExecutor(scheduler)
        )
        name = f"sched-case-{job.job_id}"
        on_iteration = None
        if notifier is not None:
            # human-ON-the-loop (Section IV): the loop acts autonomously
            # and the operator receives explanations asynchronously
            def on_iteration(iteration):
                if iteration.acted and iteration.plan is not None:
                    notifier.notify(
                        engine.now,
                        name,
                        iteration.plan.rationale or "action executed",
                        confidence=iteration.plan.confidence,
                        honored=any(r.honored for r in iteration.results),
                    )

        spec = scheduler_job_spec(
            job.job_id,
            config=cfg,
            knowledge=knowledge,
            executor=executor,
            on_iteration=on_iteration,
            start_at=engine.now + cfg.loop_period_s,
        )
        runtime.add(spec, start=True)

    def job_ended(job: Job) -> None:
        handle = runtime.remove(f"sched-case-{job.job_id}")
        if handle is None:
            return
        shared.plan_outcomes.extend(_assess(job, handle.loop.knowledge, engine.now))
        shared.run_history.add(
            JobRecord(
                job.job_id,
                job.profile.name,
                _features(job),
                runtime_s=job.runtime or 0.0,
                succeeded=job.state is JobState.COMPLETED,
            )
        )

    scheduler.on_job_start.append(job_started)
    scheduler.on_job_end.append(job_ended)
    return shared


def _features(job: Job) -> Dict[str, float]:
    return {
        "n_nodes": float(job.n_nodes),
        "walltime_request_s": float(job.walltime_request_s),
        "total_steps": float(job.profile.total_steps),
    }


def _assess(job: Job, knowledge: KnowledgeBase, now: float) -> List[PlanOutcome]:
    """Score every extension plan against what actually happened.

    A granted extension scores by how much of it was *needed*: the
    ideal grant covers the true overrun with modest headroom.  A
    rescued job (would have timed out, completed after extension)
    scores near 1; an extension on a job that timed out anyway, or
    mostly-unused padding, scores low.  Returns the outcomes scored.
    """
    outcomes = knowledge.unassessed_outcomes()
    for outcome in outcomes:
        granted = sum(r.response.get("granted_s", 0.0) for r in outcome.results if r.honored)
        if granted <= 0:
            # denied plans: neutral-low (the loop learned the hook's limits)
            score = 0.3
        elif job.state is JobState.COMPLETED:
            used = max(0.0, (job.end_time - job.start_time) - job.walltime_request_s)
            score = 0.5 + 0.5 * min(1.0, used / granted)  # completion dominates
        elif job.state is JobState.TIMEOUT:
            score = 0.1  # extension spent, job still lost
        else:
            score = 0.3
        knowledge.assess_outcome(outcome, score, now)
    return outcomes

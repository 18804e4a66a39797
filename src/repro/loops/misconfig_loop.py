"""The Misconfiguration use case (Section III case 4).

Goal: detect "unintended mismatch of threads to cores, underutilization
of CPUs or GPUs, or wrong library search paths"; then either inform the
user with suggestions or correct the configuration on the fly.

The loop sweeps running jobs, builds a :class:`JobConfigView` per job
from launch configuration plus telemetry summaries, runs the rule set
from :mod:`repro.analytics.misconfig`, and plans per-finding responses:
online-fixable findings above ``fix_threshold`` are corrected through
the application hook; everything else becomes a user notification with
the rule's suggestion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analytics.misconfig import (
    JobConfigView,
    MisconfigAnalyzer as RuleEngine,
    MisconfigFinding,
    MisconfigKind,
)
from repro.cluster.scheduler import Scheduler
from repro.core.component import Analyzer, Executor, Monitor, Planner
from repro.core.humanloop import HumanOnTheLoopNotifier
from repro.core.knowledge import KnowledgeBase
from repro.core.runtime import LoopSpec
from repro.core.types import (
    Action,
    AnalysisReport,
    ExecutionResult,
    Observation,
    Plan,
    Symptom,
)
from repro.query.engine import QueryEngine
from repro.query.model import LabelMatcher, MetricQuery
from repro.sim.engine import Engine
from repro.telemetry.tsdb import TimeSeriesStore


@dataclass
class MisconfigCaseConfig:
    """Observation and response policy for the misconfiguration loop."""

    observation_window_s: float = 600.0
    min_runtime_s: float = 300.0  # don't judge jobs younger than this
    fix_threshold: float = 0.5  # severity at/above which online fixes apply
    online_fixes_enabled: bool = True  # False = advise-only deployment
    loop_period_s: float = 300.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fix_threshold <= 1.0:
            raise ValueError("fix_threshold must be in [0, 1]")


class JobConfigMonitor(Monitor):
    """Builds JobConfigViews for running jobs from config + telemetry.

    Utilization summaries come from the query engine: one grouped query
    per job (``mean(node_cpu_util{node=~"..."}[window]) group by (node)``)
    instead of a hand-rolled window scan per node.
    """

    name = "job-config-monitor"

    def __init__(
        self,
        scheduler: Scheduler,
        store: TimeSeriesStore,
        config: MisconfigCaseConfig,
        *,
        query_engine: Optional[QueryEngine] = None,
    ) -> None:
        self.scheduler = scheduler
        self.store = store
        self.config = config
        # Observation windows end at a fresh `now` each tick — run uncached
        # by default so just-ingested telemetry is never served stale.
        self.query_engine = (
            query_engine
            if query_engine is not None
            else QueryEngine(store, enable_cache=False)
        )

    def observe(self, now: float) -> Optional[Observation]:
        views = []
        for job in self.scheduler.running_jobs():
            started = job.start_time if job.start_time is not None else now
            age = now - started
            if age < self.config.min_runtime_s:
                continue
            views.append(self._view(job, now, age))
        if not views:
            return None
        return Observation(
            now, self.name, values={"jobs_inspected": float(len(views))}, context={"views": views}
        )

    def _view(self, job, now: float, age: float) -> JobConfigView:
        window_s = min(age, self.config.observation_window_s)
        utils: List[float] = []
        if window_s > 0 and job.assigned_nodes:  # zero-age jobs have no window yet
            node_pattern = "|".join(re.escape(n) for n in job.assigned_nodes)
            query = MetricQuery(
                "node_cpu_util",
                agg="mean",
                matchers=(LabelMatcher("node", "=~", node_pattern),),
                range_s=window_s,
                group_by=("node",),
            )
            result = self.query_engine.query(query, at=now)
            utils = [float(s.values[-1]) for s in result.series]
        cpu_util = sum(utils) / len(utils) if utils else float("nan")
        node = self.scheduler.nodes[job.assigned_nodes[0]]
        threads = job.launch.threads if job.launch.threads is not None else node.spec.cores
        gpu_util = float("nan")
        if node.spec.gpus > 0:
            app = self.scheduler.app(job.job_id)
            if app is not None:
                gpu_util = (
                    0.0
                    if (app.profile.uses_gpu and not job.launch.gpu_offload_enabled)
                    else (0.9 if app.profile.uses_gpu else 0.0)
                )
        return JobConfigView(
            job_id=job.job_id,
            cores_allocated=node.spec.cores,
            gpus_allocated=node.spec.gpus,
            mem_allocated_gb=node.spec.mem_gb,
            threads_requested=threads,
            library_paths=job.launch.library_paths,
            expected_libraries=job.launch.expected_libraries,
            cpu_util_mean=cpu_util,
            gpu_util_mean=gpu_util,
            mem_used_gb_p95=float("nan"),
            observation_s=min(age, self.config.observation_window_s),
        )


class MisconfigLoopAnalyzer(Analyzer):
    """Runs the rule engine over observed job views."""

    name = "misconfig-analyzer"

    def __init__(self) -> None:
        self.rules = RuleEngine()
        self.findings_by_job: Dict[str, List[MisconfigFinding]] = {}

    def analyze(self, observation: Observation, knowledge: KnowledgeBase) -> AnalysisReport:
        symptoms = []
        all_findings: List[MisconfigFinding] = []
        for view in observation.context.get("views", ()):
            findings = self.rules.analyze(view)
            if findings:
                self.findings_by_job[view.job_id] = findings
                all_findings.extend(findings)
                worst = findings[0]
                symptoms.append(
                    Symptom(
                        f"misconfig:{view.job_id}",
                        worst.severity,
                        evidence=f"{worst.kind.value}: {worst.explanation}",
                    )
                )
        knowledge.remember("latest_findings", all_findings)
        return AnalysisReport(
            observation.time,
            self.name,
            tuple(symptoms),
            metrics={"findings": float(len(all_findings))},
            confidence=1.0,
        )


class InformOrFixPlanner(Planner):
    """Per finding: online fix above threshold, advisory otherwise."""

    name = "inform-or-fix-planner"

    def __init__(self, config: MisconfigCaseConfig) -> None:
        self.config = config

    def plan(self, report: AnalysisReport, knowledge: KnowledgeBase) -> Plan:
        findings: List[MisconfigFinding] = knowledge.recall("latest_findings", [])
        actions = []
        for finding in findings:
            handled = knowledge.recall(f"handled:{finding.job_id}:{finding.kind.value}", False)
            if handled:
                continue
            action = self._response_for(finding)
            if action is not None:
                actions.append(action)
                knowledge.remember(f"handled:{finding.job_id}:{finding.kind.value}", True)
        rationale = "; ".join(a.rationale for a in actions[:3])
        return Plan(report.time, self.name, tuple(actions), 1.0, rationale)

    def _response_for(self, finding: MisconfigFinding) -> Optional[Action]:
        fix_worthy = (
            self.config.online_fixes_enabled
            and finding.fixable_online
            and finding.severity >= self.config.fix_threshold
        )
        if fix_worthy and finding.kind is MisconfigKind.THREAD_CORE_MISMATCH:
            return Action(
                "fix_threads",
                finding.job_id,
                params=dict(finding.fix_params),
                rationale=f"{finding.kind.value}: {finding.suggestion}",
            )
        if fix_worthy and finding.kind is MisconfigKind.WRONG_LIBRARY_PATH:
            return Action(
                "fix_library",
                finding.job_id,
                rationale=f"{finding.kind.value}: {finding.suggestion}",
            )
        return Action(
            "notify_user",
            finding.job_id,
            rationale=f"{finding.kind.value}: {finding.explanation} — {finding.suggestion}",
        )


class FixOrNotifyExecutor(Executor):
    """Applies fixes through the app hook; routes advisories to the notifier."""

    name = "fix-or-notify-executor"

    def __init__(
        self,
        engine: Engine,
        scheduler: Scheduler,
        notifier: Optional[HumanOnTheLoopNotifier] = None,
    ) -> None:
        self.engine = engine
        self.scheduler = scheduler
        self.notifier = notifier
        self.fixes_applied = 0
        self.notifications_sent = 0

    def execute(self, plan: Plan, knowledge: KnowledgeBase) -> List[ExecutionResult]:
        now = self.engine.now
        results = []
        for action in plan.actions:
            if action.kind in ("fix_threads", "fix_library"):
                app = self.scheduler.app(action.target)
                if app is None:
                    results.append(ExecutionResult(action, now, honored=False, detail="job gone"))
                    continue
                if action.kind == "fix_threads":
                    threads = int(action.param("threads", 0))
                    if threads <= 0:
                        results.append(
                            ExecutionResult(action, now, honored=False, detail="no thread count")
                        )
                        continue
                    app.apply_thread_fix(threads)
                    detail = f"threads set to {threads}"
                else:
                    app.apply_library_fix()
                    detail = "site libraries prepended"
                self.fixes_applied += 1
                results.append(ExecutionResult(action, now, honored=True, detail=detail))
            elif action.kind == "notify_user":
                self.notifications_sent += 1
                if self.notifier is not None:
                    self.notifier.notify(now, "misconfig-case", action.rationale)
                results.append(ExecutionResult(action, now, honored=True, detail="user notified"))
            else:
                results.append(ExecutionResult(action, now, honored=False, detail="unknown kind"))
        return results


def misconfig_case_spec(
    engine: Engine,
    scheduler: Scheduler,
    *,
    config: Optional[MisconfigCaseConfig] = None,
    notifier: Optional[HumanOnTheLoopNotifier] = None,
) -> LoopSpec:
    """Declarative spec for the Misconfiguration case.

    Per-job utilization views need one grouped query per running job
    with an age-dependent window, so the spec wires a
    ``monitor_factory`` reading through the runtime's shared hub — the
    hub shares one widened pass among the per-job ``node_cpu_util``
    selections of a tick whose windows are equal (converged, or jobs of
    one age).
    """
    config = config if config is not None else MisconfigCaseConfig()
    return LoopSpec(
        name="misconfig-case",
        monitor_factory=lambda runtime: JobConfigMonitor(
            scheduler, runtime.store, config, query_engine=runtime.hub
        ),
        analyzer_factory=MisconfigLoopAnalyzer,
        planner_factory=lambda: InformOrFixPlanner(config),
        executor_factory=lambda: FixOrNotifyExecutor(engine, scheduler, notifier),
        period_s=config.loop_period_s,
    )

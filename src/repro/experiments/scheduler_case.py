"""Scheduler-case scenario (experiments E3, E8, E11, E12).

One function runs the whole Fig. 3 experiment under a selectable
response mode:

* ``none``        — status quo: underestimated jobs time out.
* ``padding``     — static mitigation: every request inflated up front.
* ``human``       — the loop plans, but a simulated operator must approve
                    (reaction latency / availability / approval model).
* ``autonomous``  — the MAPE-K loop acts directly (the paper's target).
* ``oracle``      — perfect information upper bound: exactly the needed
                    extension granted right before the deadline.

Resubmission with checkpoint restart runs in every mode, so the metric
differences come from the response channel, not retry behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.checkpoint import CheckpointStore
from repro.cluster.job import Job, JobState
from repro.cluster.node import Node, NodeSpec
from repro.cluster.scheduler import (
    ExtensionPolicy,
    Scheduler,
    SchedulerConfig,
)
from repro.core.humanloop import HumanInTheLoopExecutor, HumanResponseModel
from repro.core.knowledge import KnowledgeBase
from repro.core.runtime import LoopRuntime
from repro.experiments.metrics import JobOutcomeSummary
from repro.loops.scheduler_loop import (
    SchedulerCaseConfig,
    SchedulerExecutor,
    host_scheduler_case,
)
from repro.sim import Engine, RngRegistry
from repro.telemetry.markers import ProgressMarkerChannel
from repro.workloads.generator import (
    MisestimationModel,
    ResubmitPolicy,
    WorkloadGenerator,
    WorkloadSpec,
)

MODES = ("none", "padding", "human", "autonomous", "oracle")


@dataclass
class SchedulerScenarioConfig:
    """Parameters of one scheduler-case run."""

    seed: int = 0
    mode: str = "autonomous"
    n_nodes: int = 16
    n_jobs: int = 40
    horizon_s: float = 500_000.0
    pad_factor: float = 1.5  # padding mode: request inflation
    misestimation_mu: float = -0.15  # bias toward underestimation
    misestimation_sigma: float = 0.35
    forecaster_name: str = "ols"
    loop_period_s: float = 60.0
    budget_max_extensions: int = 3
    budget_max_total_s: float = 14_400.0
    deny_prob: float = 0.0
    human_median_latency_s: float = 1800.0
    human_availability: float = 0.7
    max_resubmits: int = 2

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.pad_factor < 1.0:
            raise ValueError("pad_factor must be >= 1")


def run_scheduler_scenario(cfg: SchedulerScenarioConfig) -> Dict[str, float]:
    """Run the scenario; returns a metrics row."""
    engine = Engine()
    rngs = RngRegistry(seed=cfg.seed)
    channel = ProgressMarkerChannel()
    checkpoints = CheckpointStore()
    policy = ExtensionPolicy(
        max_extensions_per_job=10,  # site-side generous; loop guards budget
        max_total_extension_s=100_000.0,
        deny_prob=cfg.deny_prob,
        rng=rngs.stream("deny") if cfg.deny_prob > 0 else None,
    )
    nodes = [Node(f"n{i:03d}", NodeSpec()) for i in range(cfg.n_nodes)]
    scheduler = Scheduler(
        engine,
        nodes,
        config=SchedulerConfig(extension_policy=policy),
        marker_channel=channel,
        checkpoint_store=checkpoints,
        rng=rngs.stream("scheduler"),
    )
    spec = WorkloadSpec(
        n_jobs=cfg.n_jobs,
        misestimation=MisestimationModel(mu=cfg.misestimation_mu, sigma=cfg.misestimation_sigma),
    )
    generator = WorkloadGenerator(engine, scheduler, rngs.stream("workload"), spec)
    resubmit = ResubmitPolicy(
        engine,
        scheduler,
        checkpoint_store=checkpoints,
        max_resubmits_per_job=cfg.max_resubmits,
    )

    shared: Optional[KnowledgeBase] = None
    human: Dict[str, HumanInTheLoopExecutor] = {}
    if cfg.mode == "padding":
        _install_padding(generator, cfg.pad_factor)
    elif cfg.mode in ("autonomous", "human"):
        case_cfg = SchedulerCaseConfig(
            forecaster_name=cfg.forecaster_name,
            loop_period_s=cfg.loop_period_s,
            budget_max_extensions=cfg.budget_max_extensions,
            budget_max_total_s=cfg.budget_max_total_s,
        )
        executor_factory = None
        if cfg.mode == "human":
            model = HumanResponseModel(
                median_latency_s=cfg.human_median_latency_s,
                availability=cfg.human_availability,
            )
            human_rng = rngs.stream("human")

            def executor_factory(sched, _model=model, _rng=human_rng):
                executor = HumanInTheLoopExecutor(
                    engine, SchedulerExecutor(sched), _model, _rng
                )
                human[f"exec-{len(human)}"] = executor
                return executor

        shared = host_scheduler_case(
            LoopRuntime(engine),
            scheduler,
            channel,
            config=case_cfg,
            executor_factory=executor_factory,
        )
    elif cfg.mode == "oracle":
        _install_oracle(engine, scheduler)

    generator.start()
    engine.run(until=cfg.horizon_s)

    summary = JobOutcomeSummary.from_scheduler(scheduler, cfg.horizon_s)
    row: Dict[str, float] = {"mode": cfg.mode, "seed": cfg.seed}
    row.update(summary.as_row())
    row["resubmissions"] = resubmit.resubmissions
    row["underestimated"] = len(generator.underestimated_jobs())
    if human:
        row["human_dropped"] = sum(h.plans_dropped_unavailable for h in human.values())
        row["human_approved"] = sum(h.plans_executed for h in human.values())
    if shared is not None:
        assessed = shared.effectiveness()
        row["mean_assessment"] = assessed if assessed is not None else float("nan")
    return row


def _install_padding(generator: WorkloadGenerator, pad_factor: float) -> None:
    """Inflate every request before submission (static baseline)."""
    original = generator.make_job

    def padded() -> Job:
        job = original()
        job.walltime_request_s *= pad_factor
        job.time_limit_s = job.walltime_request_s
        return job

    generator.make_job = padded  # type: ignore[method-assign]


def _install_oracle(engine: Engine, scheduler: Scheduler) -> None:
    """Perfect-information upper bound: exact extension just in time."""

    margin = 120.0

    def arm(job: Job) -> None:
        engine.schedule_at(max(engine.now, job.deadline - margin), rescue, job)

    def rescue(job: Job) -> None:
        if job.state is not JobState.RUNNING:
            return
        app = scheduler.app(job.job_id)
        if app is None:
            return
        app._advance(engine.now)
        remaining = app.remaining_seconds_nominal()
        available = job.deadline - engine.now
        if remaining > available:
            response = scheduler.request_extension(
                job.job_id, remaining - available + margin
            )
            if not response.denied:
                arm(job)  # re-arm at the new deadline (noise can still bite)

    scheduler.on_job_start.append(arm)

"""Misconfiguration scenario (experiment E7).

Generates a labelled population of jobs — some well-configured, some
with known misconfigurations — runs the Misconfiguration loop, and
scores detection precision/recall plus the core-hours recovered by
online fixes.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analytics.misconfig import MisconfigKind
from repro.cluster.application import ApplicationProfile, LaunchConfig
from repro.cluster.job import Job, JobState
from repro.cluster.node import Node, NodeSpec
from repro.cluster.scheduler import Scheduler
from repro.core.runtime import LoopRuntime
from repro.experiments.metrics import detection_metrics
from repro.loops.misconfig_loop import MisconfigCaseConfig, misconfig_case_spec
from repro.sim import Engine, RngRegistry
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

#: misconfiguration kinds injected by the generator, with launch builders
_INJECTIONS = {
    "thread_core_mismatch": lambda cores: LaunchConfig(threads=max(1, cores // 8)),
    "wrong_library_path": lambda cores: LaunchConfig(
        library_paths=("generic-blas",), expected_libraries=("site-blas",)
    ),
}


def run_misconfig_scenario(
    *,
    seed: int = 0,
    n_jobs: int = 24,
    misconfig_fraction: float = 0.5,
    with_fixes: bool = True,
    horizon_s: float = 30_000.0,
) -> Dict[str, float]:
    engine = Engine()
    rngs = RngRegistry(seed=seed)
    rng = rngs.stream("misconfig")
    store = TimeSeriesStore()
    n_nodes = n_jobs  # one node per job: every job runs immediately
    nodes = [Node(f"n{i:03d}", NodeSpec(cores=32)) for i in range(n_nodes)]
    scheduler = Scheduler(engine, nodes, rng=rngs.stream("scheduler"))
    # the case joins an explicit control plane: fused per-job utilization
    # queries, arbitration, and self-telemetry all flow through it
    control_plane = LoopRuntime(engine, store)
    case = control_plane.add(
        misconfig_case_spec(
            engine,
            scheduler,
            config=MisconfigCaseConfig(
                loop_period_s=120.0,
                min_runtime_s=300.0,
                observation_window_s=600.0,
                online_fixes_enabled=with_fixes,
            ),
        )
    )
    case.start()

    truth: Set[Tuple[str, str]] = set()
    jobs: List[Job] = []
    kinds = sorted(_INJECTIONS)
    for i in range(n_jobs):
        job_id = f"j{i:03d}"
        runtime = float(rng.uniform(4000.0, 8000.0))
        profile = ApplicationProfile(
            f"app{i % 4}", runtime, 1.0, marker_period_s=60.0, rate_noise_std=0.05
        )
        if rng.random() < misconfig_fraction:
            kind = kinds[int(rng.integers(len(kinds)))]
            launch = _INJECTIONS[kind](32)
            truth.add((job_id, kind))
        else:
            launch = LaunchConfig()
        job = Job(job_id, f"user{i % 4}", profile, walltime_request_s=runtime * 10, launch=launch)
        jobs.append(job)
        scheduler.submit(job)

    # per-node utilization telemetry derived from the running apps
    def sample() -> None:
        for node in nodes:
            util = 0.0
            if node.running_job_id is not None:
                app = scheduler.app(node.running_job_id)
                if app is not None and app.running:
                    util = min(1.0, app.current_rate() / app.profile.base_step_rate)
            store.insert(SeriesKey.of("node_cpu_util", node=node.node_id), engine.now, util)

    engine.every(60.0, sample)
    engine.run(until=horizon_s)

    analyzer = case.loop.analyzer
    predicted: Set[Tuple[str, str]] = set()
    for job_id, findings in analyzer.findings_by_job.items():
        for finding in findings:
            if finding.kind in (
                MisconfigKind.THREAD_CORE_MISMATCH,
                MisconfigKind.WRONG_LIBRARY_PATH,
            ):
                predicted.add((job_id, finding.kind.value))
    det = detection_metrics(predicted, truth)

    completed = [j for j in jobs if j.state is JobState.COMPLETED]
    mis_jobs = [j for j in jobs if any(j.job_id == jid for jid, _ in truth)]
    mis_completed = [j for j in mis_jobs if j.state is JobState.COMPLETED]
    mean_runtime_mis = (
        sum(j.runtime for j in mis_completed) / len(mis_completed) if mis_completed else float("nan")
    )
    hub_stats = control_plane.hub.stats()
    return {
        "with_fixes": with_fixes,
        "seed": seed,
        "n_jobs": float(n_jobs),
        "n_misconfigured": float(len(truth)),
        "precision": det["precision"],
        "recall": det["recall"],
        "f1": det["f1"],
        "fixes_applied": float(case.loop.executor.fixes_applied),
        "notifications": float(case.loop.executor.notifications_sent),
        "completed": float(len(completed)),
        "mean_runtime_misconfigured_s": mean_runtime_mis,
        "monitor_fused_served": hub_stats["fused_served"],
        "monitor_queries_executed": hub_stats["engine_served_raw"]
        + hub_stats["engine_served_rollup"],
    }

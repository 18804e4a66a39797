"""Maintenance scenario (experiment E4).

Long-running jobs meet a scheduled maintenance window.  Without the
loop, jobs on affected nodes are killed with all progress lost and must
restart from scratch; with the loop, a checkpoint lands before the
window and resubmitted jobs resume from it.  The headline metrics are
lost node-hours and time-to-finish for the affected work.
"""

from __future__ import annotations

from typing import Dict, List


from repro.cluster.application import ApplicationProfile
from repro.cluster.checkpoint import CheckpointStore
from repro.cluster.job import Job, JobState
from repro.cluster.maintenance import MaintenanceEvent, MaintenanceManager
from repro.cluster.node import Node, NodeSpec
from repro.cluster.scheduler import Scheduler
from repro.core.runtime import LoopRuntime
from repro.loops.bridges import MaintenanceTelemetryBridge
from repro.loops.maintenance_loop import maintenance_case_spec
from repro.sim import Engine, RngRegistry
from repro.workloads.generator import ResubmitPolicy


def run_maintenance_scenario(
    *,
    with_loop: bool,
    seed: int = 0,
    n_nodes: int = 8,
    n_jobs: int = 8,
    job_runtime_s: float = 20_000.0,
    maintenance_at_s: float = 8_000.0,
    maintenance_duration_s: float = 3_600.0,
    announce_lead_s: float = 3_600.0,
    checkpoint_cost_s: float = 120.0,
    horizon_s: float = 80_000.0,
) -> Dict[str, float]:
    engine = Engine()
    rngs = RngRegistry(seed=seed)
    checkpoints = CheckpointStore()
    nodes = [Node(f"n{i:02d}", NodeSpec()) for i in range(n_nodes)]
    scheduler = Scheduler(
        engine, nodes, checkpoint_store=checkpoints, rng=rngs.stream("scheduler")
    )
    maintenance = MaintenanceManager(engine, scheduler)
    resubmit = ResubmitPolicy(
        engine, scheduler, checkpoint_store=checkpoints, max_resubmits_per_job=3
    )
    if with_loop:
        runtime = LoopRuntime(engine)
        MaintenanceTelemetryBridge(scheduler, maintenance, runtime.store)
        runtime.add(maintenance_case_spec(scheduler)).start()  # 120 s period

    rng = rngs.stream("jobs")
    jobs: List[Job] = []
    for i in range(n_jobs):
        runtime = job_runtime_s * float(rng.uniform(0.9, 1.1))
        profile = ApplicationProfile(
            f"app{i % 2}",
            total_steps=runtime,
            base_step_rate=1.0,
            marker_period_s=60.0,
            checkpoint_cost_s=checkpoint_cost_s,
        )
        job = Job(
            f"j{i:02d}", f"user{i}", profile, walltime_request_s=runtime * 1.5
        )
        jobs.append(job)
        scheduler.submit(job)

    maintenance.schedule_event(
        MaintenanceEvent(
            frozenset(n.node_id for n in nodes),
            t_start=maintenance_at_s,
            duration_s=maintenance_duration_s,
            announce_lead_s=announce_lead_s,
        )
    )
    engine.run(until=horizon_s)

    killed = [j for j in jobs if j.state is JobState.KILLED_MAINTENANCE]
    # lost work: steps that had to be redone = final_step - restart point of
    # the resubmitted clone (0 without a checkpoint)
    lost_node_seconds = 0.0
    for j in killed:
        saved = checkpoints.restart_step(j.user, j.profile.name)
        lost_steps = max(0.0, (j.final_step or 0.0) - saved)
        lost_node_seconds += (lost_steps / j.profile.base_step_rate) * j.n_nodes
    # completion time of the original workload (including resubmitted clones)
    finished_work = [j for j in scheduler.jobs.values() if j.state is JobState.COMPLETED]
    makespan = max((j.end_time for j in finished_work), default=float("nan"))
    return {
        "with_loop": with_loop,
        "seed": seed,
        "jobs_killed_by_maintenance": float(len(killed)),
        "checkpoints_saved": float(checkpoints.total_saved),
        "lost_node_hours": lost_node_seconds / 3600.0,
        "resubmissions": float(resubmit.resubmissions),
        "work_completed": float(len(finished_work)),
        "makespan_s": float(makespan),
    }

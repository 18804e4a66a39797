"""Interchangeability experiment (E12, methodology questions i–ii).

Runs the Scheduler-case loop once per forecaster, naming the forecaster
in the case config without touching any other component, checks that
the loop the runtime hosts analyzes with that forecaster, and verifies
every combination still rescues the reference job.  This is the
operational proof of "interchangeable components over defined
interfaces".
"""

from __future__ import annotations

from typing import Dict, List

from repro.analytics.forecast import forecaster_names
from repro.cluster.application import ApplicationProfile
from repro.cluster.job import Job, JobState
from repro.cluster.node import Node, NodeSpec
from repro.cluster.scheduler import Scheduler
from repro.loops.scheduler_loop import SchedulerCaseConfig, SchedulerCaseManager
from repro.sim import Engine
from repro.telemetry.markers import ProgressMarkerChannel


def run_interchange_matrix(
    *,
    runtime_s: float = 2400.0,
    walltime_s: float = 1800.0,
    horizon_s: float = 8000.0,
) -> List[Dict[str, float]]:
    """One row per forecaster: the same loop skeleton, one component swapped."""
    rows = []
    for name in forecaster_names():
        engine = Engine()
        channel = ProgressMarkerChannel()
        scheduler = Scheduler(
            engine, [Node("n0", NodeSpec())], marker_channel=channel
        )
        case = SchedulerCaseManager(
            engine,
            scheduler,
            channel,
            config=SchedulerCaseConfig(forecaster_name=name, loop_period_s=60.0),
        )
        # the forecaster of the loop the job actually got
        hosted = []
        scheduler.on_job_start.append(
            lambda job: hosted.append(case.loops[job.job_id].analyzer.forecaster.name)
        )
        profile = ApplicationProfile(
            "ref-app", runtime_s, 1.0, marker_period_s=30.0, rate_noise_std=0.03
        )
        job = Job("ref", "alice", profile, walltime_request_s=walltime_s)
        scheduler.submit(job)
        engine.run(until=horizon_s)
        rows.append(
            {
                "forecaster": name,
                "forecaster_in_loop": hosted == [name],
                "rescued": job.state is JobState.COMPLETED,
                "extensions": float(job.extension_count),
                "extension_s": job.total_extension_s,
                "runtime_s": job.runtime if job.runtime is not None else float("nan"),
            }
        )
    return rows

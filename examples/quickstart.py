#!/usr/bin/env python3
"""Quickstart: one underestimated job, rescued by the Scheduler loop.

This is the paper's Fig. 3 in ~40 lines: an application emits progress
markers, a MAPE-K loop forecasts its completion, notices the walltime
will not suffice, and asks the scheduler for an extension — which the
scheduler may grant, shorten, or deny.

Run:  python examples/quickstart.py
"""

from repro.cluster import ApplicationProfile, Job, NodeSpec, Node, Scheduler
from repro.core import AuditTrail, LoopRuntime
from repro.loops import SchedulerCaseConfig, host_scheduler_case
from repro.sim import Engine
from repro.telemetry import ProgressMarkerChannel


def main() -> None:
    engine = Engine()
    channel = ProgressMarkerChannel()
    audit = AuditTrail()

    # a 4-node mini cluster with a SLURM-like scheduler
    nodes = [Node(f"n{i}", NodeSpec(cores=32)) for i in range(4)]
    scheduler = Scheduler(engine, nodes, marker_channel=channel)

    # attach the Scheduler-case autonomy loop (one loop per running job)
    host_scheduler_case(
        LoopRuntime(engine, audit=audit),
        scheduler,
        channel,
        config=SchedulerCaseConfig(forecaster_name="ols", loop_period_s=60.0),
    )

    # the user thinks their job needs 1 hour; it actually needs ~100 minutes
    app = ApplicationProfile(
        name="solver",
        total_steps=6000.0,
        base_step_rate=1.0,  # → ~6000 s true runtime
        marker_period_s=30.0,
    )
    job = Job("job-001", "alice", app, walltime_request_s=3600.0)
    scheduler.submit(job)

    engine.run(until=20_000.0)

    print(f"job state        : {job.state.value}")
    print(f"requested wall   : {job.walltime_request_s:.0f} s")
    print(f"final time limit : {job.time_limit_s:.0f} s")
    print(f"actual runtime   : {job.runtime:.0f} s")
    print(f"extensions       : {job.extension_count} "
          f"(+{job.total_extension_s:.0f} s granted)")
    print("\naudit trail:")
    for event in audit.events:
        print("  " + event.render())
    assert job.state.value == "completed", "the loop should have rescued this job"


if __name__ == "__main__":
    main()

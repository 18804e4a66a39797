#!/usr/bin/env python3
"""Misconfiguration case: detect bad job configs, advise or fix online.

Three jobs start on the cluster: one well-configured, one running 4
threads on 32 allocated cores, one missing the site BLAS from its
library path.  The Misconfiguration loop inspects launch configuration
plus utilization telemetry, fixes what it safely can on the fly, and
notifies the user about the rest (the paper's use case 4).

Run:  python examples/misconfig_advisor.py
"""

from repro.cluster import ApplicationProfile, Job, LaunchConfig, Node, NodeSpec, Scheduler
from repro.core import AuditTrail, LoopRuntime
from repro.core.humanloop import HumanOnTheLoopNotifier
from repro.loops import MisconfigCaseConfig, misconfig_case_spec
from repro.sim import Engine
from repro.telemetry import ProgressMarkerChannel, SeriesKey, TimeSeriesStore


def main() -> None:
    engine = Engine()
    store = TimeSeriesStore()
    channel = ProgressMarkerChannel()
    audit = AuditTrail()
    notifier = HumanOnTheLoopNotifier(audit)
    nodes = [Node(f"n{i}", NodeSpec(cores=32)) for i in range(3)]
    scheduler = Scheduler(engine, nodes, marker_channel=channel)

    case = LoopRuntime(engine, store, audit=audit).add(
        misconfig_case_spec(
            engine,
            scheduler,
            config=MisconfigCaseConfig(loop_period_s=120.0, min_runtime_s=300.0),
            notifier=notifier,
        )
    )
    case.start()

    profile = ApplicationProfile("solver", 20_000.0, 1.0, marker_period_s=60.0)
    jobs = [
        Job("good", "carol", profile, walltime_request_s=50_000.0, launch=LaunchConfig()),
        Job("few-threads", "dave", profile, walltime_request_s=50_000.0,
            launch=LaunchConfig(threads=4)),
        Job("wrong-libs", "erin", profile, walltime_request_s=50_000.0,
            launch=LaunchConfig(library_paths=("generic-blas",),
                                expected_libraries=("site-blas",))),
    ]
    for job in jobs:
        scheduler.submit(job)

    # node utilization telemetry reflecting each app's effective rate
    def sample() -> None:
        for node in nodes:
            util = 0.0
            if node.running_job_id:
                app = scheduler.app(node.running_job_id)
                if app is not None and app.running:
                    util = min(1.0, app.current_rate() / app.profile.base_step_rate)
            store.insert(SeriesKey.of("node_cpu_util", node=node.node_id), engine.now, util)

    engine.every(60.0, sample)
    engine.run(until=3000.0)

    executor = case.loop.executor
    print(f"online fixes applied : {executor.fixes_applied}")
    print(f"user notifications   : {executor.notifications_sent}")
    print("\nper-job effective throughput after the loop ran:")
    for job in jobs:
        app = scheduler.app(job.job_id)
        rate = app.current_rate() / profile.base_step_rate if app else 0.0
        print(f"  {job.job_id:12s} -> {rate:4.0%} of nominal")
    print("\naudit/notifications:")
    for event in audit.events:
        print("  " + event.render())
    assert executor.fixes_applied >= 2  # both broken jobs were repaired


if __name__ == "__main__":
    main()

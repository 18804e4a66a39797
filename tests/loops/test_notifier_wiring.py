"""Tests for human-on-the-loop notification wiring in the Scheduler case."""


from repro.cluster.application import ApplicationProfile
from repro.cluster.job import Job, JobState
from repro.cluster.node import Node, NodeSpec
from repro.cluster.scheduler import Scheduler
from repro.core.audit import AuditTrail
from repro.core.humanloop import HumanOnTheLoopNotifier
from repro.core.runtime import LoopRuntime
from repro.loops.scheduler_loop import SchedulerCaseConfig, host_scheduler_case
from repro.sim import Engine
from repro.telemetry.markers import ProgressMarkerChannel


def run_case(notifier=None, runtime=2000.0, walltime=1500.0):
    engine = Engine()
    channel = ProgressMarkerChannel()
    scheduler = Scheduler(engine, [Node("n0", NodeSpec())], marker_channel=channel)
    host_scheduler_case(
        LoopRuntime(engine),
        scheduler,
        channel,
        config=SchedulerCaseConfig(loop_period_s=60.0),
        notifier=notifier,
    )
    profile = ApplicationProfile("app", runtime, 1.0, marker_period_s=30.0)
    job = Job("j1", "alice", profile, walltime_request_s=walltime)
    scheduler.submit(job)
    engine.run(until=8000.0)
    return job


def test_autonomous_actions_notify_the_operator():
    audit = AuditTrail()
    notifier = HumanOnTheLoopNotifier(audit)
    job = run_case(notifier)
    assert job.state is JobState.COMPLETED  # still fully autonomous
    assert notifier.notifications >= 1
    events = audit.by_phase("notify")
    assert any("overrun" in e.message or "extension" in e.message.lower() or e.data
               for e in events)
    # explanations carry decision metadata for the operator
    assert all("confidence" in e.data for e in events)


def test_no_notifications_when_loop_never_acts():
    audit = AuditTrail()
    notifier = HumanOnTheLoopNotifier(audit)
    job = run_case(notifier, runtime=500.0, walltime=2000.0)  # well-estimated
    assert job.state is JobState.COMPLETED
    assert notifier.notifications == 0


def test_notifier_optional():
    job = run_case(notifier=None)
    assert job.state is JobState.COMPLETED

"""Robustness: autonomy loops keep operating under node failures.

Section IV: "Resilience is essential in HPC systems where operations
must persist through component and subsystem failures."  These tests
inject node failures while the Scheduler-case loops run and verify the
system degrades gracefully: no crashes, failed jobs accounted, surviving
jobs still rescued, loops cleaned up.
"""


from repro.cluster.application import ApplicationProfile
from repro.cluster.failures import FailureInjector
from repro.cluster.job import Job, JobState
from repro.cluster.node import Node, NodeSpec
from repro.cluster.scheduler import Scheduler
from repro.core.runtime import LoopRuntime
from repro.loops import SchedulerCaseConfig, host_scheduler_case
from repro.sim import Engine, RngRegistry
from repro.telemetry.markers import ProgressMarkerChannel
from repro.workloads.generator import ResubmitPolicy, WorkloadGenerator, WorkloadSpec


def test_scheduler_loops_survive_node_failures():
    engine = Engine()
    rngs = RngRegistry(seed=13)
    channel = ProgressMarkerChannel()
    nodes = [Node(f"n{i}", NodeSpec()) for i in range(8)]
    scheduler = Scheduler(engine, nodes, marker_channel=channel, rng=rngs.stream("sched"))
    runtime = LoopRuntime(engine)
    host_scheduler_case(
        runtime, scheduler, channel, config=SchedulerCaseConfig(loop_period_s=60.0)
    )
    injector = FailureInjector(
        engine, scheduler, rngs.stream("fail"), mtbf_node_s=20_000.0, repair_time_s=2_000.0
    )
    injector.start()
    generator = WorkloadGenerator(
        engine, scheduler, rngs.stream("wl"), WorkloadSpec(n_jobs=20)
    )
    ResubmitPolicy(engine, scheduler, resubmit_states=(JobState.TIMEOUT, JobState.FAILED))
    generator.start()
    engine.run(until=400_000.0)

    stats = scheduler.stats
    assert len(injector.records) > 0, "failures must actually have been injected"
    # conservation: every started job reached a terminal state
    terminal = stats.completed + stats.timeout + stats.failed + stats.killed_maintenance
    assert terminal == stats.submitted
    # the loop manager cleaned up after every ended job
    assert len(runtime.handles) == len(scheduler.running_jobs())
    # despite failures, the loop still rescued underestimated jobs
    assert stats.extensions_granted > 0
    assert stats.completed > 0


def test_loop_handles_job_killed_mid_cycle():
    """A job dying between Monitor and Execute must not break the loop."""
    engine = Engine()
    channel = ProgressMarkerChannel()
    scheduler = Scheduler(engine, [Node("n0", NodeSpec())], marker_channel=channel)
    from repro.core.loop import PhaseLatency

    runtime = LoopRuntime(engine)
    host_scheduler_case(
        runtime,
        scheduler,
        channel,
        config=SchedulerCaseConfig(
            loop_period_s=60.0,
            # long decision delay: the job can die while a plan is in flight
            phase_latency=PhaseLatency(analyze_s=30.0, plan_s=20.0),
        ),
    )
    profile = ApplicationProfile("app", 5000.0, 1.0, marker_period_s=30.0)
    job = Job("j1", "u", profile, walltime_request_s=3000.0)
    scheduler.submit(job)
    # kill the node shortly after a monitor tick fires
    engine.schedule(2000.0 + 10.0, scheduler.fail_node, "n0")
    engine.run(until=10_000.0)
    assert job.state is JobState.FAILED
    assert len(runtime.handles) == 0  # loop stopped cleanly


def test_failed_then_resubmitted_job_gets_new_loop():
    engine = Engine()
    channel = ProgressMarkerChannel()
    scheduler = Scheduler(engine, [Node("n0", NodeSpec()), Node("n1", NodeSpec())],
                          marker_channel=channel)
    host_scheduler_case(
        LoopRuntime(engine), scheduler, channel, config=SchedulerCaseConfig(loop_period_s=60.0)
    )
    ResubmitPolicy(
        engine, scheduler,
        resubmit_states=(JobState.FAILED,), resubmit_delay_s=100.0,
    )
    profile = ApplicationProfile("app", 3000.0, 1.0, marker_period_s=30.0)
    job = Job("j1", "u", profile, walltime_request_s=2000.0)  # underestimated
    scheduler.submit(job)
    engine.schedule(500.0, scheduler.fail_node, "n0")
    engine.schedule(600.0, scheduler.repair_node, "n0")
    engine.run(until=30_000.0)
    assert job.state is JobState.FAILED
    clone = scheduler.jobs.get("j1-r1")
    assert clone is not None
    # the clone got its own loop and was rescued by an extension
    assert clone.state is JobState.COMPLETED
    assert clone.extension_count >= 1

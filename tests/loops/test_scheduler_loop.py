"""Tests for the Scheduler use case (Fig. 3) — loop + cluster integration."""

import pytest

from repro.cluster.application import ApplicationProfile, PhaseChange
from repro.cluster.job import Job, JobState
from repro.cluster.node import Node, NodeSpec
from repro.cluster.scheduler import Scheduler, SchedulerConfig
from repro.core.audit import AuditTrail
from repro.core.runtime import LoopRuntime
from repro.loops.scheduler_loop import SchedulerCaseConfig, host_scheduler_case
from repro.sim import Engine
from repro.telemetry.markers import ProgressMarkerChannel


def setup_case(
    runtime_s=2000.0,
    walltime_s=1500.0,
    n_nodes_cluster=2,
    config=None,
    profile_kw=None,
    scheduler_config=None,
):
    eng = Engine()
    channel = ProgressMarkerChannel()
    nodes = [Node(f"n{i}", NodeSpec()) for i in range(n_nodes_cluster)]
    sched = Scheduler(
        eng, nodes, config=scheduler_config or SchedulerConfig(), marker_channel=channel
    )
    runtime = LoopRuntime(eng)
    shared = host_scheduler_case(
        runtime, sched, channel, config=config or SchedulerCaseConfig(loop_period_s=60.0)
    )
    prof_kw = dict(
        name="app",
        total_steps=runtime_s,
        base_step_rate=1.0,
        marker_period_s=30.0,
        checkpoint_cost_s=30.0,
    )
    if profile_kw:
        prof_kw.update(profile_kw)
    profile = ApplicationProfile(**prof_kw)
    job = Job("j1", "alice", profile, walltime_request_s=walltime_s)
    return eng, sched, runtime, shared, job


class TestSchedulerCaseEndToEnd:
    def test_rescues_underestimated_job(self):
        """The headline behaviour: a job that would TIMEOUT completes."""
        eng, sched, runtime, shared, job = setup_case(runtime_s=2000.0, walltime_s=1500.0)
        sched.submit(job)
        eng.run(until=5000.0)
        assert job.state is JobState.COMPLETED
        assert job.extension_count >= 1
        assert job.time_limit_s > job.walltime_request_s
        assert sched.stats.extensions_granted >= 1

    def test_without_loop_job_times_out(self):
        eng = Engine()
        channel = ProgressMarkerChannel()
        sched = Scheduler(eng, [Node("n0", NodeSpec())], marker_channel=channel)
        profile = ApplicationProfile("app", 2000.0, 1.0, marker_period_s=30.0)
        job = Job("j1", "alice", profile, walltime_request_s=1500.0)
        sched.submit(job)
        eng.run(until=5000.0)
        assert job.state is JobState.TIMEOUT

    def test_well_estimated_job_not_extended(self):
        eng, sched, runtime, shared, job = setup_case(runtime_s=1000.0, walltime_s=1500.0)
        sched.submit(job)
        eng.run(until=5000.0)
        assert job.state is JobState.COMPLETED
        assert job.extension_count == 0

    def test_loop_stops_when_job_ends(self):
        eng, sched, runtime, shared, job = setup_case(runtime_s=500.0, walltime_s=800.0)
        sched.submit(job)
        eng.run(until=5000.0)
        assert len(runtime.handles) == 0

    def test_budget_guard_limits_extensions(self):
        cfg = SchedulerCaseConfig(
            loop_period_s=60.0, budget_max_extensions=1, budget_max_total_s=600.0,
            checkpoint_fallback=False,
        )
        # monstrously underestimated: would need many extensions
        eng, sched, runtime, shared, job = setup_case(
            runtime_s=6000.0, walltime_s=1000.0, config=cfg
        )
        sched.submit(job)
        eng.run(until=10000.0)
        assert job.extension_count <= 1
        assert job.state is JobState.TIMEOUT  # budget was not enough

    def test_restart_keeps_extension_budget(self):
        """A restarted per-job loop does not get a fresh extension budget."""
        cfg = SchedulerCaseConfig(
            loop_period_s=60.0, budget_max_extensions=1, checkpoint_fallback=False
        )
        # slows to half rate after the first extension: needs a second one
        eng, sched, runtime, shared, job = setup_case(
            runtime_s=2000.0, walltime_s=1500.0, config=cfg,
            profile_kw=dict(phases=(PhaseChange(0.5, 0.5),)),
        )
        granted = []

        def restart_after_first(job, response):
            granted.append(eng.now)
            if len(granted) == 1:
                eng.schedule(1.0, runtime.restart, "sched-case-j1")

        sched.on_extension.append(restart_after_first)
        sched.submit(job)
        eng.run(until=10000.0)
        assert runtime.handles == {} and len(granted) == 1
        assert job.extension_count == 1

    def test_checkpoint_fallback_after_denial(self):
        from repro.cluster.scheduler import ExtensionPolicy

        # site policy: no extensions at all
        policy = ExtensionPolicy(max_extensions_per_job=0)
        eng, sched, runtime, shared, job = setup_case(
            runtime_s=2000.0,
            walltime_s=1500.0,
            scheduler_config=SchedulerConfig(extension_policy=policy),
        )
        sched.submit(job)
        eng.run(until=5000.0)
        assert job.state is JobState.TIMEOUT  # still killed...
        # the checkpoint fallback fired: knowledge says so and the app saved state
        assert sched.stats.extensions_denied >= 1

    def test_phase_change_handled_by_forecaster(self):
        """A job that slows down mid-run still gets rescued."""
        cfg = SchedulerCaseConfig(loop_period_s=60.0, forecaster_name="ewma")
        eng, sched, runtime, shared, job = setup_case(
            runtime_s=1000.0,  # nominal 1000s, but second half at half rate → 1500s
            walltime_s=1200.0,
            config=cfg,
            profile_kw=dict(phases=(PhaseChange(0.5, 0.5),)),
        )
        sched.submit(job)
        eng.run(until=6000.0)
        assert job.state is JobState.COMPLETED
        assert job.extension_count >= 1

    def test_run_history_accumulates(self):
        eng, sched, runtime, shared, job = setup_case(runtime_s=500.0, walltime_s=800.0)
        sched.submit(job)
        eng.run(until=2000.0)
        assert len(shared.run_history) == 1
        rec = shared.run_history.records()[0]
        assert rec.succeeded
        assert rec.runtime_s == pytest.approx(500.0, rel=0.02)

    def test_assessment_scores_recorded(self):
        eng, sched, runtime, shared, job = setup_case(runtime_s=2000.0, walltime_s=1500.0)
        sched.submit(job)
        eng.run(until=5000.0)
        # extension assessed at job end
        assert [o.score for o in shared.plan_outcomes if o.score is not None]
        assert shared.effectiveness() > 0.5  # rescue scored well

    def test_audit_trail_populated(self):
        audit = AuditTrail()
        eng = Engine()
        channel = ProgressMarkerChannel()
        sched = Scheduler(eng, [Node("n0", NodeSpec())], marker_channel=channel)
        host_scheduler_case(
            LoopRuntime(eng, audit=audit), sched, channel,
            config=SchedulerCaseConfig(loop_period_s=60.0),
        )
        profile = ApplicationProfile("app", 2000.0, 1.0, marker_period_s=30.0)
        job = Job("j1", "alice", profile, walltime_request_s=1500.0)
        sched.submit(job)
        eng.run(until=5000.0)
        assert audit.by_phase("execute")
        assert any("request_extension" in e.message for e in audit.by_phase("execute"))

    def test_multiple_concurrent_jobs_each_get_loops(self):
        eng = Engine()
        channel = ProgressMarkerChannel()
        nodes = [Node(f"n{i}", NodeSpec()) for i in range(3)]
        sched = Scheduler(eng, nodes, marker_channel=channel)
        loop_runtime = LoopRuntime(eng)
        host_scheduler_case(
            loop_runtime, sched, channel, config=SchedulerCaseConfig(loop_period_s=60.0)
        )
        jobs = []
        for i, runtime in enumerate([2000.0, 1800.0, 400.0]):
            profile = ApplicationProfile(f"app{i}", runtime, 1.0, marker_period_s=30.0)
            job = Job(f"j{i}", "alice", profile, walltime_request_s=1500.0)
            jobs.append(job)
            sched.submit(job)
        eng.run(until=100.0)
        assert len(loop_runtime.handles) == 3
        eng.run(until=8000.0)
        assert jobs[0].state is JobState.COMPLETED  # rescued
        assert jobs[1].state is JobState.COMPLETED  # rescued
        assert jobs[2].state is JobState.COMPLETED  # never needed help
        assert jobs[2].extension_count == 0

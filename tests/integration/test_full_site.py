"""Full-site integration: all five autonomy loops on one simulated site.

The paper's end state is a site where multiple MODA autonomy loops run
concurrently over shared substrates.  This test deploys the Scheduler,
Maintenance, Misconfiguration, OST, and I/O-QoS loops on one engine and
verifies each one acted correctly without interfering with the others.
All five share one ``LoopRuntime`` (one store, hub and arbiter); a guard
test rebuilds the site with a private runtime per case and requires the
same behaviour.
"""

import pytest

from repro.cluster.application import ApplicationProfile, LaunchConfig
from repro.cluster.checkpoint import CheckpointStore
from repro.cluster.job import Job, JobState
from repro.cluster.maintenance import MaintenanceEvent, MaintenanceManager
from repro.cluster.node import Node, NodeSpec
from repro.cluster.scheduler import Scheduler
from repro.core.audit import AuditTrail
from repro.core.runtime import LoopRuntime
from repro.loops import (
    FilesystemTelemetryBridge,
    IoQosConfig,
    MaintenanceTelemetryBridge,
    MisconfigCaseConfig,
    OstCaseConfig,
    SchedulerCaseConfig,
    host_scheduler_case,
    io_qos_spec,
    maintenance_case_spec,
    misconfig_case_spec,
    ost_case_spec,
)
from repro.sim import Engine
from repro.storage import AppIoClient, OST, OstState, ParallelFileSystem, PeriodicWriter
from repro.telemetry.markers import ProgressMarkerChannel
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore


def build_site(shared: bool):
    """Run the site with all five cases on one runtime, or one runtime each."""
    engine = Engine()
    audit = AuditTrail()
    store = TimeSeriesStore()
    channel = ProgressMarkerChannel()
    checkpoints = CheckpointStore()

    # --- substrates -----------------------------------------------------
    nodes = [Node(f"n{i:02d}", NodeSpec(cores=32)) for i in range(8)]
    fs = ParallelFileSystem(engine, [OST(f"ost{i}", 1000.0) for i in range(6)])
    scheduler = Scheduler(
        engine,
        nodes,
        marker_channel=channel,
        checkpoint_store=checkpoints,
        io_client_factory=lambda job: AppIoClient(fs, job.job_id),
    )
    maintenance = MaintenanceManager(engine, scheduler)

    # storage-side tenants
    deadline_writer = PeriodicWriter(engine, fs, "workflow", size_mb=800.0, period_s=60.0, stripe_count=2)
    bg_writer = PeriodicWriter(engine, fs, "bg0", size_mb=15000.0, period_s=30.0, stripe_count=4)
    deadline_writer.start(start_at=5.0)
    bg_writer.start()

    # --- the five loops ---------------------------------------------------
    site_runtime = LoopRuntime(engine, store, audit=audit) if shared else None

    def runtime(case_store=None):
        if shared:
            return site_runtime
        return LoopRuntime(engine, case_store, audit=audit)

    sched_runtime = runtime()
    knowledge = host_scheduler_case(
        sched_runtime, scheduler, channel, config=SchedulerCaseConfig(loop_period_s=60.0)
    )
    job_loops = {}
    scheduler.on_job_start.append(
        lambda job: job_loops.update(
            {job.job_id: sched_runtime.handles[f"sched-case-{job.job_id}"].loop}
        )
    )
    maint_runtime = runtime()
    MaintenanceTelemetryBridge(scheduler, maintenance, maint_runtime.store)
    maint_case = maint_runtime.add(maintenance_case_spec(scheduler))  # 120 s period
    maint_case.start()
    misconfig_case = runtime(store).add(
        misconfig_case_spec(
            engine, scheduler,
            config=MisconfigCaseConfig(loop_period_s=120.0, min_runtime_s=300.0),
        )
    )
    misconfig_case.start()
    ost_runtime = runtime()
    FilesystemTelemetryBridge(fs, ost_runtime.store)
    ost_case = ost_runtime.add(
        ost_case_spec(
            engine, fs, [deadline_writer, bg_writer], config=OstCaseConfig(loop_period_s=60.0)
        )
    )
    ost_case.start()
    qos_case = runtime().add(
        io_qos_spec(
            fs, [deadline_writer, bg_writer],
            config=IoQosConfig(latency_target_s=3.0, loop_period_s=60.0),
        )
    )
    qos_case.start()

    # --- workload ----------------------------------------------------------
    underestimated = Job(
        "under", "alice",
        ApplicationProfile("solver", 4000.0, 1.0, marker_period_s=30.0),
        walltime_request_s=3000.0,
    )
    misconfigured = Job(
        "misconf", "bob",
        ApplicationProfile("mesher", 30_000.0, 1.0, marker_period_s=60.0),
        walltime_request_s=60_000.0,
        launch=LaunchConfig(threads=4),
    )
    long_runner = Job(
        "longrun", "carol",
        ApplicationProfile("climate", 40_000.0, 1.0, marker_period_s=60.0,
                           checkpoint_cost_s=60.0),
        walltime_request_s=60_000.0,
    )
    io_job = Job(
        "iojob", "dave",
        ApplicationProfile("writer-app", 6000.0, 1.0, marker_period_s=60.0,
                           io_every_s=500.0, io_size_mb=1000.0),
        walltime_request_s=20_000.0,
    )
    for job in (underestimated, misconfigured, long_runner, io_job):
        scheduler.submit(job)

    # utilization telemetry for the misconfiguration loop
    def sample():
        for node in nodes:
            util = 0.0
            if node.running_job_id:
                app = scheduler.app(node.running_job_id)
                if app is not None and app.running:
                    util = min(1.0, app.current_rate() / app.profile.base_step_rate)
            store.insert(SeriesKey.of("node_cpu_util", node=node.node_id), engine.now, util)

    engine.every(60.0, sample)

    # events: degrade an OST under the deadline writer, then maintenance on
    # the long-runner's nodes
    def degrade():
        victim = deadline_writer.file.stripe_osts[0]
        fs.set_ost_state(victim, OstState.DEGRADED, 0.05)
        return victim

    victims = {}
    engine.schedule_at(900.0, lambda: victims.update(ost=degrade()))

    def schedule_maintenance():
        maintenance.schedule_event(
            MaintenanceEvent(
                frozenset(long_runner.assigned_nodes),
                t_start=6000.0,
                duration_s=1200.0,
                announce_lead_s=2400.0,
            )
        )

    engine.schedule_at(3000.0, schedule_maintenance)
    engine.run(until=12_000.0)

    return dict(
        engine=engine, scheduler=scheduler, audit=audit, checkpoints=checkpoints,
        deadline_writer=deadline_writer, victims=victims,
        jobs=dict(under=underestimated, misconf=misconfigured,
                  longrun=long_runner, iojob=io_job),
        cases=dict(maint=maint_case, misconfig=misconfig_case, ost=ost_case, qos=qos_case),
        knowledge=knowledge, job_loops=job_loops,
        fs=fs,
    )


@pytest.fixture(scope="module")
def site():
    return build_site(shared=True)


def trace(loop):
    """Every executed action of a loop: (time, kind, target, params, honored)."""
    return [
        (it.t_execute, r.action.kind, r.action.target, dict(r.action.params), r.honored)
        for it in loop.iterations
        for r in it.results
    ]


def behaviour(site):
    """What the site did: job outcomes, case knowledge, every loop's actions."""
    jobs = {
        job_id: (job.state, job.extension_count, job.total_extension_s, job.end_time)
        for job_id, job in site["scheduler"].jobs.items()
    }
    knowledge = site["knowledge"]
    loops = {**site["job_loops"], **{name: h.loop for name, h in site["cases"].items()}}
    return dict(
        jobs=jobs,
        run_records=knowledge.run_history.records(),
        assessments=[o.score for o in knowledge.plan_outcomes],
        loops={
            name: (loop.iterations_run, loop.actions_executed, trace(loop))
            for name, loop in loops.items()
        },
    )


class TestFullSite:
    def test_scheduler_loop_rescued_underestimated_job(self, site):
        job = site["jobs"]["under"]
        assert job.state is JobState.COMPLETED
        assert job.extension_count >= 1

    def test_misconfig_loop_fixed_thread_count(self, site):
        assert site["cases"]["misconfig"].loop.executor.fixes_applied >= 1
        app = site["scheduler"].app("misconf")
        if app is not None:  # still running at horizon
            assert app.launch.threads == 32

    def test_maintenance_loop_checkpointed_long_runner(self, site):
        job = site["jobs"]["longrun"]
        assert job.state is JobState.KILLED_MAINTENANCE
        record = site["checkpoints"].latest("carol", "climate")
        assert record is not None
        assert record.step > 0

    def test_ost_loop_moved_deadline_writer(self, site):
        victim = site["victims"]["ost"]
        assert victim not in site["deadline_writer"].file.stripe_osts
        assert site["cases"]["ost"].loop.actions_executed >= 1

    def test_qos_loop_throttled_background(self, site):
        assert site["cases"]["qos"].loop.actions_executed >= 1
        allocation = site["fs"].qos.allocation("bg0")
        assert allocation is not None

    def test_io_job_progressed_with_real_writes(self, site):
        job = site["jobs"]["iojob"]
        writes = [t for t in site["fs"].transfers if t.client == "iojob"]
        assert len(writes) >= 3
        assert job.state in (JobState.COMPLETED, JobState.RUNNING)

    def test_audit_covers_all_loops(self, site):
        loops_seen = {e.loop for e in site["audit"].events}
        assert any(name.startswith("sched-case") for name in loops_seen)
        assert "maintenance-case" in loops_seen
        assert "ost-case" in loops_seen
        # misconfig + qos act through their executors; their loop names
        # appear when they planned actions
        assert len(loops_seen) >= 4

    def test_no_loop_starved_another(self, site):
        """Every loop iterated regularly over the whole horizon."""
        cases = site["cases"]
        assert cases["maint"].loop.iterations_run > 50
        assert cases["misconfig"].loop.iterations_run > 50
        assert cases["ost"].loop.iterations_run > 100
        assert cases["qos"].loop.iterations_run > 100

    def test_one_runtime_behaves_as_five(self, site):
        """Hosting the five cases on one runtime changes none of their actions."""
        assert behaviour(site) == behaviour(build_site(shared=False))

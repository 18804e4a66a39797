"""Tests for the Maintenance, I/O-QoS, OST, and Misconfiguration loops."""

import pytest

from repro.cluster.application import ApplicationProfile, LaunchConfig
from repro.cluster.checkpoint import CheckpointStore
from repro.cluster.job import Job, JobState
from repro.cluster.maintenance import MaintenanceEvent, MaintenanceManager
from repro.cluster.node import Node, NodeSpec
from repro.cluster.scheduler import Scheduler
from repro.core.audit import AuditTrail
from repro.core.humanloop import HumanOnTheLoopNotifier
from repro.core.runtime import LoopRuntime
from repro.loops.bridges import FilesystemTelemetryBridge, MaintenanceTelemetryBridge
from repro.loops.io_qos_loop import IoQosConfig, io_qos_spec
from repro.loops.maintenance_loop import MaintenanceCaseConfig, maintenance_case_spec
from repro.loops.misconfig_loop import MisconfigCaseConfig, misconfig_case_spec
from repro.loops.ost_loop import OstCaseConfig, ost_case_spec
from repro.sim import Engine
from repro.storage.client import PeriodicWriter
from repro.storage.filesystem import ParallelFileSystem
from repro.storage.ost import OST, OstState
from repro.telemetry.markers import ProgressMarkerChannel
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore


class TestMaintenanceLoop:
    def _setup(self):
        eng = Engine()
        store = CheckpointStore()
        nodes = [Node(f"n{i}", NodeSpec()) for i in range(2)]
        sched = Scheduler(eng, nodes, checkpoint_store=store)
        maint = MaintenanceManager(eng, sched)
        runtime = LoopRuntime(eng)
        MaintenanceTelemetryBridge(sched, maint, runtime.store)
        config = MaintenanceCaseConfig(period_s=60.0)
        case = runtime.add(maintenance_case_spec(sched, config=config))
        case.start()
        return eng, sched, maint, store, case

    def test_job_checkpointed_before_window(self):
        eng, sched, maint, store, case = self._setup()
        profile = ApplicationProfile(
            "app", 10000.0, 1.0, marker_period_s=60.0, checkpoint_cost_s=60.0
        )
        job = Job("j1", "u", profile, walltime_request_s=12000.0)
        sched.submit(job)
        maint.schedule_event(
            MaintenanceEvent(
                frozenset({"n0", "n1"}), t_start=3000.0, duration_s=600.0, announce_lead_s=1800.0
            )
        )
        eng.run(until=5000.0)
        assert job.state is JobState.KILLED_MAINTENANCE
        record = store.latest("u", "app")
        assert record is not None
        # checkpoint taken close to (but before) the window
        assert 2000.0 < record.step < 3000.0
        assert case.loop.actions_executed >= 1

    def test_without_loop_no_checkpoint(self):
        eng = Engine()
        store = CheckpointStore()
        sched = Scheduler(eng, [Node("n0", NodeSpec())], checkpoint_store=store)
        maint = MaintenanceManager(eng, sched)
        profile = ApplicationProfile("app", 10000.0, 1.0, checkpoint_cost_s=60.0)
        job = Job("j1", "u", profile, walltime_request_s=12000.0)
        sched.submit(job)
        maint.schedule_event(
            MaintenanceEvent(frozenset({"n0"}), 3000.0, 600.0, announce_lead_s=1800.0)
        )
        eng.run(until=5000.0)
        assert job.state is JobState.KILLED_MAINTENANCE
        assert store.latest("u", "app") is None  # all progress lost

    def test_unaffected_job_not_checkpointed(self):
        eng, sched, maint, store, case = self._setup()
        profile = ApplicationProfile("app", 10000.0, 1.0, checkpoint_cost_s=60.0)
        job = Job("j1", "u", profile, walltime_request_s=12000.0)
        sched.submit(job)
        eng.run(until=10.0)
        other_node = "n1" if "n0" in job.assigned_nodes else "n0"
        maint.schedule_event(
            MaintenanceEvent(frozenset({other_node}), 3000.0, 600.0, announce_lead_s=1800.0)
        )
        eng.run(until=5000.0)
        assert job.state is JobState.RUNNING
        assert store.latest("u", "app") is None

    def test_job_finishing_before_window_left_alone(self):
        eng, sched, maint, store, case = self._setup()
        profile = ApplicationProfile("app", 500.0, 1.0, checkpoint_cost_s=60.0)
        job = Job("j1", "u", profile, walltime_request_s=800.0)
        sched.submit(job)
        maint.schedule_event(
            MaintenanceEvent(frozenset({"n0", "n1"}), 3000.0, 600.0, announce_lead_s=2500.0)
        )
        eng.run(until=5000.0)
        assert job.state is JobState.COMPLETED
        assert store.latest("u", "app") is None


class TestIoQosLoop:
    def _setup(self, with_loop=True):
        eng = Engine()
        osts = [OST(f"ost{i}", 500.0) for i in range(4)]
        fs = ParallelFileSystem(eng, osts)
        # deadline workflow: periodic 1000 MB writes; isolation latency is
        # 1.0 s (500 MB/stripe at 500 MB/s); the target is 2.0 s
        workflow = PeriodicWriter(
            eng, fs, "workflow", size_mb=1000.0, period_s=30.0, stripe_count=2
        )
        # two saturating background tenants: huge writes always in flight
        bg1 = PeriodicWriter(eng, fs, "bg1", size_mb=20000.0, period_s=20.0, stripe_count=4)
        bg2 = PeriodicWriter(eng, fs, "bg2", size_mb=20000.0, period_s=20.0, stripe_count=4)
        writers = [workflow, bg1, bg2]
        # stagger starts so workflow writes land while bg writes are in flight
        workflow.start(start_at=5.0)
        bg1.start()
        bg2.start()
        case = None
        if with_loop:
            case = LoopRuntime(eng).add(
                io_qos_spec(
                    fs,
                    writers,
                    config=IoQosConfig(latency_target_s=2.0, loop_period_s=60.0),
                )
            )
            case.start()
        return eng, fs, workflow, [bg1, bg2], case

    def test_without_loop_latency_violates(self):
        eng, fs, workflow, bg, _ = self._setup(with_loop=False)
        eng.run(until=4000.0)
        late = [t.duration for t in workflow.transfers[-10:]]
        assert max(late) > 2.0  # contention pushes past the target

    def test_loop_reduces_deadline_tenant_latency(self):
        eng, fs, workflow, bg, case = self._setup(with_loop=True)
        eng.run(until=4000.0)
        import numpy as np

        latencies = np.array([t.duration for t in workflow.transfers])
        # shaped background: mean well under target, violations rare
        assert float(np.mean(latencies)) < 1.5
        assert float(np.mean(latencies > 2.0)) < 0.2
        assert case.loop.actions_executed > 0
        # background tenants were actually throttled
        rate, _burst = fs.qos.allocation("bg1")
        assert rate < 2000.0

    def test_recovery_when_pressure_stops(self):
        eng, fs, workflow, bg, case = self._setup(with_loop=True)
        eng.run(until=2000.0)
        throttled_rate, _ = fs.qos.allocation("bg1")
        # background stops writing; headroom should restore allocations
        for w in bg:
            w.stop()
        eng.run(until=8000.0)
        recovered_rate, _ = fs.qos.allocation("bg1")
        assert recovered_rate > throttled_rate

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IoQosConfig(decrease_factor=1.5)
        with pytest.raises(ValueError):
            IoQosConfig(latency_target_s=0.0)


class TestOstLoop:
    def _setup(self, with_loop=True):
        eng = Engine()
        osts = [OST(f"ost{i}", 1000.0) for i in range(6)]
        fs = ParallelFileSystem(eng, osts)
        writer = PeriodicWriter(eng, fs, "app", size_mb=500.0, period_s=30.0, stripe_count=2)
        writer.start()
        case = None
        if with_loop:
            runtime = LoopRuntime(eng)
            FilesystemTelemetryBridge(fs, runtime.store)
            case = runtime.add(
                ost_case_spec(
                    eng, fs, [writer], config=OstCaseConfig(loop_period_s=60.0, slow_fraction=0.5)
                )
            )
            case.start()
        return eng, fs, writer, case

    def test_failover_restores_bandwidth(self):
        eng, fs, writer, case = self._setup(with_loop=True)
        eng.run(until=500.0)
        victim = writer.file.stripe_osts[0]
        fs.set_ost_state(victim, OstState.DEGRADED, 0.05)
        eng.run(until=3000.0)
        assert victim not in writer.file.stripe_osts  # moved away
        assert case.loop.actions_executed >= 1
        recent = writer.recent_bandwidth_mbps()
        assert recent > 1000.0  # back to two healthy stripes

    def test_without_loop_bandwidth_stays_low(self):
        eng, fs, writer, _ = self._setup(with_loop=False)
        eng.run(until=500.0)
        victim = writer.file.stripe_osts[0]
        fs.set_ost_state(victim, OstState.DEGRADED, 0.05)
        eng.run(until=3000.0)
        assert victim in writer.file.stripe_osts
        assert writer.recent_bandwidth_mbps() < 500.0

    def test_healthy_system_no_failovers(self):
        eng, fs, writer, case = self._setup(with_loop=True)
        eng.run(until=3000.0)
        assert case.loop.actions_executed == 0
        assert writer.file.restripe_count == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OstCaseConfig(slow_fraction=1.5)


class TestMisconfigLoop:
    def _setup(self, launch, uses_gpu=False, gpus=0):
        eng = Engine()
        store = TimeSeriesStore()
        channel = ProgressMarkerChannel()
        nodes = [Node("n0", NodeSpec(cores=32, gpus=gpus))]
        sched = Scheduler(eng, nodes, marker_channel=channel)
        audit = AuditTrail()
        notifier = HumanOnTheLoopNotifier(audit)
        case = LoopRuntime(eng, store).add(
            misconfig_case_spec(
                eng,
                sched,
                config=MisconfigCaseConfig(
                    loop_period_s=120.0, min_runtime_s=200.0, observation_window_s=300.0
                ),
                notifier=notifier,
            )
        )
        case.start()
        profile = ApplicationProfile(
            "app", 20000.0, 1.0, marker_period_s=60.0, uses_gpu=uses_gpu
        )
        job = Job("j1", "u", profile, walltime_request_s=30000.0, launch=launch)
        sched.submit(job)

        # feed node utilization telemetry that reflects the app's config
        def sample():
            app = sched.app("j1")
            util = 0.0
            if app is not None and app.running:
                util = min(1.0, app.current_rate() / profile.base_step_rate)
            store.insert(SeriesKey.of("node_cpu_util", node="n0"), eng.now, util)

        eng.every(30.0, sample)
        return eng, sched, case, notifier, job

    def test_thread_mismatch_fixed_online(self):
        eng, sched, case, notifier, job = self._setup(LaunchConfig(threads=4))
        eng.run(until=2000.0)
        assert case.loop.executor.fixes_applied >= 1
        app = sched.app("j1")
        assert app.launch.threads == 32  # corrected to the core count
        assert app.current_rate() == pytest.approx(1.0, rel=0.01)

    def test_well_configured_job_untouched(self):
        eng, sched, case, notifier, job = self._setup(LaunchConfig())
        eng.run(until=2000.0)
        assert case.loop.executor.fixes_applied == 0
        assert case.loop.executor.notifications_sent == 0

    def test_judge_immediately_deployment_survives_zero_age(self):
        """min_runtime_s=0 can observe a job the tick it starts (age 0)."""
        eng = Engine()
        store = TimeSeriesStore()
        sched = Scheduler(eng, [Node("n0", NodeSpec(cores=8))])
        case = LoopRuntime(eng, store).add(
            misconfig_case_spec(
                eng, sched, config=MisconfigCaseConfig(loop_period_s=60.0, min_runtime_s=0.0)
            )
        )
        case.start()
        profile = ApplicationProfile("app", 20000.0, 1.0)
        sched.submit(Job("j1", "u", profile, walltime_request_s=30000.0))
        eng.run(until=300.0)  # must not raise on the zero-width window

    def test_wrong_library_fixed_online(self):
        launch = LaunchConfig(
            library_paths=("generic-blas",), expected_libraries=("site-blas",)
        )
        eng, sched, case, notifier, job = self._setup(launch)
        eng.run(until=2000.0)
        assert case.loop.executor.fixes_applied >= 1
        app = sched.app("j1")
        assert "site-blas" in app.launch.library_paths
        assert app.current_rate() == pytest.approx(1.0, rel=0.01)  # penalty gone

    def test_finding_handled_once(self):
        eng, sched, case, notifier, job = self._setup(LaunchConfig(threads=4))
        eng.run(until=6000.0)
        # the same (job, kind) is not re-actioned every cycle
        assert case.loop.executor.fixes_applied == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MisconfigCaseConfig(fix_threshold=2.0)

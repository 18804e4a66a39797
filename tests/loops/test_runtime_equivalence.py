"""Equivalence: runtime-hosted loops vs legacy hand-wired managers.

Each of the five cases is run twice on identically seeded scenarios:

* **legacy** — the pre-runtime wiring: a bare ``MAPEKLoop`` assembled
  from the case's components, with the original direct-read monitors
  (``OstBandwidthMonitor``, ``MaintenanceMonitor``,
  ``JobProgressMonitor``, kept in ``legacy_monitors.py``) or a private
  uncached query engine.
* **runtime** — each case hosted as it ships: its declarative spec
  (and telemetry bridge) added to a ``LoopRuntime``, or
  ``host_scheduler_case`` — fused query hub, arbiter, self-telemetry.

The rewire contract is *exact behavioral parity*: identical iteration
counts and identical executed-action sequences (time, kind, target,
params, honored).
"""

import pytest

from repro.cluster.application import ApplicationProfile, LaunchConfig
from repro.cluster.checkpoint import CheckpointStore
from repro.cluster.job import Job
from repro.cluster.maintenance import MaintenanceEvent, MaintenanceManager
from repro.cluster.node import Node, NodeSpec
from repro.cluster.scheduler import Scheduler
from repro.core.guards import ActionBudgetGuard
from repro.core.knowledge import KnowledgeBase
from repro.core.loop import MAPEKLoop
from repro.core.runtime import LoopRuntime
from repro.loops.bridges import FilesystemTelemetryBridge, MaintenanceTelemetryBridge
from repro.loops.io_qos_loop import (
    AimdQosPlanner,
    IoLoadMonitor,
    IoQosConfig,
    QosAnalyzer,
    QosExecutor,
    io_qos_spec,
)
from repro.loops.maintenance_loop import (
    CheckpointExecutor,
    MaintenanceAnalyzer,
    MaintenanceCaseConfig,
    MaintenancePlanner,
    maintenance_case_spec,
)
from repro.loops.misconfig_loop import (
    FixOrNotifyExecutor,
    InformOrFixPlanner,
    JobConfigMonitor,
    MisconfigCaseConfig,
    MisconfigLoopAnalyzer,
    misconfig_case_spec,
)
from repro.loops.ost_loop import (
    AvoidOstPlanner,
    OstCaseConfig,
    SlowOstAnalyzer,
    WriterExecutor,
    ost_case_spec,
)
from repro.loops.scheduler_loop import (
    ExtensionPlanner,
    ProgressAnalyzer,
    SchedulerCaseConfig,
    SchedulerExecutor,
    host_scheduler_case,
)
from repro.query.engine import QueryEngine
from repro.sim import Engine
from repro.storage.client import PeriodicWriter
from repro.storage.filesystem import ParallelFileSystem
from repro.storage.ost import OST, OstState
from repro.telemetry.markers import ProgressMarkerChannel
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

from tests.loops.legacy_monitors import JobProgressMonitor, MaintenanceMonitor, OstBandwidthMonitor


def trace(loop: MAPEKLoop):
    """The comparable behavior of a loop: every executed action."""
    out = []
    for it in loop.iterations:
        for r in it.results:
            out.append(
                (
                    round(it.t_execute, 9),
                    r.action.kind,
                    r.action.target,
                    tuple(sorted((k, round(v, 9)) for k, v in r.action.params.items())),
                    r.honored,
                )
            )
    return out


# ---------------------------------------------------------------------------
# OST case


def _ost_world(wired: str):
    engine = Engine()
    osts = [OST(f"ost{i}", 1000.0) for i in range(6)]
    fs = ParallelFileSystem(engine, osts)
    writer = PeriodicWriter(engine, fs, "app", size_mb=500.0, period_s=30.0, stripe_count=2)
    writer.start()
    config = OstCaseConfig(loop_period_s=60.0, slow_fraction=0.5)
    if wired == "legacy":
        loop = MAPEKLoop(
            engine,
            "ost-case",
            monitor=OstBandwidthMonitor(fs),
            analyzer=SlowOstAnalyzer(config),
            planner=AvoidOstPlanner([writer]),
            executor=WriterExecutor(engine, [writer]),
            period_s=config.loop_period_s,
        )
        loop.start()
    else:
        runtime = LoopRuntime(engine)
        FilesystemTelemetryBridge(fs, runtime.store)
        case = runtime.add(ost_case_spec(engine, fs, [writer], config=config))
        case.start()
        loop = case.loop
    engine.schedule_at(500.0, lambda: fs.set_ost_state(writer.file.stripe_osts[0], OstState.DEGRADED, 0.05))
    engine.run(until=3000.0)
    return loop


def test_ost_case_equivalent_under_runtime():
    legacy = _ost_world("legacy")
    hosted = _ost_world("runtime")
    assert legacy.iterations_run == hosted.iterations_run
    assert trace(legacy) == trace(hosted)
    assert trace(hosted)  # scenario actually produced failovers


# ---------------------------------------------------------------------------
# Maintenance case


def _maintenance_world(wired: str):
    engine = Engine()
    store = CheckpointStore()
    nodes = [Node(f"n{i}", NodeSpec()) for i in range(2)]
    sched = Scheduler(engine, nodes, checkpoint_store=store)
    maint = MaintenanceManager(engine, sched)
    if wired == "legacy":
        loop = MAPEKLoop(
            engine,
            "maintenance-case",
            monitor=MaintenanceMonitor(sched, maint),
            analyzer=MaintenanceAnalyzer(sched),
            planner=MaintenancePlanner(sched, lead_factor=3.0),
            executor=CheckpointExecutor(sched),
            period_s=60.0,
        )
        loop.start()
    else:
        runtime = LoopRuntime(engine)
        MaintenanceTelemetryBridge(sched, maint, runtime.store)
        config = MaintenanceCaseConfig(period_s=60.0)
        case = runtime.add(maintenance_case_spec(sched, config=config))
        case.start()
        loop = case.loop
    profile = ApplicationProfile(
        "app", 10000.0, 1.0, marker_period_s=60.0, checkpoint_cost_s=60.0
    )
    sched.submit(Job("j1", "u", profile, walltime_request_s=12000.0))
    maint.schedule_event(
        MaintenanceEvent(
            frozenset({"n0", "n1"}), t_start=3000.0, duration_s=600.0, announce_lead_s=1800.0
        )
    )
    engine.run(until=5000.0)
    return loop


def test_maintenance_case_equivalent_under_runtime():
    legacy = _maintenance_world("legacy")
    hosted = _maintenance_world("runtime")
    assert legacy.iterations_run == hosted.iterations_run
    assert trace(legacy) == trace(hosted)
    assert trace(hosted)  # checkpoint actually triggered


# ---------------------------------------------------------------------------
# I/O-QoS case


def _ioqos_world(wired: str):
    engine = Engine()
    osts = [OST(f"ost{i}", 500.0) for i in range(4)]
    fs = ParallelFileSystem(engine, osts)
    workflow = PeriodicWriter(engine, fs, "workflow", size_mb=1000.0, period_s=30.0, stripe_count=2)
    bg1 = PeriodicWriter(engine, fs, "bg1", size_mb=20000.0, period_s=20.0, stripe_count=4)
    bg2 = PeriodicWriter(engine, fs, "bg2", size_mb=20000.0, period_s=20.0, stripe_count=4)
    writers = [workflow, bg1, bg2]
    workflow.start(start_at=5.0)
    bg1.start()
    bg2.start()
    config = IoQosConfig(latency_target_s=2.0, loop_period_s=60.0)
    if wired == "legacy":
        background = [w.client_id for w in writers if w.client_id != config.deadline_tenant]
        loop = MAPEKLoop(
            engine,
            "io-qos-case",
            monitor=IoLoadMonitor(fs, writers, config),  # private uncached engine
            analyzer=QosAnalyzer(config),
            planner=AimdQosPlanner(config, background),
            executor=QosExecutor(fs),
            knowledge=KnowledgeBase(),
            period_s=config.loop_period_s,
        )
        loop.start()
    else:
        case = LoopRuntime(engine).add(io_qos_spec(fs, writers, config=config))
        case.start()
        loop = case.loop
    engine.run(until=3000.0)
    return loop


def test_ioqos_case_equivalent_under_runtime():
    legacy = _ioqos_world("legacy")
    hosted = _ioqos_world("runtime")
    assert legacy.iterations_run == hosted.iterations_run
    assert trace(legacy) == trace(hosted)
    assert trace(hosted)  # AIMD throttling actually happened


# ---------------------------------------------------------------------------
# Misconfiguration case


def _misconfig_world(wired: str):
    engine = Engine()
    store = TimeSeriesStore()
    sched = Scheduler(engine, [Node("n0", NodeSpec(cores=32))])
    config = MisconfigCaseConfig(loop_period_s=120.0, min_runtime_s=200.0, observation_window_s=300.0)
    if wired == "legacy":
        loop = MAPEKLoop(
            engine,
            "misconfig-case",
            monitor=JobConfigMonitor(
                sched, store, config, query_engine=QueryEngine(store, enable_cache=False)
            ),
            analyzer=MisconfigLoopAnalyzer(),
            planner=InformOrFixPlanner(config),
            executor=FixOrNotifyExecutor(engine, sched),
            period_s=config.loop_period_s,
        )
        loop.start()
    else:
        case = LoopRuntime(engine, store).add(misconfig_case_spec(engine, sched, config=config))
        case.start()
        loop = case.loop
    profile = ApplicationProfile("app", 20000.0, 1.0, marker_period_s=60.0)
    job = Job("j1", "u", profile, walltime_request_s=30000.0, launch=LaunchConfig(threads=4))
    sched.submit(job)

    def sample():
        app = sched.app("j1")
        util = 0.0
        if app is not None and app.running:
            util = min(1.0, app.current_rate() / profile.base_step_rate)
        store.insert(SeriesKey.of("node_cpu_util", node="n0"), engine.now, util)

    engine.every(30.0, sample)
    engine.run(until=2000.0)
    return loop


def test_misconfig_case_equivalent_under_runtime():
    legacy = _misconfig_world("legacy")
    hosted = _misconfig_world("runtime")
    assert legacy.iterations_run == hosted.iterations_run
    assert trace(legacy) == trace(hosted)
    assert any(kind == "fix_threads" for _, kind, _, _, _ in trace(hosted))


# ---------------------------------------------------------------------------
# Scheduler case (per-job loops, marker side channel through telemetry)


def _record(loop: MAPEKLoop, observed: list) -> None:
    """Append every cycle of ``loop`` to ``observed`` before its own hook
    runs: ``loop.iterations`` keeps only the cycles that did something."""
    hook = loop.on_iteration

    def on_iteration(iteration):
        observed.append(iteration)
        if hook is not None:
            hook(iteration)

    loop.on_iteration = on_iteration


def _scheduler_world(wired: str):
    """The j1 job's loop, the job, and every cycle its loop ran."""
    engine = Engine()
    channel = ProgressMarkerChannel()
    sched = Scheduler(engine, [Node("n0", NodeSpec()), Node("n1", NodeSpec())], marker_channel=channel)
    config = SchedulerCaseConfig(loop_period_s=60.0)
    loops = {}
    observed = []
    if wired == "legacy":

        def job_started(job):
            knowledge = KnowledgeBase()
            knowledge.remember("job_id", job.job_id)
            knowledge.remember("supports_checkpoint", job.profile.supports_checkpoint)
            loop = MAPEKLoop(
                engine,
                f"sched-case-{job.job_id}",
                monitor=JobProgressMonitor(channel, sched, job.job_id),
                analyzer=ProgressAnalyzer(forecaster_name=config.forecaster_name),
                planner=ExtensionPlanner(
                    safety_margin_s=config.safety_margin_s,
                    act_within_s=config.act_within_s,
                    checkpoint_fallback=config.checkpoint_fallback,
                ),
                executor=SchedulerExecutor(sched),
                knowledge=knowledge,
                guards=[
                    ActionBudgetGuard(
                        kinds={"request_extension"},
                        max_actions_per_target=config.budget_max_extensions,
                        max_amount_per_target=config.budget_max_total_s,
                        amount_param="extra_s",
                    )
                ],
                period_s=config.loop_period_s,
            )
            loops[job.job_id] = loop
            _record(loop, observed)
            loop.start(start_at=engine.now + config.loop_period_s)

        def job_ended(job):
            loop = loops.get(job.job_id)
            if loop is not None:
                loop.stop()

        sched.on_job_start.append(job_started)
        sched.on_job_end.append(job_ended)
    else:
        runtime = LoopRuntime(engine)
        host_scheduler_case(runtime, sched, channel, config=config)

        def job_started(job):  # the loop each job got, as its start hook registered it
            loops[job.job_id] = runtime.handles[f"sched-case-{job.job_id}"].loop
            _record(loops[job.job_id], observed)

        sched.on_job_start.append(job_started)

    profile = ApplicationProfile("app", 2000.0, 1.0, marker_period_s=30.0)
    job = Job("j1", "alice", profile, walltime_request_s=1500.0)
    sched.submit(job)
    # snapshot the per-job loop as soon as it exists
    snapshot = {}

    def grab():
        if "j1" in loops and "j1" not in snapshot:
            snapshot["j1"] = loops["j1"]

    engine.every(10.0, grab)
    engine.run(until=5000.0)
    return snapshot["j1"], job, observed


def test_scheduler_case_equivalent_under_runtime():
    legacy_loop, legacy_job, _ = _scheduler_world("legacy")
    hosted_loop, hosted_job, _ = _scheduler_world("runtime")
    assert legacy_loop.iterations_run == hosted_loop.iterations_run
    assert trace(legacy_loop) == trace(hosted_loop)
    assert any(kind == "request_extension" for _, kind, _, _, _ in trace(hosted_loop))
    # end state identical: rescued in both worlds with the same deadline
    assert legacy_job.state is hosted_job.state
    assert legacy_job.time_limit_s == pytest.approx(hosted_job.time_limit_s)
    assert legacy_job.end_time == pytest.approx(hosted_job.end_time)


def test_scheduler_monitor_observations_match_legacy():
    """Field-level check: query-backed observation == direct-read observation."""
    _, _, legacy_cycles = _scheduler_world("legacy")
    _, _, hosted_cycles = _scheduler_world("runtime")
    legacy_obs = [it.observation for it in legacy_cycles if it.observation]
    hosted_obs = [it.observation for it in hosted_cycles if it.observation]
    assert len(legacy_obs) == len(hosted_obs)
    for lo, ho in zip(legacy_obs, hosted_obs):
        assert lo.time == ho.time
        assert dict(lo.values) == pytest.approx(dict(ho.values))
        l_markers = [(m.time, m.step) for m in lo.context["new_markers"]]
        h_markers = [(m.time, m.step) for m in ho.context["new_markers"]]
        assert l_markers == h_markers

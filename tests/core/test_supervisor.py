"""Fleet supervision: meta-loops, fleet ops, adaptive fusion, determinism."""

import numpy as np
import pytest

from repro.core.audit import AuditTrail
from repro.core.component import Analyzer, Executor, Planner
from repro.core.loop import PhaseLatency
from repro.core.runtime import LoopRuntime, LoopSpec, MonitorQuery, RuntimeConfig
from repro.core.supervisor import (
    MetaLoopSpec,
    SupervisorConfig,
    attach_supervisors,
)
from repro.core.types import (
    Action,
    AnalysisReport,
    ExecutionResult,
    Observation,
    Plan,
)
from repro.experiments.supervise_exp import (
    inject_faults,
    run_supervision_scenario,
)
from repro.sim import Engine
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore


class PassAnalyzer(Analyzer):
    name = "pass-analyzer"

    def analyze(self, observation, knowledge):
        return AnalysisReport(observation.time, self.name)


class KindPlanner(Planner):
    """Plans one fixed action per cycle."""

    name = "kind-planner"

    def __init__(self, kind, target, **params):
        self.kind, self.target, self.params = kind, target, params

    def plan(self, report, knowledge):
        return Plan(
            report.time, self.name, (Action(self.kind, self.target, params=self.params),)
        )


class OkExecutor(Executor):
    name = "ok-executor"

    def execute(self, plan, knowledge):
        return [ExecutionResult(a, plan.time, honored=True) for a in plan.actions]


def fill(store, metric="util", nodes=4, horizon=4000.0, period=10.0, value=0.5):
    times = np.arange(0.0, horizon, period)
    for i in range(nodes):
        store.insert_batch(
            SeriesKey.of(metric, node=f"n{i}"), times, np.full(times.size, value)
        )


def acting_spec(name, node, *, period_s=30.0, kind="notify_user", target=None, **params):
    """A loop that observes one node and acts every cycle (staleness 2s)."""

    def build(now, inputs, _name=name):
        frozen = inputs["_memory"].get("frozen_at")
        if not inputs["u"].series:
            return None
        return Observation(frozen if frozen is not None else now, _name, values={"v": 1.0})

    return LoopSpec(
        name=name,
        queries=(MonitorQuery("u", f'mean(util{{node="{node}"}}[300s]) group by (node)'),),
        build_observation=build,
        analyzer_factory=PassAnalyzer,
        planner_factory=lambda: KindPlanner(kind, target if target is not None else name, **params),
        executor_factory=OkExecutor,
        period_s=period_s,
        phase_latency=PhaseLatency(analyze_s=2.0),
    )


def make_runtime(*, audit=None, config=None, nodes=4):
    engine = Engine()
    store = TimeSeriesStore()
    fill(store, nodes=nodes)
    return engine, LoopRuntime(engine, store, audit=audit, config=config)


SUP = SupervisorConfig(
    period_s=60.0,
    window_s=600.0,
    heartbeat_factor=3.0,
    heartbeat_step_s=30.0,
    staleness_bound_s=90.0,
    restart_cooldown_s=240.0,
    quarantine_vetoes=5.0,
)


# ---------------------------------------------------------------------------
# Fleet operations on the runtime


class TestFleetOps:
    def test_restart_rebuilds_components_and_releases_claims(self):
        engine, runtime = make_runtime()
        runtime.add(acting_spec("a", "n0", kind="signal_checkpoint", target="j1"), start=True)
        engine.run(until=100.0)
        assert runtime.arbiter.active_claims(engine.now)
        old_loop = runtime.handles["a"].loop
        runtime.restart("a")
        assert runtime.handles["a"].loop is not old_loop
        assert not runtime.arbiter.active_claims(engine.now)
        assert runtime.handles["a"].restarts == 1
        assert runtime.restarts_total == 1
        # the restarted loop iterates again
        before = runtime.handles["a"].loop.iterations_run
        engine.run(until=200.0)
        assert runtime.handles["a"].loop.iterations_run > before

    def test_restart_publishes_counter_series(self):
        engine, runtime = make_runtime()
        runtime.add(acting_spec("a", "n0"), start=True)
        engine.run(until=50.0)
        runtime.restart("a")
        value = runtime.query_engine.scalar(
            'last(loop_restarts_total{loop="a"})', at=engine.now
        )
        assert value == 1.0

    def test_quarantine_stops_and_bars_start(self):
        engine, runtime = make_runtime()
        runtime.add(acting_spec("a", "n0"), start=True)
        engine.run(until=50.0)
        runtime.quarantine("a")
        handle = runtime.handles["a"]
        assert handle.quarantined and not handle.running
        with pytest.raises(RuntimeError):
            handle.start()
        runtime.start()  # must skip the quarantined loop
        assert not handle.running
        runtime.unquarantine("a")
        assert handle.running and not handle.quarantined

    def test_retune_updates_period_and_claim_ttl(self):
        engine, runtime = make_runtime()
        runtime.add(acting_spec("a", "n0", period_s=30.0), start=True)
        engine.run(until=50.0)
        iters = runtime.handles["a"].loop.iterations_run
        runtime.retune("a", period_s=120.0)
        handle = runtime.handles["a"]
        assert handle.spec.period_s == 120.0
        assert handle.loop.period_s == 120.0
        from repro.core.arbiter import ArbiterGuard

        guard = [g for g in handle.loop.guards if isinstance(g, ArbiterGuard)][0]
        assert guard.ttl_s == 120.0
        # loop state survives a retune
        assert handle.loop.iterations_run == iters
        engine.run(until=500.0)
        # ~(500-50)/120 further ticks, not /30
        assert handle.loop.iterations_run - iters <= 5

    def test_wedged_loop_still_reports_running(self):
        engine, runtime = make_runtime()
        runtime.add(acting_spec("a", "n0"), start=True)
        engine.run(until=50.0)
        handle = runtime.handles["a"]
        iters = handle.loop.iterations_run
        handle.wedge()
        engine.run(until=400.0)
        assert handle.running  # looks alive...
        assert handle.loop.iterations_run == iters  # ...never iterates


# ---------------------------------------------------------------------------
# Health supervision


class TestHealthSupervision:
    def test_wedged_loop_detected_and_restarted(self):
        audit = AuditTrail()
        engine, runtime = make_runtime(audit=audit)
        runtime.add(acting_spec("a", "n0"), start=True)
        runtime.add(acting_spec("b", "n1"), start=True)
        attach_supervisors(runtime, SUP, kinds=("health",))
        engine.run(until=700.0)
        runtime.handles["a"].wedge()
        engine.run(until=1400.0)
        assert runtime.handles["a"].restarts == 1
        assert runtime.handles["b"].restarts == 0
        ops = [e for e in audit.by_phase("fleet") if e.data["op"] == "restart"]
        assert [e.data["loop"] for e in ops] == ["a"]
        assert runtime.handles["a"].loop.iterations_run > 0

    def test_frozen_monitor_detected_and_restarted(self):
        engine, runtime = make_runtime()
        runtime.add(acting_spec("a", "n0"), start=True)
        attach_supervisors(runtime, SUP, kinds=("health",))
        engine.run(until=700.0)
        inject_faults(runtime, frozen=["a"])
        engine.run(until=1500.0)
        assert runtime.handles["a"].restarts == 1
        # post-restart observations are fresh again
        staleness = runtime.query_engine.scalar(
            'last(loop_staleness_s{loop="a"})', at=engine.now
        )
        assert staleness == 2.0

    def test_restarting_loop_that_holds_active_claim_releases_it(self):
        """The satellite edge case: restart must not leak held claims."""
        engine, runtime = make_runtime()
        # claim ttl far beyond the period: the claim would outlive a wedge
        spec = acting_spec("holder", "n0", kind="signal_checkpoint", target="j1")
        spec.claim_ttl_s = 100_000.0
        runtime.add(spec, start=True)
        attach_supervisors(runtime, SUP, kinds=("health",))
        engine.run(until=700.0)
        assert ("job", "j1") in runtime.arbiter.active_claims(engine.now)
        runtime.handles["holder"].wedge()
        engine.run(until=1400.0)
        assert runtime.handles["holder"].restarts >= 1
        # the supervisor's restart released the wedged loop's claim, so a
        # newcomer can take the resource (until the restarted holder
        # naturally re-claims it on its next healthy cycle)
        claim = runtime.arbiter.active_claims(engine.now).get(("job", "j1"))
        assert claim is None or claim.time > 700.0

    def test_veto_storm_quarantined(self):
        audit = AuditTrail()
        engine, runtime = make_runtime(audit=audit)
        # both loops contend for the same job; the low-priority one is
        # vetoed every cycle and must eventually be quarantined
        hi = acting_spec("hi", "n0", kind="signal_checkpoint", target="j1")
        hi.priority = 10
        lo = acting_spec("lo", "n1", kind="request_extension", target="j1")
        runtime.add(hi, start=True)
        runtime.add(lo, start=True)
        attach_supervisors(runtime, SUP, kinds=("health",))
        engine.run(until=1200.0)
        assert runtime.handles["lo"].quarantined
        assert not runtime.handles["hi"].quarantined
        assert runtime.quarantines_total == 1
        ops = [e for e in audit.by_phase("fleet") if e.data["op"] == "quarantine"]
        assert [e.data["loop"] for e in ops] == ["lo"]
        # quarantined loop's claims are gone and it no longer iterates
        iters = runtime.handles["lo"].loop.iterations_run
        engine.run(until=1500.0)
        assert runtime.handles["lo"].loop.iterations_run == iters

    def test_restarted_loop_immune_to_stale_veto_counter(self):
        """The veto counter resets with the instance: max-min over a window
        spanning the restart must not read as a fresh storm."""
        engine, runtime = make_runtime()
        runtime.add(acting_spec("w", "n0"), start=True)
        attach_supervisors(runtime, SUP, kinds=("health",))
        engine.run(until=700.0)
        # bake a high veto total into the telemetry (appends must be
        # ordered, so the samples sit just past the loop's own), as if
        # the loop had been vetoed for a long stretch before being
        # healed; the counter restarts from 0 alongside the loop, so the
        # window's max-min delta reads 50 — a storm, if not for immunity
        store = runtime.store
        for t in (695.0, 696.0, 697.0):
            store.insert(SeriesKey.of("loop_vetoes_total", loop="w"), t, 50.0)
        runtime.restart("w")
        engine.run(until=700.0 + SUP.window_s - 100.0)
        # window still spans pre-restart samples (delta 50) — immune
        assert not runtime.handles["w"].quarantined
        assert runtime.quarantines_total == 0

    def test_meta_loops_not_supervised(self):
        engine, runtime = make_runtime()
        runtime.add(acting_spec("a", "n0"), start=True)
        handles = attach_supervisors(runtime, SUP, kinds=("health", "tuning"))
        assert all(isinstance(h.spec, MetaLoopSpec) for h in handles)
        engine.run(until=700.0)
        runtime.handles["meta-tuning"].wedge()
        engine.run(until=1600.0)
        # the health supervisor does not heal other meta-loops
        assert runtime.handles["meta-tuning"].restarts == 0

    def test_fresh_loop_not_stuck_before_grace(self):
        engine, runtime = make_runtime()
        spec = acting_spec("late", "n0")
        spec.start_at = 500.0  # configured to start late
        runtime.add(spec, start=True)
        attach_supervisors(runtime, SUP, kinds=("health",))
        engine.run(until=480.0)
        assert runtime.handles["late"].restarts == 0


# ---------------------------------------------------------------------------
# Tuning supervision


class TestTuningSupervision:
    def runtime_with_cost(self, cost_ms, *, period_s=30.0):
        """A running loop whose telemetry claims ``cost_ms`` per iteration."""
        engine = Engine()
        store = TimeSeriesStore()
        fill(store)
        # self-telemetry off: the injected cost series is the only signal
        runtime = LoopRuntime(
            engine, store, config=RuntimeConfig(self_telemetry=False)
        )
        runtime.add(acting_spec("w", "n0", period_s=period_s), start=True)
        times = np.arange(0.0, 600.0, period_s)
        store.insert_batch(
            SeriesKey.of("loop_iteration_ms", loop="w"),
            times,
            np.full(times.size, float(cost_ms)),
        )
        return engine, runtime

    def test_overloaded_loop_slowed_down(self):
        engine, runtime = self.runtime_with_cost(120.0)
        cfg = SupervisorConfig(
            period_s=60.0, slow_iteration_ms=50.0, retune_factor=2.0,
            retune_cooldown_s=240.0,
        )
        attach_supervisors(runtime, cfg, kinds=("tuning",))
        engine.run(until=130.0)
        assert runtime.handles["w"].spec.period_s == 60.0  # 30 * 2
        assert runtime.retunes_total == 1  # cooldown holds further retunes

    def test_retune_clamped_at_max_period_factor(self):
        engine, runtime = self.runtime_with_cost(500.0)
        cfg = SupervisorConfig(
            period_s=60.0,
            slow_iteration_ms=50.0,
            retune_factor=16.0,
            max_period_factor=4.0,
            retune_cooldown_s=60.0,
        )
        attach_supervisors(runtime, cfg, kinds=("tuning",))
        engine.run(until=130.0)
        assert runtime.handles["w"].spec.period_s == 120.0  # 30 * 4 clamp
        # at the clamp there is no further headroom: no second retune
        engine.run(until=400.0)
        assert runtime.retunes_total == 1

    def test_cheap_retuned_loop_speeds_back_toward_base(self):
        engine, runtime = self.runtime_with_cost(1.0)
        runtime.retune("w", period_s=120.0)  # previously slowed
        cfg = SupervisorConfig(
            period_s=60.0, fast_iteration_ms=5.0, retune_factor=2.0, retune_cooldown_s=60.0
        )
        attach_supervisors(runtime, cfg, kinds=("tuning",))
        engine.run(until=50.0)
        assert runtime.handles["w"].spec.period_s == 60.0  # halved toward base
        engine.run(until=250.0)
        assert runtime.handles["w"].spec.period_s == 30.0  # back at base
        engine.run(until=400.0)
        assert runtime.handles["w"].spec.period_s == 30.0  # never below base


# ---------------------------------------------------------------------------
# Adaptive fusion


def narrow_spec(name, node):
    def build(now, inputs, _name=name):
        return Observation(now, _name, values={"v": 1.0}) if inputs["u"].series else None

    return LoopSpec(
        name=name,
        queries=(MonitorQuery("u", f'mean(util{{node="{node}"}}[300s]) group by (node)'),),
        build_observation=build,
        analyzer_factory=PassAnalyzer,
        planner_factory=lambda: KindPlanner("notify_user", name),
        executor_factory=OkExecutor,
        period_s=30.0,
    )


class TestAdaptiveFusion:
    """Fusion is decided inline by the hub, tick by tick — no flag, no
    override and no supervisor."""

    def test_hub_tracks_tick_sharing(self):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store, nodes=8)
        runtime = LoopRuntime(engine, store)
        for i in range(8):
            runtime.add(narrow_spec(f"w{i}", f"n{i}"), start=True)
        engine.run(until=100.0)  # ticks at 0, 30, 60 and 90
        hub, qe = runtime.hub, runtime.query_engine
        # per tick: the first reader alone, then one widened execution
        # shared by the other seven
        assert hub.direct_served == 4
        assert hub.fused_served == 4 * 7
        assert qe.served_raw + qe.served_rollup == 4 * 2

    def test_fusion_kind_attaches_nothing(self):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store, nodes=8)
        runtime = LoopRuntime(engine, store)
        for i in range(8):
            runtime.add(narrow_spec(f"w{i}", f"n{i}"), start=True)
        assert attach_supervisors(runtime, kinds=("fusion",)) == []
        assert not any(isinstance(h.spec, MetaLoopSpec) for h in runtime.handles.values())
        engine.run(until=10.0)
        assert runtime.hub.fused_served == 7  # shared from the first tick

    def test_lone_reader_never_widens(self):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store, nodes=2)
        runtime = LoopRuntime(engine, store)
        runtime.add(narrow_spec("w0", "n0"), start=True)
        engine.run(until=400.0)
        hub = runtime.hub
        assert hub.fused_served == 0
        assert hub.direct_served == runtime.handles["w0"].loop.iterations_run


# ---------------------------------------------------------------------------
# Determinism and audit of the full scenario


class TestScenarioDeterminism:
    def test_supervisor_action_trace_is_deterministic(self):
        kwargs = dict(seed=3, n_loops=16, supervise=True)
        first = run_supervision_scenario(**kwargs)
        second = run_supervision_scenario(**kwargs)
        assert first["trace"] == second["trace"]
        assert first["trace"]  # faults were injected, so actions happened
        assert first["restarts"] == second["restarts"]
        assert first["final_p95_s"] == second["final_p95_s"]

    def test_scenario_heals_and_control_degrades(self):
        supervised = run_supervision_scenario(seed=1, n_loops=16, supervise=True)
        control = run_supervision_scenario(seed=1, n_loops=16, supervise=False)
        healthy = supervised["healthy_p95_s"]
        assert supervised["final_p95_s"] <= 2.0 * healthy
        assert control["final_p95_s"] > 2.0 * healthy
        assert control["restarts"] == 0.0 and not control["trace"]

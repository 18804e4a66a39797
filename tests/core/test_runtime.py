"""LoopRuntime: declarative specs, fused serving, self-telemetry, jitter."""

import numpy as np
import pytest

from repro.core.component import Analyzer, Executor, Planner
from repro.core.loop import PhaseLatency
from repro.core.runtime import (
    LoopRuntime,
    LoopSpec,
    MonitorQuery,
    RuntimeConfig,
    deterministic_phase,
)
from repro.core.types import Action, AnalysisReport, ExecutionResult, Observation, Plan
from repro.sim import Engine
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore


class PassAnalyzer(Analyzer):
    name = "pass-analyzer"

    def analyze(self, observation, knowledge):
        return AnalysisReport(observation.time, self.name)


class EmptyPlanner(Planner):
    name = "empty-planner"

    def plan(self, report, knowledge):
        return Plan(report.time, self.name)


class ActOncePlanner(Planner):
    """Plans one action on the first report, then stays quiet."""

    name = "act-once-planner"

    def __init__(self):
        self.acted = False

    def plan(self, report, knowledge):
        if self.acted:
            return Plan(report.time, self.name)
        self.acted = True
        return Plan(report.time, self.name, (Action("poke", "t1"),))


class OkExecutor(Executor):
    name = "ok-executor"

    def execute(self, plan, knowledge):
        return [ExecutionResult(a, plan.time, honored=True) for a in plan.actions]


def fill(store, metric="util", nodes=4, points=30, period=10.0):
    times = np.arange(points) * period
    for i in range(nodes):
        store.insert_batch(
            SeriesKey.of(metric, node=f"n{i}"), times, np.full(points, 0.5 + 0.1 * i)
        )


def watch_spec(name, expr, *, period_s=60.0, planner=EmptyPlanner, **kw):
    def build(now, inputs):
        result = inputs["q"]
        if not result.series:
            return None
        values = {
            f"v:{s.label('node') or i}": float(s.values[-1])
            for i, s in enumerate(result.series)
        }
        return Observation(now, name, values=values)

    return LoopSpec(
        name=name,
        queries=(MonitorQuery("q", expr),),
        build_observation=build,
        analyzer_factory=PassAnalyzer,
        planner_factory=planner,
        executor_factory=OkExecutor,
        period_s=period_s,
        **kw,
    )


class TestSpecValidation:
    def test_needs_monitor_definition(self):
        with pytest.raises(ValueError, match="monitor_factory"):
            LoopSpec(
                name="x",
                analyzer_factory=PassAnalyzer,
                planner_factory=EmptyPlanner,
                executor_factory=OkExecutor,
            )

    def test_period_positive(self):
        with pytest.raises(ValueError):
            LoopSpec(
                name="x",
                analyzer_factory=PassAnalyzer,
                planner_factory=EmptyPlanner,
                executor_factory=OkExecutor,
                build_observation=lambda now, inputs: None,
                period_s=0.0,
            )

    def test_duplicate_name_rejected(self):
        engine = Engine()
        runtime = LoopRuntime(engine, TimeSeriesStore())
        spec = watch_spec("dup", "last(util) group by (node)")
        runtime.add(spec)
        with pytest.raises(ValueError, match="already registered"):
            runtime.add(watch_spec("dup", "last(util) group by (node)"))


class TestQueryMonitorServing:
    def test_declarative_loop_runs(self):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store)
        runtime = LoopRuntime(engine, store)
        runtime.add(watch_spec("w", "last(util) group by (node)"), start=True)
        engine.run(until=290.0)
        loop = runtime.handle("w").loop
        assert loop.iterations_run == 5
        obs = loop.iterations[-1].observation
        assert obs is not None and len(obs.values) == 4

    def test_fused_selections_share_one_execution(self):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store, nodes=8)
        runtime = LoopRuntime(engine, store)
        for i in range(8):
            runtime.add(
                watch_spec(f"w{i}", f'last(util{{node="n{i}"}}) group by (node)'),
                start=True,
            )
        engine.run(until=0.0)  # one shared tick at t=0
        qe = runtime.query_engine
        # the first reader is alone when it reads; from the second on the
        # tick is shared and the widened shape executes once
        assert runtime.hub.direct_served == 1
        assert runtime.hub.fused_served == 7
        assert qe.served_raw + qe.served_rollup == 2
        for i in range(8):
            obs = runtime.handle(f"w{i}").loop.iterations[-1].observation
            assert obs.values == {f"v:n{i}": pytest.approx(0.5 + 0.1 * i)}

    def test_unfused_query_served_directly(self):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store)
        runtime = LoopRuntime(engine, store)
        spec = watch_spec("w", "last(util) group by (node)")
        runtime.add(spec, start=True)
        engine.run(until=0.0)
        assert runtime.hub.direct_served >= 1  # no matchers → not fusable

    def test_new_series_visible_after_generation_bump(self):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store, nodes=2)
        runtime = LoopRuntime(engine, store)
        runtime.add(
            watch_spec("w", 'last(util{node=~"n.*"}) group by (node)', period_s=50.0),
            start=True,
        )
        engine.schedule_at(60.0, lambda: store.insert(SeriesKey.of("util", node="n9"), 60.0, 9.9))
        engine.run(until=140.0)
        loop = runtime.handle("w").loop
        assert len(loop.iterations[0].observation.values) == 2
        assert len(loop.iterations[-1].observation.values) == 3


class TestSelfTelemetry:
    def test_iteration_series_published(self):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store)
        runtime = LoopRuntime(engine, store)
        runtime.add(
            watch_spec("w", "last(util) group by (node)", planner=ActOncePlanner),
            start=True,
        )
        engine.run(until=250.0)
        qe = runtime.query_engine
        ms = qe.scalar('mean(loop_iteration_ms{loop="w"})', at=engine.now)
        assert ms is not None and ms > 0.0
        actions = qe.scalar('last(loop_actions_total{loop="w"})', at=engine.now)
        assert actions == 1.0
        staleness = qe.scalar('last(loop_staleness_s{loop="w"})', at=engine.now)
        assert staleness == 0.0  # no phase latency configured

    def test_self_telemetry_can_be_disabled(self):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store)
        runtime = LoopRuntime(engine, store, config=RuntimeConfig(self_telemetry=False))
        runtime.add(watch_spec("w", "last(util) group by (node)"), start=True)
        engine.run(until=250.0)
        assert not store.series_keys("loop_iteration_ms")


class TestStaleness:
    def test_staleness_spans_decision_and_execute_delay(self):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store)
        runtime = LoopRuntime(engine, store)
        runtime.add(
            watch_spec(
                "w",
                "last(util) group by (node)",
                planner=ActOncePlanner,
                phase_latency=PhaseLatency(monitor_s=1.0, analyze_s=3.0, plan_s=2.0, execute_s=4.0),
            ),
            start=True,
        )
        engine.run(until=100.0)
        acted = [it for it in runtime.handle("w").loop.iterations if it.acted]
        assert acted
        it = acted[0]
        assert it.t_observation == it.t_monitor
        assert it.t_execute == pytest.approx(it.t_monitor + 6.0 + 4.0)
        assert it.staleness == pytest.approx(10.0)
        # non-acting iterations have no execute timestamp, hence no staleness
        idle = [it for it in runtime.handle("w").loop.iterations if not it.acted]
        assert all(it.staleness is None for it in idle)

    def test_staleness_published_when_acting(self):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store)
        runtime = LoopRuntime(engine, store)
        runtime.add(
            watch_spec(
                "w",
                "last(util) group by (node)",
                planner=ActOncePlanner,
                phase_latency=PhaseLatency(analyze_s=5.0),
            ),
            start=True,
        )
        engine.run(until=100.0)
        staleness = runtime.query_engine.scalar(
            'last(loop_staleness_s{loop="w"})', at=engine.now
        )
        assert staleness == pytest.approx(5.0)


class TestScheduling:
    def test_deterministic_phase_is_stable_and_bounded(self):
        a = deterministic_phase("loop-a", 60.0, 0.5)
        b = deterministic_phase("loop-a", 60.0, 0.5)
        c = deterministic_phase("loop-b", 60.0, 0.5)
        assert a == b
        assert a != c
        assert 0.0 <= a < 30.0
        assert deterministic_phase("loop-a", 60.0, 0.0) == 0.0

    def test_jitter_spreads_first_ticks(self):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store)
        runtime = LoopRuntime(
            engine, store, config=RuntimeConfig(phase_jitter_frac=0.5)
        )
        for i in range(4):
            runtime.add(watch_spec(f"w{i}", "last(util) group by (node)"), start=True)
        engine.run(until=59.0)
        first_ticks = {
            name: h.loop.iterations[0].t_monitor for name, h in runtime.handles.items()
        }
        assert len(set(first_ticks.values())) > 1  # not all aligned

    def test_dynamic_add_remove(self):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store)
        runtime = LoopRuntime(engine, store)
        runtime.add(watch_spec("w0", "last(util) group by (node)"), start=True)
        engine.run(until=100.0)
        handle = runtime.remove("w0")
        assert handle is not None and not handle.running
        count = handle.loop.iterations_run
        runtime.add(watch_spec("w1", "last(util) group by (node)"), start=True)
        engine.run(until=200.0)
        assert handle.loop.iterations_run == count  # removed loop stayed dead
        assert runtime.handle("w1").loop.iterations_run > 0
        assert runtime.active_loops() == 1

    def test_stats_and_loop_stats_shape(self):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store)
        runtime = LoopRuntime(engine, store)
        runtime.add(watch_spec("w", "last(util) group by (node)"), start=True)
        engine.run(until=100.0)
        stats = runtime.stats()
        assert stats["loops"] == 1.0
        assert stats["iterations_total"] >= 1.0
        rows = runtime.loop_stats()
        assert rows[0]["loop"] == "w"
        assert rows[0]["iterations"] >= 1.0

    def test_legacy_mapek_start_still_works(self):
        """Specs are additive: hand-wired MAPEKLoop.start() is untouched."""
        engine = Engine()
        store = TimeSeriesStore()
        fill(store)
        runtime = LoopRuntime(engine, store)
        spec = watch_spec("hand", "last(util) group by (node)")
        handle = runtime.add(spec)
        handle.loop.start()  # classic self-scheduling path
        engine.run(until=100.0)
        assert handle.loop.iterations_run >= 2

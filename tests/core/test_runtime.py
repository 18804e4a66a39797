"""LoopRuntime: declarative specs, fused serving, self-telemetry, jitter."""

import gc

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
from repro.core.types import (
    Action,
    AnalysisReport,
    ExecutionResult,
    LoopIteration,
    Observation,
    Plan,
)
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


def recorded(spec):
    """Record every cycle of ``spec``'s loop through its ``on_iteration``
    hook; ``loop.iterations`` keeps only the cycles that did something."""
    seen = []
    spec.on_iteration = seen.append
    return spec, seen


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
        spec, seen = recorded(watch_spec("w", "last(util) group by (node)"))
        runtime.add(spec, start=True)
        engine.run(until=290.0)
        loop = runtime.handle("w").loop
        assert loop.iterations_run == 5
        obs = seen[-1].observation
        assert obs is not None and len(obs.values) == 4

    def test_fused_selections_share_one_execution(self):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store, nodes=8)
        runtime = LoopRuntime(engine, store)
        seen = {}
        for i in range(8):
            spec, seen[i] = recorded(
                watch_spec(f"w{i}", f'last(util{{node="n{i}"}}) group by (node)')
            )
            runtime.add(spec, start=True)
        engine.run(until=0.0)  # one shared tick at t=0
        qe = runtime.query_engine
        # the first reader is alone when it reads; from the second on the
        # tick is shared and the widened shape executes once
        assert runtime.hub.direct_served == 1
        assert runtime.hub.fused_served == 7
        assert qe.served_raw + qe.served_rollup == 2
        for i in range(8):
            obs = seen[i][-1].observation
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
        spec, seen = recorded(
            watch_spec("w", 'last(util{node=~"n.*"}) group by (node)', period_s=50.0)
        )
        runtime.add(spec, start=True)
        engine.schedule_at(60.0, lambda: store.insert(SeriesKey.of("util", node="n9"), 60.0, 9.9))
        engine.run(until=140.0)
        assert len(seen[0].observation.values) == 2
        assert len(seen[-1].observation.values) == 3


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


class PokePlanner(Planner):
    """Plans the same contested action every cycle: the arbiter vetoes
    the lower-priority loops while a claim is live."""

    name = "poke-planner"

    def plan(self, report, knowledge):
        return Plan(report.time, self.name, (Action("signal_checkpoint", "j1"),))


LOOP_METRICS = ("loop_iteration_ms", "loop_actions_total", "loop_vetoes_total", "loop_staleness_s")


class TestBatchedSelfTelemetry:
    """Self-telemetry is staged per instant and committed once, and says
    exactly what one scalar ``insert`` per row said."""

    @pytest.mark.parametrize(
        "latency",
        [PhaseLatency(), PhaseLatency(analyze_s=5.0, execute_s=2.0)],
        ids=["zero", "phased"],
    )
    def test_equals_scalar_insert_oracle(self, latency):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store)
        runtime = LoopRuntime(engine, store)
        oracle = TimeSeriesStore()

        def record(name):
            def on_iteration(it):
                now, loop = engine.now, runtime.handle(name).loop
                rows = [it.wall_ms, loop.actions_executed, loop.actions_vetoed, it.staleness]
                for metric, value in zip(LOOP_METRICS, rows):
                    if value is not None:
                        oracle.insert(SeriesKey.of(metric, loop=name), now, float(value))
            return on_iteration

        for i in range(6):
            name = f"w{i}"
            runtime.add(
                watch_spec(
                    name, f'last(util{{node="n{i % 4}"}}) group by (node)', period_s=30.0,
                    planner=PokePlanner, priority=i, phase_latency=latency,
                    on_iteration=record(name),
                ),
                start=True,
            )
        engine.run(until=400.0)
        assert runtime.arbiter.stats()["vetoes_total"] > 0
        for metric in LOOP_METRICS:
            keys = oracle.series_keys(metric)
            assert keys and store.series_keys(metric) == keys, metric
            for key in keys:
                want_t, want_v = oracle.query(key, -np.inf, np.inf)
                got_t, got_v = store.query(key, -np.inf, np.inf)
                assert np.array_equal(got_t, want_t) and np.array_equal(got_v, want_v), key

    def test_loops_finishing_together_commit_once(self):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store)
        runtime = LoopRuntime(engine, store)
        commits = []
        store.add_ingest_listener(lambda ids, t, v: commits.append((float(t[0]), ids.size)))
        for i in range(8):
            runtime.add(
                watch_spec(f"w{i}", "last(util) group by (node)", start_at=60.0), start=True
            )
        engine.run(until=60.0)
        # eight loops x (iteration ms, actions, vetoes) in one commit, though
        # every loop after the first read the hub after others had finished
        assert commits == [(60.0, 8 * 3)]

    @pytest.mark.parametrize("mode", ["query", "samples"])
    def test_meta_loop_reads_rows_of_its_own_instant(self, mode):
        """A lower-priority meta-loop ticking at the same instant, with no
        phase latency, reads the worker's row through the hub before the
        end-of-instant commit has run."""
        engine = Engine()
        store = TimeSeriesStore()
        fill(store)
        runtime = LoopRuntime(engine, store)
        runtime.add(
            watch_spec("w", "last(util) group by (node)", start_at=60.0, priority=10),
            start=True,
        )
        seen = []

        def build(now, inputs):
            got = inputs["ms"]
            seen.append((now, got[0].tolist() if mode == "samples" else got.scalar()))
            return None

        runtime.add(
            LoopSpec(
                name="meta",
                queries=(MonitorQuery("ms", 'count(loop_iteration_ms{loop="w"}[5s])', mode),),
                build_observation=build,
                analyzer_factory=PassAnalyzer,
                planner_factory=EmptyPlanner,
                executor_factory=OkExecutor,
                period_s=60.0,
                start_at=60.0,
            ),
            start=True,
        )
        engine.run(until=60.0)
        assert seen == [(60.0, [60.0] if mode == "samples" else 1.0)]


class TestStaleness:
    def test_staleness_spans_decision_and_execute_delay(self):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store)
        runtime = LoopRuntime(engine, store)
        spec, seen = recorded(
            watch_spec(
                "w",
                "last(util) group by (node)",
                planner=ActOncePlanner,
                phase_latency=PhaseLatency(monitor_s=1.0, analyze_s=3.0, plan_s=2.0, execute_s=4.0),
            )
        )
        runtime.add(spec, start=True)
        engine.run(until=100.0)
        acted = [it for it in seen if it.acted]
        assert acted
        it = acted[0]
        assert it.t_observation == it.t_monitor
        assert it.t_execute == pytest.approx(it.t_monitor + 6.0 + 4.0)
        assert it.staleness == pytest.approx(10.0)
        # non-acting iterations have no execute timestamp, hence no staleness
        idle = [it for it in seen if not it.acted]
        assert idle and all(it.staleness is None for it in idle)

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
        seen = {}
        for i in range(4):
            spec, seen[f"w{i}"] = recorded(watch_spec(f"w{i}", "last(util) group by (node)"))
            runtime.add(spec, start=True)
        engine.run(until=59.0)
        first_ticks = {name: its[0].t_monitor for name, its in seen.items()}
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

    @pytest.mark.parametrize("stop_at", [None, 256.0])
    def test_mean_staleness_over_last_window_of_cycles(self, stop_at):
        """One early action, then more idle cycles than keep_iterations:
        mean_staleness_s equals the mean over the last keep_iterations
        finished cycles of any kind, idle ones included — also once a stop
        has abandoned the cycle still waiting out its analyze latency."""
        engine = Engine()
        store = TimeSeriesStore()
        fill(store)
        runtime = LoopRuntime(engine, store)
        spec, seen = recorded(watch_spec(
            "w", "last(util) group by (node)", period_s=1.0,
            planner=ActOncePlanner, phase_latency=PhaseLatency(analyze_s=0.25),
        ))
        runtime.add(spec, start=True)
        means = []
        for until in (100.0, 256.0, 257.0, 400.0):
            if stop_at is not None and until > stop_at:
                runtime.stop()  # abandons the cycle of t = stop_at
            engine.run(until=until)
            window = [it.staleness for it in seen[-spec.keep_iterations:]]
            acted = [s for s in window if s is not None]
            expected = float(np.mean(acted)) if acted else 0.0
            assert runtime.loop_stats()[0]["mean_staleness_s"] == expected
            means.append(expected)
        assert means == ([0.25, 0.25, 0.0, 0.0] if stop_at is None else [0.25] * 4)
        assert len(runtime.handle("w").loop.iterations) == 1

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


def live_cycle_objects():
    """Live ``(LoopIteration, Observation)`` counts after a full collection."""
    gc.collect()
    iterations = observations = 0
    for obj in gc.get_objects():
        iterations += type(obj) is LoopIteration
        observations += type(obj) is Observation
    return iterations, observations


class TestBoundedHistory:
    """Idle cycles are counted and shown to ``on_iteration``, then dropped:
    a fleet's live cycle objects are the same after 1,000 ticks as after
    200, at most ``keep_iterations`` (+ 1) per acting loop."""

    IDLE_LOOPS, KEEP, PERIOD_S = 64, 16, 10.0

    def run_fleet(self, ticks):
        engine = Engine()
        store = TimeSeriesStore()
        fill(store, nodes=self.IDLE_LOOPS, points=4)
        runtime = LoopRuntime(engine, store)
        seen = []
        specs = [
            watch_spec(f"idle{i}", f'last(util{{node="n{i}"}}) group by (node)',
                       period_s=self.PERIOD_S, on_iteration=seen.append)
            for i in range(self.IDLE_LOOPS)
        ]
        specs.append(watch_spec(
            "acting", 'last(util{node="n0"}) group by (node)', period_s=self.PERIOD_S,
            planner=PokePlanner, keep_iterations=self.KEEP, on_iteration=seen.append,
        ))
        runtime.add_many(specs, start=True)
        engine.run(until=(ticks - 1) * self.PERIOD_S)
        runtime.stop()
        assert len(seen) == ticks * (self.IDLE_LOOPS + 1)
        seen.clear()
        return runtime

    def test_live_cycle_objects_do_not_grow_with_ticks(self):
        before = live_cycle_objects()
        counts = []
        for ticks in (200, 1000):
            runtime = self.run_fleet(ticks)
            counts.append(tuple(a - b for a, b in zip(live_cycle_objects(), before)))
            acting = runtime.handle("acting").loop
            assert len(acting.iterations) == self.KEEP and acting.iterations_run == ticks
            assert all(not h.loop.iterations for n, h in runtime.handles.items() if n != "acting")
            del runtime, acting
        assert counts[0] == counts[1]
        assert all(n <= self.KEEP + 1 for n in counts[0])

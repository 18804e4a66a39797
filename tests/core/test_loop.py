"""Tests for the MAPE-K loop engine."""

import pytest

from repro.core.audit import AuditTrail
from repro.core.component import Analyzer, Assessor, Executor, Monitor, Planner
from repro.core.guards import ConfidenceGuard
from repro.core.loop import MAPEKLoop, PhaseLatency
from repro.core.types import (
    Action,
    AnalysisReport,
    ExecutionResult,
    Observation,
    Plan,
)
from repro.sim import Engine


class FakeMonitor(Monitor):
    name = "fake-monitor"

    def __init__(self, value_fn, skip_until=None):
        self.value_fn = value_fn
        self.skip_until = skip_until
        self.calls = 0

    def observe(self, now):
        self.calls += 1
        if self.skip_until is not None and now < self.skip_until:
            return None
        return Observation(now, self.name, values={"x": self.value_fn(now)})


class ThresholdAnalyzer(Analyzer):
    name = "threshold-analyzer"

    def __init__(self, threshold=10.0, confidence=1.0):
        self.threshold = threshold
        self.confidence = confidence

    def analyze(self, observation, knowledge):
        x = observation.values["x"]
        return AnalysisReport(
            observation.time,
            self.name,
            metrics={"x": x, "excess": x - self.threshold},
            confidence=self.confidence,
        )


class SimplePlanner(Planner):
    name = "simple-planner"

    def plan(self, report, knowledge):
        if report.metrics["excess"] <= 0:
            return Plan(report.time, self.name)
        action = Action("reduce", "sys", params={"amount": report.metrics["excess"]})
        return Plan(report.time, self.name, actions=(action,), confidence=report.confidence)


class RecordingExecutor(Executor):
    name = "recording-executor"

    def __init__(self):
        self.executed = []

    def execute(self, plan, knowledge):
        out = []
        for a in plan.actions:
            self.executed.append((a, plan.time))
            out.append(ExecutionResult(a, plan.time, honored=True))
        return out


class CountingAssessor(Assessor):
    name = "counting-assessor"

    def __init__(self):
        self.calls = 0

    def assess(self, observation, knowledge):
        self.calls += 1


def build_loop(engine, value_fn, *, guards=(), phase_latency=PhaseLatency(), period=10.0,
               assessor=None, audit=None, confidence=1.0, skip_until=None):
    executor = RecordingExecutor()
    loop = MAPEKLoop(
        engine,
        "test-loop",
        monitor=FakeMonitor(value_fn, skip_until=skip_until),
        analyzer=ThresholdAnalyzer(confidence=confidence),
        planner=SimplePlanner(),
        executor=executor,
        guards=guards,
        period_s=period,
        phase_latency=phase_latency,
        assessor=assessor,
        audit=audit,
    )
    return loop, executor


class TestLoopBasics:
    def test_iterates_on_period(self):
        eng = Engine()
        loop, _ = build_loop(eng, lambda now: 0.0, period=10.0)
        loop.start()
        eng.run(until=45.0)
        assert loop.iterations_run == 5  # t = 0, 10, 20, 30, 40

    def test_acts_when_threshold_exceeded(self):
        eng = Engine()
        loop, executor = build_loop(eng, lambda now: 15.0)
        loop.start()
        eng.run(until=0.0)
        assert len(executor.executed) == 1
        action, _ = executor.executed[0]
        assert action.kind == "reduce"
        assert action.param("amount") == 5.0
        assert loop.actions_executed == 1

    def test_no_action_below_threshold(self):
        eng = Engine()
        loop, executor = build_loop(eng, lambda now: 5.0)
        loop.start()
        eng.run(until=50.0)
        assert executor.executed == []

    def test_plans_recorded_in_knowledge(self):
        eng = Engine()
        loop, _ = build_loop(eng, lambda now: 15.0)
        loop.start()
        eng.run(until=25.0)
        assert len(loop.knowledge.plan_outcomes) == 3
        assert all(o.honored for o in loop.knowledge.plan_outcomes)

    def test_none_observation_skips_cycle(self):
        eng = Engine()
        loop, executor = build_loop(eng, lambda now: 15.0, skip_until=25.0)
        loop.start()
        eng.run(until=45.0)
        # first three cycles (0,10,20) observe None; 30 and 40 act
        assert len(executor.executed) == 2
        assert loop.iterations_run == 5

    def test_double_start_raises(self):
        eng = Engine()
        loop, _ = build_loop(eng, lambda now: 0.0)
        loop.start()
        with pytest.raises(RuntimeError):
            loop.start()

    def test_stop_halts_iterations(self):
        eng = Engine()
        loop, _ = build_loop(eng, lambda now: 0.0)
        loop.start()
        eng.schedule(25.0, loop.stop)
        eng.run(until=100.0)
        assert loop.iterations_run == 3
        assert not loop.running

    def test_period_validation(self):
        eng = Engine()
        with pytest.raises(ValueError):
            build_loop(eng, lambda now: 0.0, period=0.0)


class TestPhaseLatency:
    def test_decision_delay_defers_execution(self):
        eng = Engine()
        latency = PhaseLatency(monitor_s=1.0, analyze_s=2.0, plan_s=3.0, execute_s=4.0)
        loop, executor = build_loop(eng, lambda now: 15.0, phase_latency=latency, period=100.0)
        loop.start()
        eng.run(until=5.0)
        assert executor.executed == []  # decision at t=6
        eng.run(until=9.0)
        assert executor.executed == []  # execution at t=10
        eng.run(until=10.0)
        assert len(executor.executed) == 1

    def test_cycle_latency_recorded(self):
        eng = Engine()
        latency = PhaseLatency(analyze_s=2.0, execute_s=1.0)
        loop, _ = build_loop(eng, lambda now: 15.0, phase_latency=latency, period=100.0)
        loop.start()
        eng.run(until=10.0)
        latencies = [it.latency for it in loop.iterations if it.latency is not None]
        assert sum(latencies) / len(latencies) == pytest.approx(3.0)

    def test_stale_observation_semantics(self):
        """Execution uses the observation taken at cycle start, not fresher data."""
        eng = Engine()
        values = {"x": 15.0}
        latency = PhaseLatency(analyze_s=5.0)
        loop, executor = build_loop(eng, lambda now: values["x"], phase_latency=latency, period=100.0)
        loop.start()
        eng.schedule(1.0, lambda: values.update(x=0.0))  # world changes mid-decision
        eng.run(until=10.0)
        # the plan still reflects x=15 as observed at t=0
        action, _ = executor.executed[0]
        assert action.param("amount") == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseLatency(monitor_s=-1.0)


class TestGuardsIntegration:
    def test_confidence_guard_vetoes(self):
        eng = Engine()
        loop, executor = build_loop(
            eng, lambda now: 15.0, guards=[ConfidenceGuard(0.9)], confidence=0.5
        )
        loop.start()
        eng.run(until=25.0)
        assert executor.executed == []
        assert loop.actions_vetoed == 3
        assert len(loop.iterations) == loop.iterations_run == 3
        assert all(it.vetoed for it in loop.iterations)

    def test_vetoed_actions_not_recorded_as_plans(self):
        eng = Engine()
        loop, _ = build_loop(
            eng, lambda now: 15.0, guards=[ConfidenceGuard(0.9)], confidence=0.5
        )
        loop.start()
        eng.run(until=25.0)
        assert loop.knowledge.plan_outcomes == []


class TestAssessorAndAudit:
    def test_assessor_runs_each_observed_cycle(self):
        eng = Engine()
        assessor = CountingAssessor()
        loop, _ = build_loop(eng, lambda now: 0.0, assessor=assessor)
        loop.start()
        eng.run(until=35.0)
        assert assessor.calls == 4

    def test_audit_records_plans_and_executions(self):
        eng = Engine()
        audit = AuditTrail()
        loop, _ = build_loop(eng, lambda now: 15.0, audit=audit)
        loop.start()
        eng.run(until=15.0)
        plans = audit.by_phase("plan")
        execs = audit.by_phase("execute")
        assert len(plans) == 2 and len(execs) == 2
        assert "honored" in execs[0].message

    def test_iterations_bounded(self):
        eng = Engine()
        loop, _ = build_loop(eng, lambda now: 15.0, period=1.0)
        loop.keep_iterations = 10
        loop.start()
        eng.run(until=100.0)
        assert len(loop.iterations) == 10
        assert loop.iterations_run == 101

    def test_idle_cycles_are_counted_not_kept(self):
        eng = Engine()
        loop, _ = build_loop(eng, lambda now: 0.0, period=1.0)
        seen = []
        loop.on_iteration = seen.append
        loop.start()
        eng.run(until=100.0)
        assert loop.iterations == []
        assert loop.iterations_run == len(seen) == 101
        assert loop.wall_ms_total == pytest.approx(sum(it.wall_ms for it in seen))
        assert [it.latency for it in loop.iterations if it.latency is not None] == []

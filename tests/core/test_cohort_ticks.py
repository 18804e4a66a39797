"""Cohort ticks and same-instant phases against per-loop scheduling.

Loops that tick together run from one engine event (their cohort), and
the delayed decide/execute phases due at one instant run from one event
too.  The oracle is the scheduling that bundles nothing: one
``engine.every`` task per loop, one ``engine.schedule`` event per delayed
phase and a wedge that cancels the loop's pending tick event.  A fleet
driven through random lifecycle operations must produce the same
``(now, loop, phase)`` trace, the same actions and the same
``abandoned_total`` under both.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.runtime as runtime_mod
from repro.core.component import Analyzer, Executor, Monitor, Planner
from repro.core.loop import MAPEKLoop, PhaseLatency
from repro.core.runtime import LoopHandle, LoopRuntime, LoopSpec, RuntimeConfig
from repro.core.types import Action, AnalysisReport, ExecutionResult, Observation, Plan, Symptom
from repro.sim import Engine


# ----------------------------------------------------------------- oracle
def _own_event_later(self, delay, phase, iteration, arg):
    self._pending[iteration.index] = self.engine.schedule(
        delay, phase, iteration, arg, label=f"loop-{self.name}"
    )


def _own_event_wedge(self):
    if self._task is not None and self._task._event is not None:
        self._task._event.cancel()


def per_loop_scheduling(mp: pytest.MonkeyPatch) -> None:
    """One event per tick and per delayed phase, as before cohorts."""
    mp.setattr(runtime_mod, "_COHORT", None)
    mp.setattr(MAPEKLoop, "_later", _own_event_later)
    mp.setattr(LoopHandle, "wedge", _own_event_wedge)


# ------------------------------------------------------------ the fleet
class _Probe:
    """Everything a run records."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.trace = []
        self.actions = []
        #: loop name -> lifecycle ops its next monitor performs
        self.inline_ops = {}

    def note(self, loop: str, phase: str) -> None:
        self.trace.append((self.engine.now, loop, phase))


class _Monitor(Monitor):
    def __init__(self, name, probe, apply_op):
        self.loop, self.probe, self.apply_op = name, probe, apply_op
        self.n = 0

    def observe(self, now):
        self.probe.note(self.loop, "monitor")
        for op in self.probe.inline_ops.pop(self.loop, ()):
            self.apply_op(op)  # a loop acting on the fleet mid-tick
        self.n += 1
        if self.n % 5 == 0:
            return None  # nothing to see: the cycle ends at once
        return Observation(now, self.loop, values={"n": float(self.n)})


class _Analyzer(Analyzer):
    name = "probe-analyzer"

    def __init__(self, loop, probe):
        self.loop, self.probe = loop, probe

    def analyze(self, observation, knowledge):
        self.probe.note(self.loop, "decide")
        n = int(observation.values["n"])
        symptoms = (Symptom(f"s{n}", 1.0),) if n % 3 else ()
        return AnalysisReport(observation.time, self.name, symptoms)


class _Planner(Planner):
    name = "probe-planner"

    def __init__(self, loop, shared):
        self.loop, self.shared = loop, shared

    def plan(self, report, knowledge):
        if not report.symptoms:
            return Plan(report.time, self.name)
        # shared targets make loops contend in the arbiter
        target = "shared" if self.shared else f"{self.loop}:{report.symptoms[0].name}"
        return Plan(report.time, self.name, (Action("poke", target),))


class _Executor(Executor):
    name = "probe-executor"

    def __init__(self, loop, probe, interfere, priority, urgent=False):
        self.loop, self.probe = loop, probe
        self.interfere, self.priority, self.urgent = interfere, priority, urgent

    def execute(self, plan, knowledge):
        engine = self.probe.engine
        self.probe.note(self.loop, "execute")
        for action in plan.actions:
            self.probe.actions.append((engine.now, self.loop, action.target))
        if self.urgent:
            # due now and ahead of the loops still to run at this instant
            engine.schedule(0.0, self.probe.note, self.loop, "urgent", priority=-self.priority - 1)
        if self.interfere is not None:
            # an event due exactly at a later tick instant of the loop,
            # at its engine priority: it must land between the same
            # cohort members as their own events would have put it
            engine.schedule(
                self.interfere, self.probe.note, self.loop, "foreign", priority=-self.priority
            )
        return [ExecutionResult(a, engine.now, honored=True) for a in plan.actions]


LATENCIES = (
    PhaseLatency(),
    PhaseLatency(analyze_s=1.0),
    PhaseLatency(analyze_s=1.0, execute_s=2.0),
    PhaseLatency(analyze_s=10.0),  # decide lands on the next tick of a 10 s loop
    PhaseLatency(monitor_s=0.5, execute_s=0.5),
)
OPS = ("start", "stop", "restart", "quarantine", "unquarantine", "retune", "wedge", "remove")


def _scenario(seed: int) -> dict:
    """A random fleet and a random schedule of lifecycle operations."""
    rnd = random.Random(seed)
    n = rnd.randint(3, 10)
    loops = []
    for i in range(n):
        period = rnd.choice((10.0, 10.0, 10.0, 20.0))
        loops.append(dict(
            name=f"L{i}",
            period=period,
            priority=rnd.choice((0, 0, 1)),
            latency=rnd.choice(LATENCIES),
            start_at=rnd.choice((None, 5.0, 10.0)),
            shared=rnd.random() < 0.3,
            interfere=rnd.choice((None, None, period, 2 * period)),
            urgent=rnd.random() < 0.2,
        ))
    ops = []
    for _ in range(rnd.randint(0, 14)):
        at = rnd.choice((rnd.randrange(0, 120, 5) * 1.0, round(rnd.uniform(0, 120), 2)))
        ops.append(dict(
            at=at,
            priority=rnd.choice((-1, 0, 0, 1)),
            op=rnd.choice(OPS),
            name=f"L{rnd.randrange(n + 1)}",  # L<n> is never added up front
            period=rnd.choice((10.0, 20.0)),
            inline=rnd.random() < 0.25,
        ))
    return dict(
        loops=loops, ops=ops, late=rnd.sample(range(n), rnd.randint(0, 2)),
        jitter=rnd.choice((0.0, 0.0, 0.3)), horizon=rnd.choice((90.0, 130.0)),
    )


def _run(scenario: dict) -> dict:
    engine = Engine()
    probe = _Probe(engine)
    runtime = LoopRuntime(engine, config=RuntimeConfig(phase_jitter_frac=scenario["jitter"]))
    by_name = {d["name"]: d for d in scenario["loops"]}
    extra = dict(name=f"L{len(by_name)}", period=10.0, priority=0, latency=PhaseLatency(),
                 start_at=None, shared=False, interfere=None, urgent=False)
    by_name[extra["name"]] = extra

    def spec(d):
        name = d["name"]
        return LoopSpec(
            name=name,
            monitor_factory=lambda rt: _Monitor(name, probe, apply_op),
            analyzer_factory=lambda: _Analyzer(name, probe),
            planner_factory=lambda: _Planner(name, d["shared"]),
            executor_factory=lambda: _Executor(
                name, probe, d["interfere"], d["priority"], d["urgent"]
            ),
            period_s=d["period"],
            priority=d["priority"],
            start_at=d["start_at"],
            phase_latency=d["latency"],
        )

    def apply_op(op):
        name, kind = op["name"], op["op"]
        probe.note(name, kind)
        handle = runtime.handles.get(name)
        if kind == "start":
            if handle is None:
                runtime.add(spec(by_name[name]), start=True)
            elif not handle.running and not handle.quarantined:
                handle.start()
        elif handle is None:
            return
        elif kind == "stop":
            handle.stop()
        elif kind == "restart":
            runtime.restart(name)
        elif kind == "quarantine":
            runtime.quarantine(name)
        elif kind == "unquarantine":
            if handle.quarantined:
                runtime.unquarantine(name)
        elif kind == "retune":
            runtime.retune(name, period_s=op["period"])
        elif kind == "wedge":
            handle.wedge()
        elif kind == "remove":
            runtime.remove(name)

    def due(op):
        if op["inline"]:
            host = sorted(runtime.handles)[0] if runtime.handles else None
            if host is not None:
                probe.inline_ops.setdefault(host, []).append(op)
                return
        apply_op(op)

    late = {scenario["loops"][i]["name"] for i in scenario["late"]}
    runtime.add_many([spec(d) for d in scenario["loops"] if d["name"] not in late], start=True)
    for op in scenario["ops"]:
        engine.schedule_at(op["at"], due, op, priority=op["priority"])
    # loops that start later, with one event scheduled in between
    for i, name in enumerate(sorted(late)):
        engine.schedule_at(5.0 * i, apply_op, dict(name=name, op="start"))
    engine.run(until=scenario["horizon"])
    stats = runtime.stats()
    return dict(
        trace=probe.trace,
        actions=probe.actions,
        abandoned=stats["abandoned_total"],
        iterations=stats["iterations_total"],
        running=sorted(n for n, h in runtime.handles.items() if h.running),
        vetoes=stats["arbiter_vetoes_total"],
        now=engine.now,
    )


def _oracle(scenario: dict) -> dict:
    with pytest.MonkeyPatch.context() as mp:
        per_loop_scheduling(mp)
        return _run(scenario)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fleet_trace_equals_per_loop_scheduling(seed):
    scenario = _scenario(seed)
    want = _oracle(scenario)
    got = _run(scenario)
    assert got["trace"] == want["trace"]
    assert got["actions"] == want["actions"]
    assert got["abandoned"] == want["abandoned"]
    assert got == want


def test_scenarios_exercise_the_fleet():
    # the property above is only as good as what its fleets do
    runs = [_run(_scenario(seed)) for seed in range(12)]
    phases = {phase for run in runs for _, _, phase in run["trace"]}
    assert {"monitor", "decide", "execute", "foreign", "urgent", *OPS} <= phases
    assert all(run["actions"] for run in runs)
    assert any(run["abandoned"] for run in runs)


def _equal_fleet(n: int, **spec_kw):
    engine = Engine()
    runtime = LoopRuntime(engine)
    probe = _Probe(engine)
    runtime.add_many([
        LoopSpec(
            name=f"a{i:03d}",
            monitor_factory=lambda rt, name=f"a{i:03d}": _Monitor(name, probe, None),
            analyzer_factory=lambda name=f"a{i:03d}": _Analyzer(name, probe),
            planner_factory=lambda name=f"a{i:03d}": _Planner(name, False),
            executor_factory=lambda name=f"a{i:03d}": _Executor(name, probe, None, 0),
            period_s=30.0,
            start_at=30.0,
            **spec_kw,
        )
        for i in range(n)
    ], start=True)
    return engine, runtime


def test_equal_loops_take_at_most_three_events_per_tick():
    engine, runtime = _equal_fleet(256, phase_latency=PhaseLatency(analyze_s=1.0))
    engine.run(until=29.0)
    for tick in (30.0, 60.0, 90.0):
        before, iterations = engine.events_executed, runtime.iterations_total
        engine.run(until=tick + 2.0)
        # one cohort tick, one event for the 256 decide phases, one
        # self-telemetry commit
        assert engine.events_executed - before <= 3
        assert runtime.iterations_total - iterations == 256
        engine.run(until=tick + 29.0)


def test_wedged_member_stops_iterating_but_reports_running():
    engine, runtime = _equal_fleet(4)
    engine.run(until=31.0)
    runtime.handles["a001"].wedge()
    engine.run(until=100.0)
    runs = {name: h.loop.iterations_run for name, h in runtime.handles.items()}
    assert runs == {"a000": 3, "a001": 1, "a002": 3, "a003": 3}
    assert runtime.handles["a001"].running
    runtime.restart("a001")
    engine.run(until=130.0)
    assert runtime.handles["a001"].loop.iterations_run == 1


def test_a_stopped_cohort_leaves_the_engine_queue():
    engine, runtime = _equal_fleet(8, phase_latency=PhaseLatency(analyze_s=1.0))
    engine.run(until=30.5)  # decide phases pending
    runtime.stop()
    assert runtime.stats()["abandoned_total"] == 8
    assert engine.pending_count() == 0
    engine.run()
    assert engine.now == 30.5

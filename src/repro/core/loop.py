"""The MAPE-K loop engine.

``MAPEKLoop`` wires Monitor → Analyze → Plan → (guards) → Execute over a
:class:`~repro.core.knowledge.KnowledgeBase`, iterating on a fixed
period.  Per-phase latencies model where computation/actuation time is
spent: the Analyze+Plan delay means execution acts on a *stale*
observation — the fundamental cost that motivates the paper's interest
in low-latency in-situ analytics.

An optional Assessor runs first in every cycle, scoring earlier plans
against the fresh observation (Knowledge refinement).  Guards run
between Plan and Execute and implement the trust controls of
methodology question iv; vetoed actions are recorded, audited, and
never executed.

A decide or execute phase that waits out a latency is a call in the
engine's phase :class:`~repro.sim.engine.Bundle` for its instant: every
loop's phases due at one instant run from one engine event, in the order
they were scheduled (and around any other event due between them), so a
fleet whose analyze latency ends together costs one event, not one per
loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.audit import AuditTrail
from repro.core.component import Analyzer, Assessor, Executor, Monitor, Planner
from repro.core.guards import Guard
from repro.core.knowledge import KnowledgeBase
from repro.core.types import LoopIteration, Observation, Plan
from repro.obs.trace import TRACER
from repro.sim.engine import Engine, Event, PeriodicTask

#: bundle key of the delayed decide/execute phases of every loop
_PHASES = "mapek-phase"


@dataclass(frozen=True)
class PhaseLatency:
    """Simulated time each phase consumes before its output is available."""

    monitor_s: float = 0.0
    analyze_s: float = 0.0
    plan_s: float = 0.0
    execute_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("monitor_s", "analyze_s", "plan_s", "execute_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def decision_delay(self) -> float:
        """Delay between observation and the execute call."""
        return self.monitor_s + self.analyze_s + self.plan_s


class MAPEKLoop:
    """One autonomy loop instance.

    ``iterations`` keeps only the cycles that did something — planned at
    least one action, had a veto, or executed — the last
    ``keep_iterations`` of them.  An idle cycle is counted
    (``iterations_run``, ``wall_ms_total``) and shown to ``on_iteration``,
    then dropped, so a loop that runs without end holds a bounded
    history whatever its idle share.

    Decide and execute phases delayed by :class:`PhaseLatency` join the
    engine's bundle for their instant, shared with every other loop on
    the engine (see the module docstring); :meth:`stop` cancels the ones
    still pending and reports how many it abandoned.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        *,
        monitor: Monitor,
        analyzer: Analyzer,
        planner: Planner,
        executor: Executor,
        knowledge: Optional[KnowledgeBase] = None,
        assessor: Optional[Assessor] = None,
        guards: Sequence[Guard] = (),
        period_s: float = 60.0,
        phase_latency: PhaseLatency = PhaseLatency(),
        audit: Optional[AuditTrail] = None,
        keep_iterations: int = 256,
        on_iteration: Optional[Callable[[LoopIteration], None]] = None,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.engine = engine
        self.name = name
        self.monitor = monitor
        self.analyzer = analyzer
        self.planner = planner
        self.executor = executor
        self.knowledge = knowledge if knowledge is not None else KnowledgeBase()
        self.assessor = assessor
        self.guards = list(guards)
        self.period_s = period_s
        self.phase_latency = phase_latency
        self.audit = audit
        self.keep_iterations = keep_iterations
        self.on_iteration = on_iteration

        self.iterations: List[LoopIteration] = []
        self.iterations_run = 0
        #: host wall time of every finished cycle, kept or not
        self.wall_ms_total = 0.0
        self._finished = 0
        self.actions_executed = 0
        self.actions_vetoed = 0
        self._task: Optional[PeriodicTask] = None
        self._label = f"loop-{name}"
        #: iteration index -> its decide/execute phase still waiting out
        #: a phase latency
        self._pending: Dict[int, Event] = {}

    # ------------------------------------------------------------- lifecycle
    def start(self, *, start_at: Optional[float] = None) -> None:
        if self._task is not None and not self._task.stopped:
            raise RuntimeError(f"loop {self.name!r} already started")
        self._task = self.engine.every(
            self.period_s, self._begin_cycle, start_at=start_at, label=self._label
        )

    def stop(self) -> int:
        """Stop ticking and abandon the phases already scheduled — a
        stopped loop does not act.  Returns the phases abandoned."""
        if self._task is not None:
            self._task.stop()
        for event in self._pending.values():
            event.cancel()
        abandoned = len(self._pending)
        self._pending.clear()
        return abandoned

    def _later(self, delay: float, phase: Callable, iteration: LoopIteration, arg) -> None:
        engine = self.engine
        self._pending[iteration.index] = engine.bundle(
            _PHASES, engine.now + delay, label=self._label
        ).add(phase, iteration, arg, label=self._label)

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.stopped

    # ---------------------------------------------------------------- cycle
    def run_cycle(self) -> None:
        """Run one MAPE-K cycle starting now.

        Normally invoked by the loop's own periodic task; the
        :class:`~repro.core.runtime.LoopRuntime` calls it directly so it
        can multiplex many loops on shared ticks with priority ordering.
        """
        self._begin_cycle()

    def _begin_cycle(self) -> None:
        # one span per phase entry point: with zero phase latency the
        # decide/execute spans nest synchronously under ``loop.cycle``;
        # with simulated latency they surface as their own roots at the
        # engine times they actually run — either way the trace shows
        # where the cycle's wall-clock went
        if TRACER.enabled:
            with TRACER.span("loop.cycle", loop=self.name):
                self._begin_cycle_impl()
        else:
            self._begin_cycle_impl()

    def _begin_cycle_impl(self) -> None:
        wall_t0 = time.perf_counter()
        now = self.engine.now
        iteration = LoopIteration(index=self.iterations_run, t_monitor=now)
        self.iterations_run += 1
        observation = self.monitor.observe(now)
        iteration.observation = observation
        if observation is None:
            iteration.wall_ms += (time.perf_counter() - wall_t0) * 1e3
            iteration.t_complete = now
            self._finish(iteration)
            return
        iteration.t_observation = observation.time
        if self.assessor is not None:
            self.assessor.assess(observation, self.knowledge)
        delay = self.phase_latency.decision_delay
        iteration.wall_ms += (time.perf_counter() - wall_t0) * 1e3
        if delay > 0:
            self._later(delay, self._decide, iteration, observation)
        else:
            self._decide(iteration, observation)

    def _decide(self, iteration: LoopIteration, observation: Observation) -> None:
        self._pending.pop(iteration.index, None)
        if TRACER.enabled:
            with TRACER.span("loop.decide", loop=self.name):
                self._decide_impl(iteration, observation)
        else:
            self._decide_impl(iteration, observation)

    def _decide_impl(self, iteration: LoopIteration, observation: Observation) -> None:
        wall_t0 = time.perf_counter()
        report = self.analyzer.analyze(observation, self.knowledge)
        iteration.report = report
        plan = self.planner.plan(report, self.knowledge)
        for guard in self.guards:
            plan, vetoed = guard.filter(plan, self.knowledge, self.engine.now)
            iteration.vetoed.extend(vetoed)
        self.actions_vetoed += len(iteration.vetoed)
        iteration.plan = plan
        self._audit_decision(iteration)
        iteration.wall_ms += (time.perf_counter() - wall_t0) * 1e3
        if plan.empty:
            iteration.t_complete = self.engine.now
            self._finish(iteration)
            return
        if self.phase_latency.execute_s > 0:
            self._later(self.phase_latency.execute_s, self._execute, iteration, plan)
        else:
            self._execute(iteration, plan)

    def _execute(self, iteration: LoopIteration, plan: Plan) -> None:
        self._pending.pop(iteration.index, None)
        if TRACER.enabled:
            with TRACER.span("plan.execute", loop=self.name):
                self._execute_impl(iteration, plan)
        else:
            self._execute_impl(iteration, plan)

    def _execute_impl(self, iteration: LoopIteration, plan: Plan) -> None:
        wall_t0 = time.perf_counter()
        iteration.t_execute = self.engine.now
        results = self.executor.execute(plan, self.knowledge)
        iteration.results = results
        iteration.t_complete = self.engine.now
        self.actions_executed += len(results)
        iteration.wall_ms += (time.perf_counter() - wall_t0) * 1e3
        self.knowledge.record_plan(plan, results)
        if self.audit is not None:
            for r in results:
                self.audit.record(
                    self.engine.now,
                    self.name,
                    "execute",
                    f"{r.action.kind}({r.action.target}) "
                    f"{'honored' if r.honored else 'refused'}: {r.detail}",
                )
        self._finish(iteration)

    def _finish(self, iteration: LoopIteration) -> None:
        self._finished += 1
        self.wall_ms_total += iteration.wall_ms
        plan = iteration.plan
        if iteration.vetoed or (plan is not None and plan.actions):
            self.iterations.append(iteration)
            if len(self.iterations) > self.keep_iterations:
                del self.iterations[: len(self.iterations) - self.keep_iterations]
        if self.on_iteration is not None:
            self.on_iteration(iteration)

    def _audit_decision(self, iteration: LoopIteration) -> None:
        if self.audit is None or iteration.plan is None:
            return
        plan = iteration.plan
        if plan.actions or iteration.vetoed:
            self.audit.record(
                self.engine.now,
                self.name,
                "plan",
                plan.rationale or f"{len(plan.actions)} action(s) planned",
                data={"confidence": plan.confidence, "vetoed": len(iteration.vetoed)},
            )

    # ---------------------------------------------------------------- stats
    def recent_staleness(self) -> List[float]:
        """Staleness of the executed cycles among the last
        ``keep_iterations`` finished cycles of any kind.

        Every executed cycle in that window is kept, and the cycles that
        have not finished (waiting out a phase latency, or abandoned by
        :meth:`stop`) are the newest indices, so the window is an index
        range over ``iterations``.
        """
        since = self._finished - self.keep_iterations
        return [
            it.staleness for it in self.iterations
            if it.index >= since and it.staleness is not None
        ]

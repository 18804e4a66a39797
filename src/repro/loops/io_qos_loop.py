"""The I/O QoS use case (Section III case 2).

Goal: "adapt QoS parameters based on the current application performance
and system I/O load to decrease interference, reduce tail latency, and
provide more consistent results for deadline dependent workflows."

The loop protects one *deadline tenant* (a workflow whose writes must
land within a latency target) by adapting the token-bucket allocations
of best-effort tenants with an AIMD policy: when the deadline tenant's
recent latency violates its target, background allocations shrink
multiplicatively; when the system is comfortably healthy, they recover
additively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.component import Analyzer, Executor, Monitor, Planner
from repro.core.knowledge import KnowledgeBase
from repro.core.runtime import LoopSpec
from repro.core.types import (
    Action,
    AnalysisReport,
    ExecutionResult,
    Observation,
    Plan,
    Symptom,
)
from repro.query.engine import QueryEngine
from repro.storage.client import PeriodicWriter
from repro.storage.filesystem import ParallelFileSystem
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore


@dataclass
class IoQosConfig:
    """Targets and AIMD parameters for the I/O-QoS loop."""

    deadline_tenant: str = "workflow"
    latency_target_s: float = 2.0
    headroom_fraction: float = 0.5  # recovery when worst <= fraction × target
    recent_window: int = 5
    #: telemetry window the monitor queries; None → recent_window × the
    #: deadline tenant's write period (≈ the last recent_window writes)
    observation_window_s: Optional[float] = None
    decrease_factor: float = 0.5
    increase_mbps: float = 50.0
    min_rate_mbps: float = 50.0
    max_rate_mbps: float = 2000.0
    loop_period_s: float = 60.0

    def __post_init__(self) -> None:
        if not 0.0 < self.decrease_factor < 1.0:
            raise ValueError("decrease_factor must be in (0, 1)")
        if self.latency_target_s <= 0:
            raise ValueError("latency_target_s must be positive")
        if not 0.0 < self.headroom_fraction < 1.0:
            raise ValueError("headroom_fraction must be in (0, 1)")


class IoLoadMonitor(Monitor):
    """Observes the deadline tenant's recent latency and system I/O load.

    The monitor is a small telemetry pipeline of its own: completed
    transfers are published into a time-series store as
    ``io_write_latency_s{client=...}`` (plus ``fs_load_fraction``), and
    the observation is then *queried back* through the query engine —
    the same serving path dashboards use — instead of peeking at writer
    internals.
    """

    name = "io-load-monitor"

    def __init__(
        self,
        fs: ParallelFileSystem,
        writers: Sequence[PeriodicWriter],
        config: IoQosConfig,
        *,
        query_engine: Optional[QueryEngine] = None,
    ) -> None:
        self.fs = fs
        self.writers = {w.client_id: w for w in writers}
        self.config = config
        # Instant queries end at a fresh `now` each tick: caching would
        # serve sub-quantum stale observations, so the default is uncached.
        self.query_engine = (
            query_engine
            if query_engine is not None
            else QueryEngine(TimeSeriesStore(), enable_cache=False)
        )
        self.store = self.query_engine.store
        self._ingested = {w.client_id: 0 for w in writers}
        self._load_key = SeriesKey.of("fs_load_fraction")

    def _window_s(self, deadline_writer: PeriodicWriter) -> float:
        if self.config.observation_window_s is not None:
            return self.config.observation_window_s
        return self.config.recent_window * deadline_writer.period_s

    def _ingest(self, now: float) -> None:
        """Publish transfers completed since the last observation."""
        for client_id, writer in self.writers.items():
            start = self._ingested[client_id]
            for transfer in writer.transfers[start:]:
                self.store.insert(
                    SeriesKey.of("io_write_latency_s", client=client_id),
                    transfer.t_end,
                    transfer.duration,
                )
            self._ingested[client_id] = len(writer.transfers)
        self.store.insert(self._load_key, now, self.fs.load_fraction())

    def observe(self, now: float) -> Optional[Observation]:
        deadline_writer = self.writers.get(self.config.deadline_tenant)
        if deadline_writer is None or not deadline_writer.transfers:
            return None
        self._ingest(now)
        window = self._window_s(deadline_writer)
        # `group by (client)` keeps selection inside the output labels, so
        # a shared QueryHub can fuse these reads across tenant loops
        selector = f'io_write_latency_s{{client="{self.config.deadline_tenant}"}}[{window:g}s]'
        suffix = " group by (client)"
        worst = self.query_engine.scalar(f"max({selector}){suffix}", at=now)
        mean = self.query_engine.scalar(f"mean({selector}){suffix}", at=now)
        count = self.query_engine.scalar(f"count({selector}){suffix}", at=now)
        if worst is None or mean is None:
            # stalled tenant: no transfer landed inside the window — fall
            # back to its most recent completions so the loop still reacts
            recent = deadline_writer.transfers[-self.config.recent_window :]
            latencies = [t.duration for t in recent]
            worst, mean, count = float(np.max(latencies)), float(np.mean(latencies)), len(recent)
        fs_load = self.query_engine.scalar(f"last(fs_load_fraction[{window:g}s])", at=now)
        values = {
            "deadline_p_latency": float(worst),
            "deadline_mean_latency": float(mean),
            "fs_load": float(fs_load) if fs_load is not None else self.fs.load_fraction(),
        }
        return Observation(now, self.name, values=values, context={"recent_n": int(count)})


class QosAnalyzer(Analyzer):
    """Diagnoses latency-target violations and spare headroom."""

    name = "qos-analyzer"

    def __init__(self, config: IoQosConfig) -> None:
        self.config = config

    def analyze(self, observation: Observation, knowledge: KnowledgeBase) -> AnalysisReport:
        worst = observation.values["deadline_p_latency"]
        target = self.config.latency_target_s
        symptoms = []
        if worst > target:
            severity = min(1.0, (worst - target) / target)
            symptoms.append(
                Symptom(
                    "latency_violation",
                    severity,
                    evidence=f"worst recent latency {worst:.2f}s > target {target:.2f}s",
                )
            )
        elif worst <= self.config.headroom_fraction * target:
            symptoms.append(
                Symptom("headroom", 0.1, evidence=f"worst latency {worst:.2f}s well under target")
            )
        return AnalysisReport(
            observation.time,
            self.name,
            tuple(symptoms),
            metrics={"worst_latency": worst, "fs_load": observation.values["fs_load"]},
            confidence=min(1.0, observation.context.get("recent_n", 0) / self.config.recent_window),
        )


class AimdQosPlanner(Planner):
    """AIMD over background tenants' sustained rates."""

    name = "aimd-qos-planner"

    def __init__(self, config: IoQosConfig, background_tenants: Sequence[str]) -> None:
        self.config = config
        self.background = list(background_tenants)

    def plan(self, report: AnalysisReport, knowledge: KnowledgeBase) -> Plan:
        cfg = self.config
        actions = []
        if report.has_symptom("latency_violation"):
            for tenant in self.background:
                current = knowledge.recall(f"rate:{tenant}", cfg.max_rate_mbps)
                new_rate = max(cfg.min_rate_mbps, current * cfg.decrease_factor)
                if new_rate < current:
                    actions.append(
                        Action(
                            "set_qos_rate",
                            tenant,
                            params={"rate_mbps": new_rate},
                            rationale=f"violation: throttle {tenant} {current:.0f}→{new_rate:.0f} MB/s",
                        )
                    )
        elif report.has_symptom("headroom"):
            for tenant in self.background:
                current = knowledge.recall(f"rate:{tenant}", cfg.max_rate_mbps)
                new_rate = min(cfg.max_rate_mbps, current + cfg.increase_mbps)
                if new_rate > current:
                    actions.append(
                        Action(
                            "set_qos_rate",
                            tenant,
                            params={"rate_mbps": new_rate},
                            rationale=f"headroom: restore {tenant} {current:.0f}→{new_rate:.0f} MB/s",
                        )
                    )
        rationale = "; ".join(a.rationale for a in actions)
        return Plan(report.time, self.name, tuple(actions), report.confidence, rationale)


class QosExecutor(Executor):
    """Applies allocation changes through the filesystem's QoS manager."""

    name = "qos-executor"

    def __init__(self, fs: ParallelFileSystem, *, burst_factor_s: float = 2.0) -> None:
        self.fs = fs
        self.burst_factor_s = burst_factor_s

    def execute(self, plan: Plan, knowledge: KnowledgeBase) -> List[ExecutionResult]:
        now = self.fs.engine.now
        results = []
        for action in plan.actions:
            if action.kind != "set_qos_rate":
                results.append(ExecutionResult(action, now, honored=False, detail="unknown kind"))
                continue
            rate = action.param("rate_mbps")
            burst = rate * self.burst_factor_s
            self.fs.qos.set_allocation(action.target, rate, burst, now=now)
            knowledge.remember(f"rate:{action.target}", rate)
            results.append(
                ExecutionResult(
                    action, now, honored=True, detail=f"rate={rate:.0f} MB/s burst={burst:.0f} MB"
                )
            )
        return results


def io_qos_spec(
    fs: ParallelFileSystem,
    writers: Sequence[PeriodicWriter],
    *,
    config: Optional[IoQosConfig] = None,
) -> LoopSpec:
    """Declarative spec for the I/O-QoS case.

    The monitor's query set is dynamic (windows track the deadline
    tenant's write period), so the spec wires a ``monitor_factory`` that
    reads through the runtime's shared :class:`~repro.core.runtime.QueryHub`
    instead of a static query list.
    """
    config = config if config is not None else IoQosConfig()
    background = [w.client_id for w in writers if w.client_id != config.deadline_tenant]
    return LoopSpec(
        name="io-qos-case",
        monitor_factory=lambda runtime: IoLoadMonitor(
            fs, writers, config, query_engine=runtime.hub
        ),
        analyzer_factory=lambda: QosAnalyzer(config),
        planner_factory=lambda: AimdQosPlanner(config, background),
        executor_factory=lambda: QosExecutor(fs),
        knowledge_factory=KnowledgeBase,
        period_s=config.loop_period_s,
    )

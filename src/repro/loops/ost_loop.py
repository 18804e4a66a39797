"""The OST use case (Section III case 3).

Goal: from "continuous evaluation of storage back-end write
performance", have the application "close files using a poorly
performing OST ... then reopen them using different OSTs, or explicitly
request to avoid that OST".

Detection is relative: an OST whose recent achieved bandwidth falls
below ``slow_fraction`` of the fleet median is flagged.  The response
tells every affected writer to avoid the OST; recovery (bandwidth back
above ``recover_fraction`` of the median) clears the avoidance for new
placements.

The case runs under the :class:`~repro.core.runtime.LoopRuntime` from
:func:`ost_case_spec`: the Monitor phase is a single declarative query
(``last(ost_write_bw_mbps) group by (ost)``) over series published by
the :class:`~repro.loops.bridges.FilesystemTelemetryBridge`, replacing
the legacy direct ``fs.ost_bandwidth_mbps()`` reads (kept as a test
oracle in ``tests/loops/legacy_monitors.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.component import Analyzer, Executor, Planner
from repro.core.knowledge import KnowledgeBase
from repro.core.runtime import LoopSpec, MonitorQuery
from repro.core.types import (
    Action,
    AnalysisReport,
    ExecutionResult,
    Observation,
    Plan,
    Symptom,
)
from repro.sim.engine import Engine
from repro.storage.client import PeriodicWriter
from repro.storage.filesystem import ParallelFileSystem


@dataclass
class OstCaseConfig:
    """Detection thresholds for the OST loop."""

    slow_fraction: float = 0.5  # flagged below this fraction of the median
    min_observations: int = 3  # EWMA warm-up per OST
    loop_period_s: float = 60.0

    def __post_init__(self) -> None:
        if not 0.0 < self.slow_fraction < 1.0:
            raise ValueError("slow_fraction must be in (0, 1)")


class SlowOstAnalyzer(Analyzer):
    """Flags OSTs serving well below the fleet median."""

    name = "slow-ost-analyzer"

    def __init__(self, config: OstCaseConfig) -> None:
        self.config = config

    def analyze(self, observation: Observation, knowledge: KnowledgeBase) -> AnalysisReport:
        bw = {
            key.split(":", 1)[1]: value
            for key, value in observation.values.items()
            if key.startswith("bw:")
        }
        symptoms = []
        metrics: Dict[str, float] = {}
        if len(bw) >= 2:
            median = float(np.median(list(bw.values())))
            metrics["median_bw"] = median
            threshold = self.config.slow_fraction * median
            for ost_id, value in sorted(bw.items()):
                metrics[f"bw:{ost_id}"] = value
                if value < threshold:
                    severity = min(1.0, 1.0 - value / max(median, 1e-9))
                    symptoms.append(
                        Symptom(
                            f"slow_ost:{ost_id}",
                            severity,
                            evidence=f"{ost_id} at {value:.0f} MB/s vs median {median:.0f} MB/s",
                        )
                    )
        return AnalysisReport(observation.time, self.name, tuple(symptoms), metrics, 1.0)


class AvoidOstPlanner(Planner):
    """Plans avoid-OST responses for writers striped over slow OSTs."""

    name = "avoid-ost-planner"

    def __init__(self, writers: Sequence[PeriodicWriter]) -> None:
        self.writers = list(writers)

    def plan(self, report: AnalysisReport, knowledge: KnowledgeBase) -> Plan:
        slow = {
            s.name.split(":", 1)[1] for s in report.symptoms if s.name.startswith("slow_ost:")
        }
        if not slow:
            return Plan(report.time, self.name)
        actions = []
        for writer in self.writers:
            affected = slow.intersection(writer.file.stripe_osts)
            if not affected:
                continue
            already = knowledge.recall(f"avoiding:{writer.client_id}", frozenset())
            if affected <= already:
                continue
            actions.append(
                Action(
                    "avoid_osts",
                    writer.client_id,
                    params={},
                    rationale=f"{writer.client_id} striped over slow OST(s) {sorted(affected)}",
                )
            )
            knowledge.remember(f"avoiding:{writer.client_id}", frozenset(already | affected))
            knowledge.remember(f"avoid_set:{writer.client_id}", sorted(slow))
        rationale = "; ".join(a.rationale for a in actions)
        return Plan(report.time, self.name, tuple(actions), 1.0, rationale)


class WriterExecutor(Executor):
    """Delivers avoid-OST requests to the application-side writers."""

    name = "writer-executor"

    def __init__(self, engine: Engine, writers: Sequence[PeriodicWriter]) -> None:
        self.engine = engine
        self.writers = {w.client_id: w for w in writers}

    def execute(self, plan: Plan, knowledge: KnowledgeBase) -> List[ExecutionResult]:
        now = self.engine.now
        results = []
        for action in plan.actions:
            writer = self.writers.get(action.target)
            if writer is None:
                results.append(ExecutionResult(action, now, honored=False, detail="unknown writer"))
                continue
            avoid = set(knowledge.recall(f"avoid_set:{action.target}", []))
            writer.avoid_osts(avoid)
            results.append(
                ExecutionResult(
                    action, now, honored=True, detail=f"reopening without {sorted(avoid)}"
                )
            )
        return results


def ost_case_spec(
    engine: Engine,
    fs: ParallelFileSystem,
    writers: Sequence[PeriodicWriter],
    *,
    config: Optional[OstCaseConfig] = None,
) -> LoopSpec:
    """Declarative spec for the OST case (monitor = one grouped query)."""
    config = config if config is not None else OstCaseConfig()

    def build(now: float, inputs) -> Optional[Observation]:
        result = inputs["bw"]
        values: Dict[str, float] = {
            f"bw:{series.label('ost')}": float(series.values[-1])
            for series in result.series
            if series.values.size
        }
        if not values:
            return None
        return Observation(now, "ost-bandwidth-monitor", values=values)

    return LoopSpec(
        name="ost-case",
        queries=(MonitorQuery("bw", "last(ost_write_bw_mbps) group by (ost)"),),
        build_observation=build,
        analyzer_factory=lambda: SlowOstAnalyzer(config),
        planner_factory=lambda: AvoidOstPlanner(writers),
        executor_factory=lambda: WriterExecutor(engine, writers),
        period_s=config.loop_period_s,
    )

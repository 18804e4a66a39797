"""MAPE-K autonomy loops for MODA — the paper's primary contribution.

This package provides the formalized loop machinery the paper proposes:

* typed contracts between Monitor, Analyze, Plan, and Execute components
  (:mod:`~repro.core.types`, :mod:`~repro.core.component`) so components
  are interchangeable (methodology question ii),
* a :class:`~repro.core.knowledge.KnowledgeBase` with plan-outcome
  assessment and refinement (the K, including "assess the Knowledge
  about the success of the Plan"),
* the :class:`~repro.core.loop.MAPEKLoop` engine with per-phase latency
  modelling,
* decision confidence measures and safety guards (Section IV / trust),
* human-in-the-loop and human-on-the-loop adapters,
* an audit trail with explanations,
* the unified loop runtime (:mod:`~repro.core.runtime`): declarative
  :class:`~repro.core.runtime.LoopSpec` descriptions instantiated and
  multiplexed by a :class:`~repro.core.runtime.LoopRuntime` with fused
  query-backed monitoring, cross-loop plan arbitration
  (:mod:`~repro.core.arbiter`), and per-loop self-telemetry,
* the four decentralization patterns of Fig. 2 as loop specs on that
  runtime (:mod:`~repro.core.patterns`): gossip and master traffic are
  reads of the runtime's store, a network hop is a phase latency, and
  the hierarchical rebalancer is a meta-loop.
"""

from repro.core.types import (
    Action,
    AnalysisReport,
    ExecutionResult,
    LoopIteration,
    Observation,
    Plan,
    Symptom,
)
from repro.core.component import Analyzer, Assessor, Executor, Monitor, Planner
from repro.core.knowledge import KnowledgeBase, PlanOutcome
from repro.core.loop import MAPEKLoop, PhaseLatency
from repro.core.guards import (
    ActionBudgetGuard,
    ActionKindGuard,
    ConfidenceGuard,
    Guard,
    RateLimitGuard,
)
from repro.core.confidence import combined_confidence, interval_confidence, success_confidence
from repro.core.audit import AuditEvent, AuditTrail
from repro.core.humanloop import (
    ContingencyPolicy,
    HumanInTheLoopExecutor,
    HumanOnTheLoopNotifier,
    HumanResponseModel,
)
from repro.core.persistence import load_knowledge, save_knowledge
from repro.core.arbiter import ArbiterGuard, PlanArbiter
from repro.core.runtime import (
    LoopHandle,
    LoopRuntime,
    LoopSpec,
    MonitorQuery,
    QueryHub,
    QueryMonitor,
    RuntimeConfig,
)
from repro.core.patterns import DriftingElement

__all__ = [
    "Action",
    "ActionBudgetGuard",
    "ActionKindGuard",
    "AnalysisReport",
    "Analyzer",
    "ArbiterGuard",
    "Assessor",
    "AuditEvent",
    "AuditTrail",
    "ConfidenceGuard",
    "ContingencyPolicy",
    "DriftingElement",
    "ExecutionResult",
    "Executor",
    "Guard",
    "HumanInTheLoopExecutor",
    "HumanOnTheLoopNotifier",
    "HumanResponseModel",
    "KnowledgeBase",
    "LoopHandle",
    "LoopIteration",
    "LoopRuntime",
    "LoopSpec",
    "MAPEKLoop",
    "Monitor",
    "MonitorQuery",
    "Observation",
    "PhaseLatency",
    "Plan",
    "PlanArbiter",
    "PlanOutcome",
    "Planner",
    "QueryHub",
    "QueryMonitor",
    "RateLimitGuard",
    "RuntimeConfig",
    "Symptom",
    "combined_confidence",
    "interval_confidence",
    "load_knowledge",
    "save_knowledge",
    "success_confidence",
]

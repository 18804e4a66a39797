"""Typed contracts between MAPE-K components.

These dataclasses are the "interfaces or data formats [that] would
enable those components to be interchangeable" (methodology question
ii): any Monitor can feed any Analyzer because both speak
:class:`Observation`; any Planner output can be vetted by guards and
executed by any Executor because it is a :class:`Plan` of
:class:`Action` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class Observation:
    """Output of the Monitor phase: a timestamped snapshot.

    ``values`` carries numeric signals; ``context`` carries structured
    side information (job state, raw markers, topology) the analyzer may
    need.  Monitors should keep ``values`` flat and unit-documented.
    """

    time: float
    source: str
    values: Mapping[str, float] = field(default_factory=dict)
    context: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Symptom:
    """A named condition the Analyze phase diagnosed."""

    name: str
    severity: float  # 0..1
    evidence: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError("severity must be in [0, 1]")


@dataclass(frozen=True)
class AnalysisReport:
    """Output of the Analyze phase.

    ``confidence`` quantifies how much the Plan phase should trust the
    diagnosis/forecast (Section IV's requirement for moving beyond
    human-in-the-loop).  ``metrics`` carries derived quantities such as
    forecast ETA and interval bounds.
    """

    time: float
    source: str
    symptoms: Tuple[Symptom, ...] = ()
    metrics: Mapping[str, float] = field(default_factory=dict)
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")

    def has_symptom(self, name: str) -> bool:
        return any(s.name == name for s in self.symptoms)

    def symptom(self, name: str) -> Optional[Symptom]:
        for s in self.symptoms:
            if s.name == name:
                return s
        return None


@dataclass(frozen=True)
class Action:
    """One planned response, addressed to an actuator by ``kind``."""

    kind: str
    target: str
    params: Mapping[str, float] = field(default_factory=dict)
    rationale: str = ""

    def param(self, key: str, default: float = 0.0) -> float:
        return float(self.params.get(key, default))


@dataclass(frozen=True)
class Plan:
    """Output of the Plan phase: ordered actions plus meta-information."""

    time: float
    source: str
    actions: Tuple[Action, ...] = ()
    confidence: float = 1.0
    rationale: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")

    @property
    def empty(self) -> bool:
        return not self.actions

    def without(self, dropped: "List[Action]") -> "Plan":
        """A copy with ``dropped`` actions removed (guard support), or ``self``."""
        if not dropped:
            return self
        remaining = tuple(a for a in self.actions if a not in dropped)
        return Plan(self.time, self.source, remaining, self.confidence, self.rationale)


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing one action.

    ``honored`` distinguishes "the actuator accepted" from "the actuator
    refused" — the paper stresses the loop "needs awareness of whether
    or not the request was honored by the scheduler".
    """

    action: Action
    time: float
    honored: bool
    detail: str = ""
    response: Mapping[str, float] = field(default_factory=dict)


@dataclass
class LoopIteration:
    """Record of one full MAPE-K cycle (knowledge + audit payload).

    Timestamps separate the three moments that matter for staleness
    accounting: ``t_monitor`` (when the Monitor phase ran),
    ``t_observation`` (the time the observed data refers to — usually
    equal to ``t_monitor``, but a telemetry-backed monitor may serve a
    slightly older snapshot), and ``t_execute`` (when the Execute phase
    actually actuated).  ``staleness`` — how old the observation was at
    actuation time — is derivable everywhere instead of being
    approximated by :attr:`PhaseLatency.decision_delay`.
    """

    index: int
    t_monitor: float
    observation: Optional[Observation] = None
    report: Optional[AnalysisReport] = None
    plan: Optional[Plan] = None
    results: List[ExecutionResult] = field(default_factory=list)
    vetoed: List[Action] = field(default_factory=list)
    t_observation: Optional[float] = None
    t_execute: Optional[float] = None
    t_complete: Optional[float] = None
    wall_ms: float = 0.0  # host CPU time spent in this cycle's callbacks

    @property
    def latency(self) -> Optional[float]:
        """Monitor-to-done latency of this cycle."""
        if self.t_complete is None:
            return None
        return self.t_complete - self.t_monitor

    @property
    def staleness(self) -> Optional[float]:
        """Age of the observation when the Execute phase ran.

        ``None`` until the cycle reaches Execute (or when it never
        does — empty plans are not actuated, so they have no decision
        staleness).
        """
        if self.t_execute is None or self.t_observation is None:
            return None
        return self.t_execute - self.t_observation

    @property
    def acted(self) -> bool:
        return bool(self.results)

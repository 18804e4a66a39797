"""The K in MAPE-K.

``KnowledgeBase`` is the shared memory of a loop (or a federation of
loops): durable facts, run history for cross-run comparison, a model
registry with metadata (the Section IV storage concern: "metadata
representations for models, moving beyond ... raw time-series data"),
and plan-outcome records that the Assess step scores so the loop can
learn whether its plans work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.analytics.similarity import RunHistory
from repro.core.types import ExecutionResult, Plan


@dataclass
class PlanOutcome:
    """A plan, what its execution reported, and how well it worked out.

    ``score`` is assigned later by an Assessor comparing intent with
    reality (e.g. extension size vs. actual overrun); ``None`` means
    not yet assessed.
    """

    plan: Plan
    results: List[ExecutionResult] = field(default_factory=list)
    score: Optional[float] = None
    assessed_at: Optional[float] = None

    @property
    def honored(self) -> bool:
        return any(r.honored for r in self.results)


@dataclass(frozen=True)
class ModelEntry:
    """A registered model plus the metadata operators need to trust it."""

    name: str
    model: Any
    kind: str = ""
    trained_at: float = 0.0
    metadata: Mapping[str, float] = field(default_factory=dict)


class KnowledgeBase:
    """Loop-shared knowledge store."""

    def __init__(self) -> None:
        self._facts: Dict[str, Any] = {}
        self.run_history = RunHistory()
        self._models: Dict[str, ModelEntry] = {}
        self.plan_outcomes: List[PlanOutcome] = []
        # operation counters for the storage benchmark (E10)
        self.fact_writes = 0
        self.fact_reads = 0
        self.model_writes = 0

    # ----------------------------------------------------------------- facts
    def remember(self, key: str, value: Any) -> None:
        self._facts[key] = value
        self.fact_writes += 1

    def recall(self, key: str, default: Any = None) -> Any:
        self.fact_reads += 1
        return self._facts.get(key, default)

    def forget(self, key: str) -> None:
        self._facts.pop(key, None)

    # ---------------------------------------------------------------- models
    def register_model(self, entry: ModelEntry) -> None:
        self._models[entry.name] = entry
        self.model_writes += 1

    def model(self, name: str) -> Optional[ModelEntry]:
        return self._models.get(name)

    def models(self) -> List[str]:
        return sorted(self._models)

    # --------------------------------------------------------- plan outcomes
    def record_plan(self, plan: Plan, results: List[ExecutionResult]) -> PlanOutcome:
        outcome = PlanOutcome(plan=plan, results=list(results))
        self.plan_outcomes.append(outcome)
        return outcome

    def unassessed_outcomes(self) -> List[PlanOutcome]:
        return [o for o in self.plan_outcomes if o.score is None]

    def assess_outcome(self, outcome: PlanOutcome, score: float, now: float) -> None:
        if not 0.0 <= score <= 1.0:
            raise ValueError("score must be in [0, 1]")
        outcome.score = score
        outcome.assessed_at = now

    def effectiveness(self, last_n: Optional[int] = None) -> Optional[float]:
        """Mean assessed score of recent plans; ``None`` with no data."""
        scored = [o.score for o in self.plan_outcomes if o.score is not None]
        if last_n is not None:
            scored = scored[-last_n:]
        if not scored:
            return None
        return sum(scored) / len(scored)

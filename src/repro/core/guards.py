"""Safety guards — the trust controls of methodology question iv.

Guards sit between Plan and Execute.  Each returns the filtered plan and
the list of vetoed actions, so the loop can audit what was blocked and
why.  The paper's concrete proposal — "limits on the number and overall
time of extensions for a single application" — is
:class:`ActionBudgetGuard`.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Set, Tuple

from repro.core.knowledge import KnowledgeBase
from repro.core.types import Action, Plan


class Guard(abc.ABC):
    """Plan filter; implementations must be stateless or self-contained."""

    name: str = "guard"

    @abc.abstractmethod
    def filter(
        self, plan: Plan, knowledge: KnowledgeBase, now: float
    ) -> Tuple[Plan, List[Action]]:
        """Return ``(filtered_plan, vetoed_actions)``."""


class ActionBudgetGuard(Guard):
    """Per-target budget on action count and cumulative parameter amount.

    ``amount_param`` names the Action parameter whose sum is budgeted
    (e.g. ``extra_s`` for walltime extensions).  Exhausted budgets veto
    further actions for that target.
    """

    name = "action-budget"

    def __init__(
        self,
        *,
        kinds: Optional[Set[str]] = None,
        max_actions_per_target: int = 3,
        max_amount_per_target: float = float("inf"),
        amount_param: str = "extra_s",
    ) -> None:
        if max_actions_per_target < 0:
            raise ValueError("max_actions_per_target must be >= 0")
        if max_amount_per_target < 0:
            raise ValueError("max_amount_per_target must be >= 0")
        self.kinds = kinds
        self.max_actions_per_target = max_actions_per_target
        self.max_amount_per_target = max_amount_per_target
        self.amount_param = amount_param
        self._counts: Dict[str, int] = {}
        self._amounts: Dict[str, float] = {}

    def _applies(self, action: Action) -> bool:
        return self.kinds is None or action.kind in self.kinds

    def filter(self, plan, knowledge, now):
        vetoed: List[Action] = []
        for action in plan.actions:
            if not self._applies(action):
                continue
            count = self._counts.get(action.target, 0)
            amount = self._amounts.get(action.target, 0.0)
            requested = action.param(self.amount_param)
            if count >= self.max_actions_per_target:
                vetoed.append(action)
            elif amount + requested > self.max_amount_per_target:
                vetoed.append(action)
            else:
                self._counts[action.target] = count + 1
                self._amounts[action.target] = amount + requested
        return plan.without(vetoed), vetoed

    def spent(self, target: str) -> Tuple[int, float]:
        """Budget consumed by a target: ``(actions, amount)``."""
        return self._counts.get(target, 0), self._amounts.get(target, 0.0)


class ConfidenceGuard(Guard):
    """Blocks whole plans below a confidence threshold (Section IV).

    Confidence gating is what lets the site run the loop autonomously:
    uncertain analyses produce notifications, not actions.
    """

    name = "confidence"

    def __init__(self, min_confidence: float = 0.5) -> None:
        if not 0.0 <= min_confidence <= 1.0:
            raise ValueError("min_confidence must be in [0, 1]")
        self.min_confidence = min_confidence

    def filter(self, plan, knowledge, now):
        if plan.confidence >= self.min_confidence or plan.empty:
            return plan, []
        return plan.without(list(plan.actions)), list(plan.actions)

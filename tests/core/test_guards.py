"""Tests for safety guards."""

import pytest

from repro.core.guards import ActionBudgetGuard, ConfidenceGuard
from repro.core.knowledge import KnowledgeBase
from repro.core.types import Action, Plan


def plan_with(*actions, confidence=1.0):
    return Plan(0.0, "test", actions=tuple(actions), confidence=confidence)


K = KnowledgeBase()


class TestActionBudgetGuard:
    def test_allows_within_budget(self):
        g = ActionBudgetGuard(max_actions_per_target=2, max_amount_per_target=1000.0)
        a = Action("extend", "j1", params={"extra_s": 400.0})
        filtered, vetoed = g.filter(plan_with(a), K, 0.0)
        assert filtered.actions == (a,)
        assert vetoed == []

    def test_vetoes_beyond_count(self):
        g = ActionBudgetGuard(max_actions_per_target=1)
        a = Action("extend", "j1", params={"extra_s": 10.0})
        g.filter(plan_with(a), K, 0.0)
        filtered, vetoed = g.filter(plan_with(a), K, 1.0)
        assert filtered.empty
        assert vetoed == [a]

    def test_vetoes_beyond_amount(self):
        g = ActionBudgetGuard(max_actions_per_target=10, max_amount_per_target=500.0)
        a1 = Action("extend", "j1", params={"extra_s": 400.0})
        a2 = Action("extend", "j1", params={"extra_s": 200.0})
        g.filter(plan_with(a1), K, 0.0)
        _, vetoed = g.filter(plan_with(a2), K, 1.0)
        assert vetoed == [a2]
        assert g.spent("j1") == (1, 400.0)

    def test_budgets_are_per_target(self):
        g = ActionBudgetGuard(max_actions_per_target=1)
        a1 = Action("extend", "j1", params={"extra_s": 10.0})
        a2 = Action("extend", "j2", params={"extra_s": 10.0})
        g.filter(plan_with(a1), K, 0.0)
        filtered, vetoed = g.filter(plan_with(a2), K, 1.0)
        assert not filtered.empty and vetoed == []

    def test_kind_scoping(self):
        g = ActionBudgetGuard(kinds={"extend"}, max_actions_per_target=0)
        other = Action("checkpoint", "j1")
        filtered, vetoed = g.filter(plan_with(other), K, 0.0)
        assert not filtered.empty and vetoed == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ActionBudgetGuard(max_actions_per_target=-1)
        with pytest.raises(ValueError):
            ActionBudgetGuard(max_amount_per_target=-1.0)

    def test_vetoed_action_spends_no_budget(self):
        g = ActionBudgetGuard(max_actions_per_target=5, max_amount_per_target=500.0)
        big = Action("extend", "j1", params={"extra_s": 600.0})
        small = Action("extend", "j1", params={"extra_s": 500.0})
        _, vetoed = g.filter(plan_with(big), K, 0.0)
        assert vetoed == [big] and g.spent("j1") == (0, 0.0)
        filtered, vetoed = g.filter(plan_with(small), K, 1.0)
        assert filtered.actions == (small,) and vetoed == []

    def test_budget_is_spent_in_plan_order(self):
        g = ActionBudgetGuard(max_actions_per_target=2)
        a1, a2, a3 = (Action("extend", "j1", params={"extra_s": float(i)}) for i in (1, 2, 3))
        filtered, vetoed = g.filter(plan_with(a1, a2, a3), K, 0.0)
        assert filtered.actions == (a1, a2) and vetoed == [a3]
        assert g.spent("j1") == (2, 3.0)

    def test_amount_param_names_the_budgeted_parameter(self):
        g = ActionBudgetGuard(max_amount_per_target=10.0, amount_param="rate")
        a1 = Action("set_qos_rate", "t1", params={"rate": 6.0, "extra_s": 1e9})
        a2 = Action("set_qos_rate", "t1", params={"rate": 6.0})
        filtered, vetoed = g.filter(plan_with(a1, a2), K, 0.0)
        assert filtered.actions == (a1,) and vetoed == [a2]
        assert g.spent("t1") == (1, 6.0)

    def test_action_without_the_parameter_spends_a_count_only(self):
        g = ActionBudgetGuard(max_actions_per_target=3, max_amount_per_target=0.0)
        a = Action("extend", "j1")
        filtered, vetoed = g.filter(plan_with(a), K, 0.0)
        assert filtered.actions == (a,) and vetoed == []
        assert g.spent("j1") == (1, 0.0)

    def test_untouched_target_has_spent_nothing(self):
        assert ActionBudgetGuard().spent("j9") == (0, 0.0)


class TestConfidenceGuard:
    def test_blocks_low_confidence_plan(self):
        g = ConfidenceGuard(min_confidence=0.7)
        a = Action("extend", "j1")
        filtered, vetoed = g.filter(plan_with(a, confidence=0.5), K, 0.0)
        assert filtered.empty and vetoed == [a]

    def test_passes_confident_plan(self):
        g = ConfidenceGuard(min_confidence=0.7)
        a = Action("extend", "j1")
        filtered, vetoed = g.filter(plan_with(a, confidence=0.9), K, 0.0)
        assert not filtered.empty and vetoed == []

    def test_empty_plan_passes(self):
        g = ConfidenceGuard(min_confidence=0.99)
        filtered, vetoed = g.filter(plan_with(confidence=0.1), K, 0.0)
        assert filtered.empty and vetoed == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfidenceGuard(min_confidence=1.5)

    def test_threshold_is_inclusive(self):
        g = ConfidenceGuard(min_confidence=0.7)
        a = Action("extend", "j1")
        filtered, vetoed = g.filter(plan_with(a, confidence=0.7), K, 0.0)
        assert filtered.actions == (a,) and vetoed == []

    def test_low_confidence_vetoes_every_action_of_the_plan(self):
        g = ConfidenceGuard(min_confidence=0.7)
        a, b = Action("extend", "j1"), Action("checkpoint", "j2")
        filtered, vetoed = g.filter(plan_with(a, b, confidence=0.2), K, 0.0)
        assert filtered.empty and vetoed == [a, b]

    @pytest.mark.parametrize("bound", [0.0, 1.0])
    def test_bounds_of_the_unit_interval_are_accepted(self, bound):
        assert ConfidenceGuard(min_confidence=bound).min_confidence == bound

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            ConfidenceGuard(min_confidence=-0.1)

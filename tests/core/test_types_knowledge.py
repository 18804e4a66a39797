"""Tests for typed contracts and the knowledge base."""

import pytest

from repro.core.knowledge import KnowledgeBase, ModelEntry
from repro.core.types import Action, AnalysisReport, ExecutionResult, LoopIteration, Plan, Symptom


class TestTypes:
    def test_symptom_severity_bounds(self):
        Symptom("x", 0.0)
        Symptom("x", 1.0)
        with pytest.raises(ValueError):
            Symptom("x", 1.5)

    def test_report_symptom_lookup(self):
        r = AnalysisReport(0.0, "a", symptoms=(Symptom("slow", 0.8),))
        assert r.has_symptom("slow")
        assert r.symptom("slow").severity == 0.8
        assert r.symptom("missing") is None
        assert not r.has_symptom("missing")

    def test_report_confidence_bounds(self):
        with pytest.raises(ValueError):
            AnalysisReport(0.0, "a", confidence=2.0)

    def test_action_param_default(self):
        a = Action("adjust", "n1", params={"delta": 2.0})
        assert a.param("delta") == 2.0
        assert a.param("missing", 7.0) == 7.0

    def test_plan_without(self):
        a1 = Action("k1", "t1")
        a2 = Action("k2", "t2")
        p = Plan(0.0, "src", actions=(a1, a2))
        filtered = p.without([a1])
        assert filtered.actions == (a2,)
        assert not p.empty and not filtered.empty
        assert p.without([a1, a2]).empty
        # nothing dropped: the plan itself, not a copy
        assert p.without([]) is p

    def test_iteration_latency(self):
        it = LoopIteration(index=0, t_monitor=10.0)
        assert it.latency is None
        it.t_complete = 12.5
        assert it.latency == 2.5
        assert not it.acted
        it.results.append(
            ExecutionResult(Action("k", "t"), 12.5, honored=True)
        )
        assert it.acted


class TestKnowledgeBase:
    def test_facts_roundtrip(self):
        k = KnowledgeBase()
        k.remember("walltime", 3600.0)
        assert k.recall("walltime") == 3600.0
        assert k.recall("missing", "dflt") == "dflt"
        k.forget("walltime")
        assert k.recall("walltime") is None
        assert k.fact_writes == 1
        assert k.fact_reads == 3

    def test_model_registry(self):
        k = KnowledgeBase()
        k.register_model(ModelEntry("ttc", model=object(), kind="forecaster"))
        assert k.model("ttc").kind == "forecaster"
        assert k.models() == ["ttc"]
        assert k.model("none") is None
        assert k.model_writes == 1

    def test_plan_outcomes_and_assessment(self):
        k = KnowledgeBase()
        plan = Plan(0.0, "p", actions=(Action("k", "t"),))
        results = [ExecutionResult(plan.actions[0], 0.0, honored=True)]
        outcome = k.record_plan(plan, results)
        assert k.unassessed_outcomes() == [outcome]
        k.assess_outcome(outcome, 0.8, now=10.0)
        assert outcome.score == 0.8
        assert k.unassessed_outcomes() == []
        assert k.effectiveness() == pytest.approx(0.8)

    def test_assessment_score_bounds(self):
        k = KnowledgeBase()
        outcome = k.record_plan(Plan(0.0, "p"), [])
        with pytest.raises(ValueError):
            k.assess_outcome(outcome, 1.5, now=0.0)

    def test_effectiveness_windows(self):
        k = KnowledgeBase()
        for score in [0.0, 0.0, 1.0, 1.0]:
            o = k.record_plan(Plan(0.0, "p"), [])
            k.assess_outcome(o, score, now=0.0)
        assert k.effectiveness() == pytest.approx(0.5)
        assert k.effectiveness(last_n=2) == pytest.approx(1.0)
        assert KnowledgeBase().effectiveness() is None

    def test_outcome_honored_when_any_result_was(self):
        k = KnowledgeBase()
        a = Action("k", "t")
        mixed = k.record_plan(
            Plan(0.0, "p", actions=(a, a)),
            [ExecutionResult(a, 0.0, honored=False), ExecutionResult(a, 0.0, honored=True)],
        )
        refused = k.record_plan(
            Plan(0.0, "p", actions=(a,)), [ExecutionResult(a, 0.0, honored=False)]
        )
        unexecuted = k.record_plan(Plan(0.0, "p", actions=(a,)), [])
        assert (mixed.honored, refused.honored, unexecuted.honored) == (True, False, False)

    def test_recorded_results_are_a_copy(self):
        k = KnowledgeBase()
        a = Action("k", "t")
        results = [ExecutionResult(a, 0.0, honored=True)]
        outcome = k.record_plan(Plan(0.0, "p", actions=(a,)), results)
        results.clear()
        assert len(outcome.results) == 1 and k.plan_outcomes == [outcome]

    def test_run_history_attached(self):
        k = KnowledgeBase()
        assert len(k.run_history) == 0

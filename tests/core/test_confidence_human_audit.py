"""Tests for confidence measures, human adapters and audit."""

import pytest

from repro.analytics.forecast import ForecastResult
from repro.core.audit import AuditTrail
from repro.core.component import Executor
from repro.core.confidence import (
    combined_confidence,
    interval_confidence,
    success_confidence,
)
from repro.core.humanloop import (
    HumanInTheLoopExecutor,
    HumanOnTheLoopNotifier,
    HumanResponseModel,
)
from repro.core.knowledge import KnowledgeBase
from repro.core.types import Action, ExecutionResult, Plan
from repro.sim import Engine, RngRegistry


def fr(eta=100.0, lo=90.0, hi=110.0):
    return ForecastResult(eta, lo, hi, rate=1.0, n_markers=10)


class TestConfidence:
    def test_interval_confidence_tight_is_high(self):
        tight = interval_confidence(fr(lo=99.0, hi=101.0), horizon_s=1000.0)
        loose = interval_confidence(fr(lo=0.0, hi=2000.0), horizon_s=1000.0)
        assert tight > 0.95
        assert loose < 0.2
        assert 0.0 <= loose <= tight <= 1.0

    def test_interval_confidence_zero_horizon(self):
        assert interval_confidence(fr(), horizon_s=0.0) == 0.0

    def test_success_confidence_cold_start(self):
        assert success_confidence(KnowledgeBase()) == pytest.approx(0.5)

    def test_success_confidence_tracks_history(self):
        k = KnowledgeBase()
        for score in [1.0] * 8:
            o = k.record_plan(Plan(0.0, "p"), [])
            k.assess_outcome(o, score, 0.0)
        high = success_confidence(k)
        k2 = KnowledgeBase()
        for score in [0.0] * 8:
            o = k2.record_plan(Plan(0.0, "p"), [])
            k2.assess_outcome(o, score, 0.0)
        low = success_confidence(k2)
        assert high > 0.8 and low < 0.2

    def test_combined_confidence_blend(self):
        k = KnowledgeBase()
        c = combined_confidence(fr(lo=99, hi=101), k, horizon_s=1000.0)
        assert 0.5 < c <= 1.0
        c_none = combined_confidence(None, k, horizon_s=1000.0)
        assert c_none == pytest.approx(0.4 * 0.5)

    def test_combined_weight_validation(self):
        with pytest.raises(ValueError):
            combined_confidence(fr(), KnowledgeBase(), 100.0, forecast_weight=1.5)


class _CountingExecutor(Executor):
    name = "counting"

    def __init__(self):
        self.count = 0

    def execute(self, plan, knowledge):
        self.count += len(plan.actions)
        return [ExecutionResult(a, 0.0, honored=True) for a in plan.actions]


class TestHumanInTheLoop:
    def _plan(self):
        return Plan(0.0, "p", actions=(Action("extend", "j1"),))

    def test_available_operator_executes_after_latency(self):
        eng = Engine()
        inner = _CountingExecutor()
        model = HumanResponseModel(median_latency_s=100.0, latency_sigma=0.0, availability=1.0, approve_prob=1.0)
        rng = RngRegistry(seed=1).stream("h")
        human = HumanInTheLoopExecutor(eng, inner, model, rng)
        results = human.execute(self._plan(), KnowledgeBase())
        assert all(not r.honored for r in results)  # queued, not yet done
        eng.run(until=99.0)
        assert inner.count == 0
        eng.run(until=101.0)
        assert inner.count == 1
        assert human.plans_executed == 1

    def test_unavailable_operator_drops_plan(self):
        eng = Engine()
        inner = _CountingExecutor()
        model = HumanResponseModel(availability=0.0)
        rng = RngRegistry(seed=2).stream("h")
        human = HumanInTheLoopExecutor(eng, inner, model, rng)
        results = human.execute(self._plan(), KnowledgeBase())
        eng.run(until=1e6)
        assert inner.count == 0
        assert human.plans_dropped_unavailable == 1
        assert "unavailable" in results[0].detail

    def test_rejection(self):
        eng = Engine()
        inner = _CountingExecutor()
        model = HumanResponseModel(availability=1.0, approve_prob=0.0)
        rng = RngRegistry(seed=3).stream("h")
        human = HumanInTheLoopExecutor(eng, inner, model, rng)
        human.execute(self._plan(), KnowledgeBase())
        eng.run(until=1e6)
        assert inner.count == 0
        assert human.plans_rejected == 1

    def test_latency_distribution_positive(self):
        model = HumanResponseModel(median_latency_s=600.0, latency_sigma=0.8)
        rng = RngRegistry(seed=4).stream("h")
        samples = [model.sample_latency(rng) for _ in range(200)]
        assert all(s > 0 for s in samples)
        import numpy as np

        assert 300.0 < float(np.median(samples)) < 1200.0

    def test_model_validation(self):
        with pytest.raises(ValueError):
            HumanResponseModel(availability=1.5)
        with pytest.raises(ValueError):
            HumanResponseModel(median_latency_s=-1.0)


class TestHumanOnTheLoop:
    def test_notifications_audited(self):
        audit = AuditTrail()
        notifier = HumanOnTheLoopNotifier(audit)
        notifier.notify(10.0, "loop-a", "extended j1 by 600s", confidence=0.9)
        assert notifier.notifications == 1
        assert notifier.unacknowledged == 1
        assert audit.by_phase("notify")[0].data["confidence"] == 0.9
        assert notifier.acknowledge_all() == 1
        assert notifier.unacknowledged == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            HumanOnTheLoopNotifier(AuditTrail(), digest_period_s=0.0)


class TestAuditTrail:
    def test_capacity_eviction(self):
        audit = AuditTrail(capacity=3)
        for i in range(5):
            audit.record(float(i), "l", "plan", f"m{i}")
        assert len(audit) == 3
        assert audit.dropped == 2
        assert audit.events[0].message == "m2"

    def test_views_after_filling_far_past_capacity(self):
        """Eviction keeps ``dropped`` exact and every view a plain list of
        the surviving events, oldest first."""
        audit = AuditTrail(capacity=4)
        for i in range(1000):
            audit.record(float(i), "even" if i % 2 == 0 else "odd", "plan", f"m{i}")
        assert len(audit) == 4
        assert audit.dropped == 996
        assert audit.stats() == {"events": 4.0, "dropped": 996.0}
        assert [e.message for e in audit.events] == ["m996", "m997", "m998", "m999"]
        assert [e.message for e in audit.tail(2)] == ["m998", "m999"]
        assert [e.message for e in audit.tail(10)] == ["m996", "m997", "m998", "m999"]
        assert isinstance(audit.tail(2), list)
        assert [e.message for e in audit.by_loop("odd")] == ["m997", "m999"]
        assert [e.message for e in audit.since(998.0)] == ["m998", "m999"]
        assert audit.by_phase("execute") == []

    def test_filters(self):
        audit = AuditTrail()
        audit.record(1.0, "a", "plan", "x")
        audit.record(2.0, "b", "execute", "y")
        audit.record(3.0, "a", "execute", "z")
        assert len(audit.by_loop("a")) == 2
        assert len(audit.by_phase("execute")) == 2
        assert len(audit.since(2.0)) == 2
        assert [e.message for e in audit.tail(1)] == ["z"]

    def test_render(self):
        audit = AuditTrail()
        e = audit.record(1.5, "loop", "plan", "did a thing")
        assert "loop/plan" in e.render()

    def test_validation(self):
        with pytest.raises(ValueError):
            AuditTrail(capacity=0)

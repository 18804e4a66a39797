"""Cross-loop plan arbitration: conflicts, priority, TTL, audit."""


import pytest

from repro.core.arbiter import KIND_DOMAINS, ArbiterGuard, PlanArbiter, default_resource_keys
from repro.core.audit import AuditTrail
from repro.core.component import Analyzer, Executor, Monitor, Planner
from repro.core.guards import ConfidenceGuard
from repro.core.knowledge import KnowledgeBase
from repro.core.runtime import LoopRuntime, LoopSpec
from repro.core.types import Action, AnalysisReport, ExecutionResult, Observation, Plan
from repro.sim import Engine
from repro.obs.trace import TRACER
from repro.telemetry.tsdb import TimeSeriesStore


def plan_of(*actions, confidence=1.0):
    return Plan(0.0, "test", tuple(actions), confidence)


class TestDefaultResourceKeys:
    def test_job_domain(self):
        keys = default_resource_keys(Action("signal_checkpoint", "j1"))
        assert keys == (("job", "j1"),)
        assert default_resource_keys(Action("request_extension", "j1")) == (("job", "j1"),)

    def test_advisory_kinds_claim_nothing(self):
        assert default_resource_keys(Action("notify_user", "j1")) == ()

    def test_unknown_kind_falls_back_to_target(self):
        assert default_resource_keys(Action("weird", "x")) == (("target", "x"),)

    @pytest.mark.parametrize("kind, domain", sorted(KIND_DOMAINS.items()))
    def test_builtin_kind_claims_its_domain(self, kind, domain):
        assert default_resource_keys(Action(kind, "x")) == ((domain, "x"),)

    def test_supervision_actions_contend_on_the_loop(self):
        arb = PlanArbiter()
        arb.resolve("sup", 5, plan_of(Action("restart_loop", "qos")), 0.0, ttl_s=60.0)
        quarantine = plan_of(Action("quarantine_loop", "qos"))
        _, vetoed = arb.resolve("ops", 5, quarantine, 1.0, ttl_s=60.0)
        assert [a.kind for a in vetoed] == ["quarantine_loop"]


class TestPlanArbiter:
    def test_conflict_detected_and_lower_priority_vetoed(self):
        audit = AuditTrail()
        arb = PlanArbiter(audit=audit)
        high = plan_of(Action("signal_checkpoint", "j1"))
        low = plan_of(Action("request_extension", "j1"))
        kept, vetoed = arb.resolve("maint", 10, high, 100.0, ttl_s=120.0)
        assert not vetoed and len(kept.actions) == 1
        kept, vetoed = arb.resolve("sched", 0, low, 100.0, ttl_s=120.0)
        assert len(vetoed) == 1 and kept.empty
        assert arb.vetoes_total == 1
        assert arb.vetoes_by_loop == {"sched": 1}
        events = audit.by_phase("arbitrate")
        assert len(events) == 1
        assert events[0].loop == "sched"
        assert events[0].data["winner"] == "maint"

    def test_equal_priority_first_claim_wins(self):
        arb = PlanArbiter()
        arb.resolve("a", 5, plan_of(Action("signal_checkpoint", "j1")), 0.0, ttl_s=60.0)
        _, vetoed = arb.resolve("b", 5, plan_of(Action("signal_checkpoint", "j1")), 0.0, ttl_s=60.0)
        assert len(vetoed) == 1

    def test_higher_priority_preempts(self):
        audit = AuditTrail()
        arb = PlanArbiter(audit=audit)
        arb.resolve("low", 0, plan_of(Action("signal_checkpoint", "j1")), 0.0, ttl_s=600.0)
        kept, vetoed = arb.resolve(
            "high", 10, plan_of(Action("fix_threads", "j1")), 10.0, ttl_s=600.0
        )
        assert not vetoed and len(kept.actions) == 1
        assert arb.preemptions_total == 1
        assert any("preempted" in e.message for e in audit.by_phase("arbitrate"))

    def test_claim_expires_after_ttl(self):
        arb = PlanArbiter()
        arb.resolve("a", 5, plan_of(Action("signal_checkpoint", "j1")), 0.0, ttl_s=60.0)
        _, vetoed = arb.resolve("b", 0, plan_of(Action("signal_checkpoint", "j1")), 61.0, ttl_s=60.0)
        assert not vetoed  # claim expired

    def test_same_loop_never_self_conflicts(self):
        arb = PlanArbiter()
        for t in (0.0, 10.0, 20.0):
            _, vetoed = arb.resolve(
                "a", 0, plan_of(Action("set_qos_rate", "bg1")), t, ttl_s=600.0
            )
            assert not vetoed

    def test_advisory_actions_pass_through(self):
        arb = PlanArbiter()
        arb.resolve("a", 10, plan_of(Action("signal_checkpoint", "j1")), 0.0, ttl_s=600.0)
        _, vetoed = arb.resolve("b", 0, plan_of(Action("notify_user", "j1")), 0.0, ttl_s=600.0)
        assert not vetoed

    def test_different_targets_no_conflict(self):
        arb = PlanArbiter()
        arb.resolve("a", 5, plan_of(Action("signal_checkpoint", "j1")), 0.0, ttl_s=600.0)
        _, vetoed = arb.resolve("b", 0, plan_of(Action("signal_checkpoint", "j2")), 0.0, ttl_s=600.0)
        assert not vetoed

    def test_empty_plan_comes_back_as_it_is(self):
        arb = PlanArbiter()
        arb.resolve("a", 5, plan_of(Action("signal_checkpoint", "j1")), 0.0, ttl_s=600.0)
        stats, claims = arb.stats(), arb.active_claims(1.0)
        empty = plan_of()
        kept, vetoed = arb.resolve("b", 0, empty, 1.0, ttl_s=600.0)
        assert kept is empty and vetoed == []
        assert arb.stats() == stats and arb.active_claims(1.0) == claims

    def test_a_granted_plan_is_not_copied_and_a_veto_copies(self):
        arb = PlanArbiter()
        granted = plan_of(Action("signal_checkpoint", "j1"), Action("signal_checkpoint", "j2"))
        kept, vetoed = arb.resolve("a", 5, granted, 0.0, ttl_s=600.0)
        assert kept is granted and vetoed == []
        lost, won = Action("signal_checkpoint", "j1"), Action("signal_checkpoint", "j3")
        contested = plan_of(lost, won)
        kept, vetoed = arb.resolve("b", 0, contested, 0.0, ttl_s=600.0)
        assert vetoed == [lost]
        assert kept is not contested and kept.actions == (won,)
        assert contested.actions == (lost, won)

    def test_veto_and_preempt_audit_records_are_pinned(self):
        """Operators read these records: text and payload, in key order."""
        audit = AuditTrail()
        arb = PlanArbiter(audit=audit)
        arb.resolve("maint", 10, plan_of(Action("signal_checkpoint", "j1")), 0.0, ttl_s=60.0)
        arb.resolve("sched", 10, plan_of(Action("request_extension", "j1")), 1.0, ttl_s=60.0)
        arb.resolve("qos", 20, plan_of(Action("fix_threads", "j1")), 2.0, ttl_s=60.0)
        veto, preempt = audit.by_phase("arbitrate")
        assert (veto.time, veto.loop, veto.message) == (
            1.0, "sched",
            "veto request_extension(j1): job/j1 claimed by maint (prio 10 >= 10)",
        )
        assert list(veto.data.items()) == [
            ("policy", "priority-veto"),
            ("outcome", "veto"),
            ("loser_priority", 10),
            ("winner", "maint"),
            ("winner_priority", 10),
            ("resource", "job/j1"),
        ]
        assert (preempt.time, preempt.loop, preempt.message) == (
            2.0, "qos", "preempted job/j1 from maint (prio 20 > 10)",
        )
        assert list(preempt.data.items()) == [
            ("policy", "priority-veto"),
            ("outcome", "preempt"),
            ("preempted", "maint"),
            ("resource", "job/j1"),
        ]
        stats = arb.stats()
        assert (stats["conflicts_total"], stats["vetoes_total"], stats["preemptions_total"]) == (
            2.0, 1.0, 1.0,
        )

    def test_release_drops_loop_claims(self):
        arb = PlanArbiter()
        arb.resolve("a", 5, plan_of(Action("signal_checkpoint", "j1")), 0.0, ttl_s=600.0)
        assert arb.release("a") == 1
        _, vetoed = arb.resolve("b", 0, plan_of(Action("signal_checkpoint", "j1")), 1.0, ttl_s=600.0)
        assert not vetoed


def act(kind="signal_checkpoint", target="j1", **params):
    return plan_of(Action(kind, target, params=params))


class TestPriorityVetoRule:
    """The one rule: an equal or higher live claim vetoes, a strictly
    higher priority preempts; nothing is merged or deferred."""

    def test_duplicate_of_a_claimed_action_is_vetoed(self):
        audit = AuditTrail()
        arb = PlanArbiter(audit=audit)
        arb.resolve("a", 5, act(rate=2.0), 0.0, ttl_s=60.0)
        kept, vetoed = arb.resolve("b", 0, act(rate=2.0), 1.0, ttl_s=60.0)
        assert kept.empty and len(vetoed) == 1
        assert arb.vetoes_by_loop == {"b": 1}
        (event,) = audit.by_phase("arbitrate")
        assert (event.data["policy"], event.data["outcome"]) == ("priority-veto", "veto")

    def test_higher_priority_duplicate_preempts_and_takes_the_claim(self):
        arb = PlanArbiter()
        arb.resolve("lo", 0, act(rate=2.0), 0.0, ttl_s=60.0)
        kept, vetoed = arb.resolve("hi", 10, act(rate=2.0), 1.0, ttl_s=60.0)
        assert len(kept.actions) == 1 and not vetoed
        assert arb.preemptions_total == 1
        claim = arb.active_claims(1.0)[("job", "j1")]
        assert (claim.loop, claim.priority, claim.expires) == ("hi", 10, 61.0)

    def test_preempted_loop_is_then_vetoed_by_the_new_holder(self):
        arb = PlanArbiter()
        arb.resolve("lo", 0, act(), 0.0, ttl_s=60.0)
        arb.resolve("hi", 10, act(), 1.0, ttl_s=60.0)
        kept, vetoed = arb.resolve("lo", 0, act(), 2.0, ttl_s=60.0)
        assert kept.empty and len(vetoed) == 1
        assert arb.stats() == {
            "conflicts_total": 2.0, "vetoes_total": 1.0, "preemptions_total": 1.0,
        }

    def test_a_blocked_contender_is_vetoed_not_deferred(self):
        arb = PlanArbiter()
        arb.resolve("a", 5, act(), 0.0, ttl_s=60.0)
        arb.resolve("b", 0, act(), 10.0, ttl_s=60.0)
        # no reservation: once the claim lapses, whoever asks first wins
        kept_c, vetoed_c = arb.resolve("c", 0, act(), 70.0, ttl_s=60.0)
        assert len(kept_c.actions) == 1 and not vetoed_c
        _, vetoed_b = arb.resolve("b", 0, act(), 80.0, ttl_s=60.0)
        assert len(vetoed_b) == 1
        assert arb.active_claims(80.0)[("job", "j1")].loop == "c"
        assert set(arb.stats()) == {"conflicts_total", "vetoes_total", "preemptions_total"}

    def test_a_claim_lapses_exactly_at_its_ttl(self):
        arb = PlanArbiter()
        arb.resolve("a", 5, act(), 0.0, ttl_s=60.0)
        _, vetoed = arb.resolve("b", 0, act(), 59.999, ttl_s=60.0)
        assert len(vetoed) == 1
        assert arb.active_claims(60.0) == {}
        _, vetoed = arb.resolve("b", 0, act(), 60.0, ttl_s=60.0)
        assert not vetoed

    def test_a_loop_renews_its_own_claim(self):
        arb = PlanArbiter()
        arb.resolve("a", 5, act(), 0.0, ttl_s=60.0)
        arb.resolve("a", 5, act(), 50.0, ttl_s=60.0)
        assert arb.active_claims(100.0)[("job", "j1")].expires == 110.0
        _, vetoed = arb.resolve("b", 0, act(), 100.0, ttl_s=60.0)
        assert len(vetoed) == 1

    def test_vetoes_are_counted_per_losing_loop(self):
        arb = PlanArbiter()
        arb.resolve("a", 5, act(), 0.0, ttl_s=600.0)
        for t in (1.0, 2.0):
            arb.resolve("b", 0, act(), t, ttl_s=600.0)
        arb.resolve("c", 5, act(), 3.0, ttl_s=600.0)
        assert arb.vetoes_by_loop == {"b": 2, "c": 1}
        assert arb.vetoes_total == 3 and arb.conflicts_total == 3

    def test_releasing_a_loop_without_claims_keeps_the_others(self):
        arb = PlanArbiter()
        arb.resolve("a", 5, act(target="j1"), 0.0, ttl_s=600.0)
        arb.resolve("a", 5, act(target="j2"), 0.0, ttl_s=600.0)
        assert arb.release("ghost") == 0
        assert sorted(arb.active_claims(1.0)) == [("job", "j1"), ("job", "j2")]
        assert arb.release("a") == 2
        assert arb.active_claims(1.0) == {}

    def test_an_action_blocked_on_one_key_claims_none(self):
        arb = PlanArbiter()
        both = lambda a: (("job", a.target), ("writer", a.target))  # noqa: E731
        arb.resolve("a", 5, plan_of(Action("avoid_osts", "j1")), 0.0, ttl_s=60.0)
        kept, vetoed = arb.resolve(
            "b", 0, plan_of(Action("fix_io", "j1")), 1.0, ttl_s=60.0, resource_keys=both,
        )
        assert kept.empty and len(vetoed) == 1
        assert list(arb.active_claims(1.0)) == [("writer", "j1")]

    def test_an_action_granted_on_every_key_claims_them_all(self):
        arb = PlanArbiter()
        both = lambda a: (("job", a.target), ("writer", a.target))  # noqa: E731
        arb.resolve("b", 0, plan_of(Action("fix_io", "j1")), 0.0, ttl_s=60.0, resource_keys=both)
        claims = arb.active_claims(1.0)
        assert sorted(claims) == [("job", "j1"), ("writer", "j1")]
        assert {c.kind for c in claims.values()} == {"fix_io"}

    def test_lapsed_claims_are_swept_once_the_table_is_large(self):
        arb = PlanArbiter()
        for i in range(5000):
            arb.resolve("a", 5, act(target=f"j{i}"), float(i), ttl_s=1.0)
        # every resolve past 4,096 entries purges the lapsed claims first
        assert len(arb._claims) <= 4097
        assert len(arb.active_claims(4999.5)) == 1

    def test_a_traced_resolve_decides_like_an_untraced_one(self):
        outcomes = []
        for traced in (False, True):
            arb = PlanArbiter()
            if traced:
                TRACER.enable()
            try:
                arb.resolve("a", 5, act(), 0.0, ttl_s=60.0)
                kept, vetoed = arb.resolve("b", 0, act(), 1.0, ttl_s=60.0)
            finally:
                TRACER.disable()
                TRACER.reset()
            outcomes.append((kept.actions, vetoed, arb.stats()))
        assert outcomes[0] == outcomes[1]


class TestArbiterGuard:
    def test_guard_resolves_as_its_loop_and_priority(self):
        arb = PlanArbiter()
        hi = ArbiterGuard(arb, "maint", 10, ttl_s=30.0)
        lo = ArbiterGuard(arb, "sched", 0, ttl_s=30.0)
        k = KnowledgeBase()
        kept, vetoed = hi.filter(act(), k, 0.0)
        assert len(kept.actions) == 1 and not vetoed
        claim = arb.active_claims(0.0)[("job", "j1")]
        assert (claim.loop, claim.priority, claim.expires) == ("maint", 10, 30.0)
        kept, vetoed = lo.filter(act("request_extension"), k, 1.0)
        assert kept.empty and len(vetoed) == 1
        assert arb.vetoes_by_loop == {"sched": 1}

    def test_guard_uses_its_resource_keys(self):
        arb = PlanArbiter()
        shared = ArbiterGuard(arb, "a", 0, ttl_s=30.0, resource_keys=lambda a: (("site", "all"),))
        other = ArbiterGuard(arb, "b", 0, ttl_s=30.0, resource_keys=lambda a: (("site", "all"),))
        k = KnowledgeBase()
        shared.filter(act(target="j1"), k, 0.0)
        _, vetoed = other.filter(act(target="j2"), k, 1.0)
        assert len(vetoed) == 1
        assert ArbiterGuard(arb, "c", 0, ttl_s=30.0).resource_keys is default_resource_keys


# --------------------------------------------------------------------------
# Runtime-hosted conflict resolution end to end


class StubMonitor(Monitor):
    name = "stub-monitor"

    def observe(self, now):
        return Observation(now, self.name, values={"x": 1.0})


class StubAnalyzer(Analyzer):
    name = "stub-analyzer"

    def analyze(self, observation, knowledge):
        return AnalysisReport(observation.time, self.name)


class ActionPlanner(Planner):
    name = "action-planner"

    def __init__(self, kind, target, confidence=1.0):
        self.kind, self.target, self.confidence = kind, target, confidence

    def plan(self, report, knowledge):
        return Plan(
            report.time,
            self.name,
            (Action(self.kind, self.target),),
            self.confidence,
            "planned",
        )


class RecordingExecutor(Executor):
    name = "recording-executor"

    def __init__(self):
        self.executed = []

    def execute(self, plan, knowledge):
        now = plan.time
        out = []
        for action in plan.actions:
            self.executed.append((action.kind, action.target))
            out.append(ExecutionResult(action, now, honored=True))
        return out


def conflict_spec(name, priority, kind, target, executor, confidence=1.0, min_confidence=0.0):
    guards = (lambda: ConfidenceGuard(min_confidence),) if min_confidence > 0 else ()
    return LoopSpec(
        name=name,
        priority=priority,
        monitor_factory=lambda rt: StubMonitor(),
        analyzer_factory=StubAnalyzer,
        planner_factory=lambda: ActionPlanner(kind, target, confidence),
        executor_factory=lambda: executor,
        guard_factories=guards,
        period_s=60.0,
    )


class TestRuntimeArbitration:
    def test_priority_wins_on_shared_tick(self):
        engine = Engine()
        audit = AuditTrail()
        runtime = LoopRuntime(engine, TimeSeriesStore(), audit=audit)
        ex_hi, ex_lo = RecordingExecutor(), RecordingExecutor()
        runtime.add(conflict_spec("hi", 10, "signal_checkpoint", "j1", ex_hi), start=True)
        runtime.add(conflict_spec("lo", 0, "request_extension", "j1", ex_lo), start=True)
        engine.run(until=200.0)
        # same tick, same job: high-priority loop acts, low is vetoed
        assert ex_hi.executed and not ex_lo.executed
        lo_loop = runtime.handle("lo").loop
        assert lo_loop.actions_vetoed >= 1
        assert lo_loop.iterations[-1].vetoed
        assert audit.by_phase("arbitrate")

    def test_priority_ordering_on_shared_tick(self):
        """Higher-priority loop runs first even if registered last."""
        engine = Engine()
        runtime = LoopRuntime(engine, TimeSeriesStore())
        order = []

        def tracker(name):
            class T(StubAnalyzer):
                def analyze(self, observation, knowledge, _n=name):
                    order.append(_n)
                    return AnalysisReport(observation.time, self.name)

            return T

        for name, prio in (("low", 0), ("high", 10)):
            runtime.add(
                LoopSpec(
                    name=name,
                    priority=prio,
                    monitor_factory=lambda rt: StubMonitor(),
                    analyzer_factory=tracker(name),
                    planner_factory=lambda: ActionPlanner("noop_kind", "t"),
                    executor_factory=RecordingExecutor,
                    period_s=60.0,
                ),
                start=True,
            )
        engine.run(until=10.0)
        assert order == ["high", "low"]

    def test_guard_veto_still_audited_under_runtime(self):
        engine = Engine()
        audit = AuditTrail()
        runtime = LoopRuntime(engine, TimeSeriesStore(), audit=audit)
        executor = RecordingExecutor()
        runtime.add(
            conflict_spec(
                "gated", 0, "signal_checkpoint", "j1", executor,
                confidence=0.2, min_confidence=0.9,
            ),
            start=True,
        )
        engine.run(until=100.0)
        assert not executor.executed
        loop = runtime.handle("gated").loop
        assert loop.actions_vetoed >= 1
        plan_events = [e for e in audit.events if e.loop == "gated" and e.phase == "plan"]
        assert plan_events and plan_events[0].data["vetoed"] >= 1
        # the guard (not the arbiter) vetoed: no arbitrate events
        assert not audit.by_phase("arbitrate")
        # vetoed actions never claimed the resource
        assert not runtime.arbiter.active_claims(engine.now)

    def test_removed_loop_releases_claims(self):
        engine = Engine()
        runtime = LoopRuntime(engine, TimeSeriesStore())
        ex = RecordingExecutor()
        runtime.add(conflict_spec("a", 5, "signal_checkpoint", "j1", ex), start=True)
        engine.run(until=10.0)
        assert runtime.arbiter.active_claims(engine.now)
        runtime.remove("a")
        assert not runtime.arbiter.active_claims(engine.now)

    def test_every_plan_is_resolved_and_traced_even_when_empty(self):
        """The arbiter guard resolves empty plans too, so the
        ``arbiter.resolve`` span and a per-resolve count see every one."""
        from repro.obs.trace import TRACER

        class EmptyPlanner(Planner):
            name = "empty-planner"

            def plan(self, report, knowledge):
                return Plan(report.time, self.name)

        engine = Engine()
        runtime = LoopRuntime(engine, TimeSeriesStore())
        resolved = []
        inner = runtime.arbiter.resolve
        runtime.arbiter.resolve = lambda *a, **kw: resolved.append(a[2]) or inner(*a, **kw)
        runtime.add(
            LoopSpec(
                name="idle",
                monitor_factory=lambda rt: StubMonitor(),
                analyzer_factory=StubAnalyzer,
                planner_factory=EmptyPlanner,
                executor_factory=RecordingExecutor,
                period_s=60.0,
            ),
            start=True,
        )
        TRACER.reset()
        TRACER.enable()
        try:
            engine.run(until=250.0)
            spans = [s[0] for s in TRACER.spans()].count("arbiter.resolve")
        finally:
            TRACER.disable()
            TRACER.reset()
        loop = runtime.handle("idle").loop
        assert loop.iterations_run == 5
        assert len(resolved) == spans == 5 and all(p.empty for p in resolved)

    def test_veto_counter_published_to_store(self):
        engine = Engine()
        runtime = LoopRuntime(engine, TimeSeriesStore())
        runtime.add(conflict_spec("hi", 10, "signal_checkpoint", "j1", RecordingExecutor()), start=True)
        runtime.add(conflict_spec("lo", 0, "request_extension", "j1", RecordingExecutor()), start=True)
        engine.run(until=200.0)
        vetoes = runtime.query_engine.scalar(
            'last(loop_vetoes_total{loop="lo"})', at=engine.now
        )
        assert vetoes is not None and vetoes >= 1.0

"""Cross-loop plan arbitration.

Many concurrent autonomy loops share actuation targets: the Maintenance
and Scheduler cases both checkpoint jobs, two QoS loops may shape the
same tenant, partition-scoped misconfig loops can overlap.  Left
uncoordinated, loops fight — the instability risk the paper's Fig. 2c
discussion raises for decentralized patterns.

:class:`PlanArbiter` is the control plane's conflict resolver.  Every
non-advisory action a loop plans claims the **resource keys** it
touches (``(domain, target)`` pairs, e.g. ``("job", "j042")``); a claim
is held for a TTL.  One rule decides a contended key, priority-or-veto:
a contender whose priority does not exceed the live claim holder's is
vetoed, and a strictly higher-priority loop preempts the claim.

That rule is the whole arbiter.  Merge (absorb a duplicate of the
claimed action) and queue (defer a blocked contender with right-of-way
once the claim lapses) policies once sat in a pluggable chain in front
of it; the five-case site produced no conflict under either chain and
the same actions, and no experiment produces a conflict, so they went.

Every conflict resolution is written to the
:class:`~repro.core.audit.AuditTrail` with phase ``"arbitrate"`` and
``data["policy"] == "priority-veto"``, so operators can see every
suppressed or preempted actuation and which loop won it.

The arbiter plugs into the normal guard chain via :class:`ArbiterGuard`,
which the :class:`~repro.core.runtime.LoopRuntime` appends after the
loop's own guards — trust controls first, coordination last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.audit import AuditTrail
from repro.core.guards import Guard
from repro.core.knowledge import KnowledgeBase
from repro.core.types import Action, Plan
from repro.obs.trace import TRACER

#: ``(domain, target)`` — the unit of contention between loops.
ResourceKey = Tuple[str, str]

#: Action kinds that never actuate anything and therefore never conflict.
ADVISORY_KINDS = frozenset({"notify_user"})

#: Default domain of each built-in action kind; unknown kinds fall back
#: to the generic ``"target"`` domain so they still collide on equal
#: target strings.  The ``loop`` domain is the fleet itself:
#: supervision actions contend like any other actuation.
KIND_DOMAINS: Dict[str, str] = {
    "request_extension": "job",
    "signal_checkpoint": "job",
    "fix_threads": "job",
    "fix_library": "job",
    "set_qos_rate": "tenant",
    "avoid_osts": "writer",
    "restart_loop": "loop",
    "quarantine_loop": "loop",
    "unquarantine_loop": "loop",
    "retune_loop": "loop",
}


def default_resource_keys(action: Action) -> Tuple[ResourceKey, ...]:
    """Resource keys an action contends on; empty for advisory kinds."""
    if action.kind in ADVISORY_KINDS:
        return ()
    return ((KIND_DOMAINS.get(action.kind, "target"), action.target),)


@dataclass
class Claim:
    """One loop's hold on a resource key."""

    loop: str
    priority: int
    time: float
    expires: float
    kind: str


class PlanArbiter:
    """Priority-or-veto conflict resolution over claimed resource keys."""

    def __init__(self, *, audit: Optional[AuditTrail] = None) -> None:
        self.audit = audit
        self._claims: Dict[ResourceKey, Claim] = {}
        self.conflicts_total = 0
        self.vetoes_total = 0
        self.preemptions_total = 0
        self.vetoes_by_loop: Dict[str, int] = {}

    # ------------------------------------------------------------ resolution
    def resolve(
        self,
        loop: str,
        priority: int,
        plan: Plan,
        now: float,
        *,
        ttl_s: float,
        resource_keys: Callable[[Action], Sequence[ResourceKey]] = default_resource_keys,
    ) -> Tuple[Plan, List[Action]]:
        """Filter ``plan`` against current claims; claim what survives.

        Returns ``(filtered_plan, vetoed_actions)`` — the same contract
        as a guard, which is how the runtime applies it.
        """
        if TRACER.enabled:
            with TRACER.span("arbiter.resolve", loop=loop,
                             actions=len(plan.actions)):
                return self._resolve(loop, priority, plan, now,
                                     ttl_s=ttl_s, resource_keys=resource_keys)
        return self._resolve(loop, priority, plan, now,
                             ttl_s=ttl_s, resource_keys=resource_keys)

    def _resolve(
        self,
        loop: str,
        priority: int,
        plan: Plan,
        now: float,
        *,
        ttl_s: float,
        resource_keys: Callable[[Action], Sequence[ResourceKey]],
    ) -> Tuple[Plan, List[Action]]:
        if not plan.actions:
            return plan, []
        if len(self._claims) > 4096:
            self._sweep(now)
        vetoed: List[Action] = []
        for action in plan.actions:
            keys = tuple(resource_keys(action))
            blocker = self._decide(loop, priority, keys, now)
            if blocker is None:
                self._grant(loop, priority, action, keys, now, ttl_s)
                continue
            key, claim = blocker
            self.conflicts_total += 1
            vetoed.append(action)
            self.vetoes_total += 1
            self.vetoes_by_loop[loop] = self.vetoes_by_loop.get(loop, 0) + 1
            if self.audit is not None:
                self.audit.record(
                    now,
                    loop,
                    "arbitrate",
                    f"veto {action.kind}({action.target}): "
                    f"{key[0]}/{key[1]} claimed by {claim.loop} "
                    f"(prio {claim.priority} >= {priority})",
                    data={
                        "policy": "priority-veto",
                        "outcome": "veto",
                        "loser_priority": priority,
                        "winner": claim.loop,
                        "winner_priority": claim.priority,
                        "resource": f"{key[0]}/{key[1]}",
                    },
                )
        return plan.without(vetoed), vetoed

    def _decide(
        self,
        loop: str,
        priority: int,
        keys: Tuple[ResourceKey, ...],
        now: float,
    ) -> Optional[Tuple[ResourceKey, Claim]]:
        """The first key another loop holds at equal or higher priority.

        ``None`` grants the action; a strictly lower-priority holder is
        preempted by :meth:`_grant`.
        """
        for key in keys:
            claim = self._claims.get(key)
            if claim is not None and claim.expires <= now:
                del self._claims[key]  # lapsed: drop on touch
                continue
            if claim is not None and claim.loop != loop and claim.priority >= priority:
                return key, claim
        return None

    def _grant(
        self,
        loop: str,
        priority: int,
        action: Action,
        keys: Tuple[ResourceKey, ...],
        now: float,
        ttl_s: float,
    ) -> None:
        for key in keys:
            prior = self._claims.get(key)
            if prior is not None and prior.expires > now and prior.loop != loop:
                # strictly higher priority: preempt the live claim
                self.conflicts_total += 1
                self.preemptions_total += 1
                if self.audit is not None:
                    self.audit.record(
                        now,
                        loop,
                        "arbitrate",
                        f"preempted {key[0]}/{key[1]} from {prior.loop} "
                        f"(prio {priority} > {prior.priority})",
                        data={
                            "policy": "priority-veto",
                            "outcome": "preempt",
                            "preempted": prior.loop,
                            "resource": f"{key[0]}/{key[1]}",
                        },
                    )
            self._claims[key] = Claim(loop, priority, now, now + ttl_s, action.kind)

    def _sweep(self, now: float) -> None:
        """Purge lapsed claims so the table tracks live contention only."""
        stale = [k for k, c in self._claims.items() if c.expires <= now]
        for k in stale:
            del self._claims[k]

    # ------------------------------------------------------------- inspection
    def active_claims(self, now: float) -> Dict[ResourceKey, Claim]:
        return {k: c for k, c in self._claims.items() if c.expires > now}

    def release(self, loop: str) -> int:
        """Drop every claim held by ``loop`` (e.g. when it is removed)."""
        mine = [k for k, c in self._claims.items() if c.loop == loop]
        for k in mine:
            del self._claims[k]
        return len(mine)

    def stats(self) -> Dict[str, float]:
        return {
            "conflicts_total": float(self.conflicts_total),
            "vetoes_total": float(self.vetoes_total),
            "preemptions_total": float(self.preemptions_total),
        }


class ArbiterGuard(Guard):
    """Adapter exposing one loop's view of the shared arbiter as a Guard.

    Appended by the runtime as the final guard, so a loop's own trust
    controls run first and cross-loop coordination only sees actions the
    loop is actually allowed to take.
    """

    name = "arbiter"

    def __init__(
        self,
        arbiter: PlanArbiter,
        loop: str,
        priority: int,
        *,
        ttl_s: float,
        resource_keys: Optional[Callable[[Action], Sequence[ResourceKey]]] = None,
    ) -> None:
        self.arbiter = arbiter
        self.loop = loop
        self.priority = priority
        self.ttl_s = ttl_s
        self.resource_keys = resource_keys if resource_keys is not None else default_resource_keys

    def filter(self, plan: Plan, knowledge: KnowledgeBase, now: float):
        return self.arbiter.resolve(
            self.loop,
            self.priority,
            plan,
            now,
            ttl_s=self.ttl_s,
            resource_keys=self.resource_keys,
        )

"""Cross-loop plan arbitration.

Many concurrent autonomy loops share actuation targets: the Maintenance
and Scheduler cases both checkpoint jobs, two QoS loops may shape the
same tenant, partition-scoped misconfig loops can overlap.  Left
uncoordinated, loops fight — the instability risk the paper's Fig. 2c
discussion raises for decentralized patterns.

:class:`PlanArbiter` is the control plane's conflict resolver.  Every
non-advisory action a loop plans claims the **resource keys** it
touches (``(domain, target)`` pairs, e.g. ``("job", "j042")``); a claim
is held for a TTL.  What happens when a second loop plans against a held
key is decided by a chain of pluggable :class:`ArbiterPolicy` objects:

* :class:`PriorityVetoPolicy` — the baseline (and always the implicit
  terminal policy): a contender whose priority does not exceed the claim
  holder's is vetoed; a strictly higher-priority loop preempts.
* :class:`MergePolicy` — a contender planning an action *compatible*
  with the one behind the claim (same kind, same target, params equal
  within a tolerance) is **absorbed**: the duplicate never executes, but
  it is audited as ``merged`` rather than vetoed and does not count
  against the loop's veto totals.  Incompatible plans fall through to
  the next policy (and are ultimately rejected).
* :class:`QueuePolicy` — a blocked contender is queued behind the claim
  with a TTL-bounded deferral: while its queue entry is live, the
  contender holds right-of-way on the key once the claim lapses (other
  loops are deferred behind it, unless strictly higher priority), so a
  deferred plan wins the resource on its next cycle instead of racing.
  Deferrals, like merges, do not count as vetoes.  Entries past their
  deferral deadline are dropped.

Every conflict resolution is written to the
:class:`~repro.core.audit.AuditTrail` with phase ``"arbitrate"`` and
``data["policy"]`` naming the policy that decided it, so operators can
see not just every suppressed actuation but *which rule* suppressed it.

The arbiter plugs into the normal guard chain via :class:`ArbiterGuard`,
which the :class:`~repro.core.runtime.LoopRuntime` appends after the
loop's own guards — trust controls first, coordination last.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

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
    #: the action that established the claim — what merge compatibility
    #: is judged against (``None`` for claims recorded by older callers)
    action: Optional[Action] = None


@dataclass(frozen=True)
class Decision:
    """A policy's ruling on one conflicting action.

    ``outcome`` is ``"veto"`` (suppress, report as vetoed), ``"merge"``
    (absorb a duplicate), or ``"defer"`` (suppress for now with queued
    right-of-way).  Merged and deferred actions are dropped from the
    plan but do **not** count toward the loop's veto totals — a loop
    politely waiting its turn must not read as a veto storm to the
    health supervisor.  ``policy`` names the deciding policy for the
    audit trail; ``data`` is merged into the audit record's payload
    (winner, resource, queue position, …).
    """

    outcome: str
    policy: str
    detail: str = ""
    data: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.outcome not in ("veto", "merge", "defer"):
            raise ValueError(f"unknown decision outcome {self.outcome!r}")


class ArbiterPolicy:
    """One pluggable conflict-resolution rule.

    Policies are chained: the arbiter asks each in turn and the first
    non-``None`` :class:`Decision` wins.  A policy may also rule on
    *free* keys (no live claim) via :meth:`on_free_key` — that is how
    queued right-of-way is enforced — and observe grants/releases to
    keep its own bookkeeping.
    """

    name = "policy"

    def on_conflict(
        self,
        arbiter: "PlanArbiter",
        key: ResourceKey,
        claim: Claim,
        loop: str,
        priority: int,
        action: Action,
        now: float,
    ) -> Optional[Decision]:
        """Rule on ``loop`` contending against a live ``claim``; ``None`` defers."""
        return None

    def on_free_key(
        self,
        arbiter: "PlanArbiter",
        key: ResourceKey,
        loop: str,
        priority: int,
        action: Action,
        now: float,
    ) -> Optional[Decision]:
        """Rule on ``loop`` taking an unclaimed key; ``None`` allows it."""
        return None

    def on_preemptible(
        self,
        arbiter: "PlanArbiter",
        key: ResourceKey,
        claim: Claim,
        loop: str,
        priority: int,
        action: Action,
        now: float,
    ) -> Optional[Decision]:
        """Rule on ``loop`` outranking a live ``claim``; ``None`` preempts."""
        return None

    def on_grant(self, key: ResourceKey, loop: str, now: float) -> None:
        """Observe ``loop`` winning ``key``."""

    def on_release(self, loop: str) -> None:
        """Observe every claim of ``loop`` being dropped."""


class PriorityVetoPolicy(ArbiterPolicy):
    """The baseline rule: priority-or-veto (always decides)."""

    name = "priority-veto"

    def on_conflict(self, arbiter, key, claim, loop, priority, action, now):
        return Decision(
            "veto",
            self.name,
            f"{key[0]}/{key[1]} claimed by {claim.loop} "
            f"(prio {claim.priority} >= {priority})",
            data=(
                ("winner", claim.loop),
                ("winner_priority", claim.priority),
                ("resource", f"{key[0]}/{key[1]}"),
            ),
        )


class MergePolicy(ArbiterPolicy):
    """Absorb contending actions that duplicate the claimed one.

    Two actions are merge-compatible when they share kind and target and
    their numeric params agree within ``tolerance`` (missing params are
    treated as 0, matching :meth:`repro.core.types.Action.param`).  The
    absorbed action is suppressed — its effect is already in flight
    behind the claim — but recorded as ``merged``, not vetoed.
    """

    name = "merge"

    def __init__(self, *, tolerance: float = 1e-9) -> None:
        self.tolerance = tolerance

    def compatible(self, claimed: Optional[Action], action: Action) -> bool:
        if claimed is None:
            return False
        if claimed.kind != action.kind or claimed.target != action.target:
            return False
        for name in set(claimed.params) | set(action.params):
            if abs(claimed.param(name) - action.param(name)) > self.tolerance:
                return False
        return True

    def on_conflict(self, arbiter, key, claim, loop, priority, action, now):
        if not self.compatible(claim.action, action):
            return None  # incompatible plans: rejected by the next policy
        return Decision(
            "merge",
            self.name,
            f"{action.kind}({action.target}) duplicates {claim.loop}'s claim",
            data=(("winner", claim.loop), ("resource", f"{key[0]}/{key[1]}")),
        )

    # a duplicate is a duplicate regardless of rank: a higher-priority
    # loop planning the claimed action must absorb it, not preempt and
    # execute the same effect twice
    on_preemptible = on_conflict


@dataclass
class _QueueEntry:
    loop: str
    priority: int
    enqueued: float
    deadline: float


class QueuePolicy(ArbiterPolicy):
    """Queue blocked contenders behind the claim, with TTL-bounded deferral.

    A blocked contender is enqueued (FIFO per key, one live entry per
    loop) and its action deferred — suppressed this cycle, but not
    counted as a veto.  While its entry is live the contender holds
    right-of-way: once the claim lapses, other loops asking for the key
    are deferred behind the queue head (unless strictly higher
    priority), so the queued loop wins on its next cycle.  Entries
    expire after ``defer_ttl_s`` — a loop that stopped asking does not
    block a key forever.
    """

    name = "queue"

    def __init__(self, *, defer_ttl_s: float = 300.0) -> None:
        if defer_ttl_s <= 0:
            raise ValueError("defer_ttl_s must be positive")
        self.defer_ttl_s = defer_ttl_s
        self._queues: Dict[ResourceKey, Deque[_QueueEntry]] = {}
        #: full-sweep backstop, mirroring the arbiter's claims sweep: a
        #: stream of short-lived contended keys must not grow the table
        self.sweep_threshold = 4096
        self.queued_total = 0
        self.expired_total = 0
        self.granted_total = 0

    # ------------------------------------------------------------- helpers
    def _purge(self, key: ResourceKey, now: float) -> Optional[Deque[_QueueEntry]]:
        """Drop lapsed entries; forget the key entirely once empty.

        Deleting drained queues is what keeps the table bounded by
        *live* contention — a stream of short-lived resource keys must
        not leave one empty deque each behind.
        """
        queue = self._queues.get(key)
        if queue is None:
            return None
        while queue and queue[0].deadline <= now:
            queue.popleft()
            self.expired_total += 1
        if not queue:
            del self._queues[key]
            return None
        return queue

    def _enqueue(self, key: ResourceKey, loop: str, priority: int, now: float) -> None:
        if len(self._queues) > self.sweep_threshold:
            self.sweep(now)
        queue = self._queues.setdefault(key, deque())
        if not any(e.loop == loop for e in queue):
            queue.append(_QueueEntry(loop, priority, now, now + self.defer_ttl_s))
            self.queued_total += 1

    def sweep(self, now: float) -> None:
        """Purge lapsed entries (and drained keys) across every queue."""
        for key in list(self._queues):
            self._purge(key, now)

    def head(self, key: ResourceKey, now: float) -> Optional[_QueueEntry]:
        queue = self._purge(key, now)
        return queue[0] if queue else None

    def depth(self, key: ResourceKey, now: float) -> int:
        queue = self._purge(key, now)
        return len(queue) if queue else 0

    # -------------------------------------------------------------- policy
    def on_conflict(self, arbiter, key, claim, loop, priority, action, now):
        self._purge(key, now)
        self._enqueue(key, loop, priority, now)
        queue = self._queues[key]
        position = next(i for i, e in enumerate(queue) if e.loop == loop)
        return Decision(
            "defer",
            self.name,
            f"queued behind {claim.loop}'s {key[0]}/{key[1]} claim "
            f"(position {position}, deferral expires {now + self.defer_ttl_s:g}s)",
            data=(
                ("winner", claim.loop),
                ("winner_priority", claim.priority),
                ("resource", f"{key[0]}/{key[1]}"),
                ("queue_position", position),
            ),
        )

    def on_free_key(self, arbiter, key, loop, priority, action, now):
        head = self.head(key, now)
        if head is None or head.loop == loop:
            return None  # no reservation, or it is ours: proceed to grant
        if priority > head.priority:
            return None  # strictly higher priority overrides the queue too
        self._enqueue(key, loop, priority, now)
        return Decision(
            "defer",
            self.name,
            f"{key[0]}/{key[1]} reserved by queued {head.loop} "
            f"(prio {head.priority} >= {priority})",
            data=(
                ("winner", head.loop),
                ("winner_priority", head.priority),
                ("resource", f"{key[0]}/{key[1]}"),
            ),
        )

    def on_grant(self, key: ResourceKey, loop: str, now: float) -> None:
        queue = self._queues.get(key)
        if queue and queue[0].loop == loop:
            queue.popleft()
            self.granted_total += 1
            if not queue:
                del self._queues[key]

    def on_release(self, loop: str) -> None:
        for key in list(self._queues):
            queue = self._queues[key]
            live = [e for e in queue if e.loop != loop]
            if len(live) != len(queue):
                queue.clear()
                queue.extend(live)
            if not queue:
                del self._queues[key]


def default_policies() -> Tuple[ArbiterPolicy, ...]:
    """The baseline chain: plain priority-or-veto (PR 3 behavior)."""
    return (PriorityVetoPolicy(),)


def cooperative_policies(
    *, defer_ttl_s: float = 300.0, tolerance: float = 1e-9
) -> Tuple[ArbiterPolicy, ...]:
    """Merge duplicates, queue the rest: the richer production chain."""
    return (
        MergePolicy(tolerance=tolerance),
        QueuePolicy(defer_ttl_s=defer_ttl_s),
        PriorityVetoPolicy(),
    )


class PlanArbiter:
    """Conflict resolution over claimed resource keys via a policy chain."""

    def __init__(
        self,
        *,
        audit: Optional[AuditTrail] = None,
        policies: Optional[Sequence[ArbiterPolicy]] = None,
    ) -> None:
        self.audit = audit
        self.policies: Tuple[ArbiterPolicy, ...] = (
            tuple(policies) if policies is not None else default_policies()
        )
        self._terminal = PriorityVetoPolicy()
        self._claims: Dict[ResourceKey, Claim] = {}
        self.conflicts_total = 0
        self.vetoes_total = 0
        self.preemptions_total = 0
        self.merged_total = 0
        self.deferred_total = 0
        self.vetoes_by_loop: Dict[str, int] = {}
        self.decisions_by_policy: Dict[str, int] = {}

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
        as a guard, which is how the runtime applies it.  Actions a
        policy *merged* are removed from the plan but not reported as
        vetoed: their effect is already in flight behind the claim.
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
        absorbed: List[Action] = []
        for action in plan.actions:
            keys = tuple(resource_keys(action))
            decision = self._decide(loop, priority, action, keys, now)
            if decision is not None:
                self.conflicts_total += 1
                self.decisions_by_policy[decision.policy] = (
                    self.decisions_by_policy.get(decision.policy, 0) + 1
                )
                if decision.outcome == "merge":
                    absorbed.append(action)
                    self.merged_total += 1
                elif decision.outcome == "defer":
                    absorbed.append(action)
                    self.deferred_total += 1
                else:
                    vetoed.append(action)
                    self.vetoes_total += 1
                    self.vetoes_by_loop[loop] = self.vetoes_by_loop.get(loop, 0) + 1
                if self.audit is not None:
                    data = {
                        "policy": decision.policy,
                        "outcome": decision.outcome,
                        "loser_priority": priority,
                    }
                    data.update(dict(decision.data))
                    self.audit.record(
                        now,
                        loop,
                        "arbitrate",
                        f"{decision.outcome} {action.kind}({action.target}): "
                        f"{decision.detail}",
                        data=data,
                    )
                continue
            self._grant(loop, priority, action, keys, now, ttl_s)
        return plan.without(vetoed + absorbed), vetoed

    def _decide(
        self,
        loop: str,
        priority: int,
        action: Action,
        keys: Tuple[ResourceKey, ...],
        now: float,
    ) -> Optional[Decision]:
        """First blocking decision across the action's keys, or ``None``."""
        for key in keys:
            claim = self._claims.get(key)
            if claim is not None and claim.expires <= now:
                del self._claims[key]  # lapsed: drop on touch
                claim = None
            if claim is not None and claim.loop != loop:
                if claim.priority >= priority:
                    for policy in (*self.policies, self._terminal):
                        decision = policy.on_conflict(
                            self, key, claim, loop, priority, action, now
                        )
                        if decision is not None:
                            return decision
                else:
                    # outranked claim: policies may still rule (e.g. merge
                    # absorbs a duplicate); no decision means preemption
                    for policy in self.policies:
                        decision = policy.on_preemptible(
                            self, key, claim, loop, priority, action, now
                        )
                        if decision is not None:
                            return decision
            elif claim is None:
                for policy in self.policies:
                    decision = policy.on_free_key(self, key, loop, priority, action, now)
                    if decision is not None:
                        return decision
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
            self._claims[key] = Claim(loop, priority, now, now + ttl_s, action.kind, action)
            for policy in self.policies:
                policy.on_grant(key, loop, now)

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
        for policy in self.policies:
            policy.on_release(loop)
        return len(mine)

    def stats(self) -> Dict[str, float]:
        out = {
            "conflicts_total": float(self.conflicts_total),
            "vetoes_total": float(self.vetoes_total),
            "preemptions_total": float(self.preemptions_total),
            "merged_total": float(self.merged_total),
            "deferred_total": float(self.deferred_total),
        }
        for policy in self.policies:
            if isinstance(policy, QueuePolicy):
                out["queued_total"] = float(policy.queued_total)
                out["queue_expired_total"] = float(policy.expired_total)
                out["queue_granted_total"] = float(policy.granted_total)
        return out


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

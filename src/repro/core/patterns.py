"""The four MAPE-K design patterns of Fig. 2, as loops on the runtime.

All four patterns regulate the same concrete task so their trade-offs
can be compared quantitatively (experiment E2): ``N`` drifting scalar
elements (think per-node power under a cluster-wide cap) must be held
at a global target, per-element fair share, despite a persistent upward
disturbance.

Every pattern is a set of :class:`~repro.core.runtime.LoopSpec`\\ s for
one :class:`~repro.core.runtime.LoopRuntime`, so E2 measures the loops
everything else runs on.  Each element publishes its state into the
runtime's store as ``x{element}`` whenever it is disturbed, and every
loop reads it back through the runtime's hub.  What the loops of a
pattern exchange are reads of the store and executed actions, and a hop
of the network is a phase latency.  A coordinated loop's gossip is the
``gossip{element}`` series it writes after acting, so a stopped loop
stops gossiping.

=================  =============================================  ==========
Pattern            Structure                                      Fig. 2
=================  =============================================  ==========
classical          one loop per element, reading only itself      (a)
master-worker      one loop reading every element, acting on all  (b)
coordinated        one loop per element, also reading its peers   (c)
hierarchical       one loop per group + a meta-loop rebalancer    (d)
=================  =============================================  ==========

What the paper claims, and what the benchmark measures:

* master-worker "suffers from limited scalability" — its decision
  latency grows with N (central analyze/plan cost) and all traffic hits
  one point;
* coordinated has "potential of good scalability and robustness, but
  decentralized Plan policies may suffer from instability" — constant
  local latency, but the overlapping compensation term (``comp_gain``)
  over its peers' gossip (one loop period old) causes oscillation when
  pushed;
* hierarchical "aim[s] to improve scalability without compromising
  stability" — bounded group size keeps latency constant, and only the
  slow top level moves global targets.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.component import Analyzer, Executor, Planner
from repro.core.knowledge import KnowledgeBase
from repro.core.loop import PhaseLatency
from repro.core.runtime import LoopRuntime, LoopSpec, MonitorQuery, QueryHub
from repro.core.types import Action, AnalysisReport, ExecutionResult, Observation, Plan
from repro.sim.engine import Engine, PeriodicTask
from repro.telemetry.metric import SeriesKey


class DriftingElement:
    """One managed element: scalar state under persistent disturbance."""

    def __init__(
        self,
        engine: Engine,
        element_id: str,
        rng: np.random.Generator,
        *,
        initial: float = 100.0,
        drift_mu: float = 0.3,
        drift_std: float = 1.0,
        disturb_period_s: float = 1.0,
    ) -> None:
        if disturb_period_s <= 0:
            raise ValueError("disturb_period_s must be positive")
        self.engine = engine
        self.element_id = element_id
        self.rng = rng
        self.x = float(initial)
        self.drift_mu = drift_mu
        self.drift_std = drift_std
        self.disturb_period_s = disturb_period_s
        self.actuations = 0
        self._task: Optional[PeriodicTask] = None
        #: where each disturbance publishes ``x`` (see :meth:`publish_to`)
        self._hub: Optional[QueryHub] = None
        self._keys = ()

    def publish_to(self, hub: QueryHub) -> None:
        """From the next disturbance on, stage ``x{element}`` in ``hub``:
        the elements disturbed at one instant are committed as one write,
        which any read through the hub sees."""
        self._hub = hub
        self._keys = (SeriesKey.of("x", element=self.element_id),)

    def start_disturbance(self) -> None:
        if self._task is not None and not self._task.stopped:
            raise RuntimeError("disturbance already running")
        self._task = self.engine.every(
            self.disturb_period_s, self._disturb, label=f"disturb-{self.element_id}"
        )

    def stop_disturbance(self) -> None:
        if self._task is not None:
            self._task.stop()

    def _disturb(self) -> None:
        self.x += float(self.rng.normal(self.drift_mu, self.drift_std))
        if self._hub is not None:
            self._hub.stage(self._keys, (self.x,), at=self.engine.now)

    def read(self) -> float:
        return self.x

    def actuate(self, delta: float) -> None:
        self.x += float(delta)
        self.actuations += 1


def groups(n: int, group_size: int) -> List[List[int]]:
    """Element indices ``0..n-1`` cut into consecutive groups."""
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    return [list(range(start, min(start + group_size, n))) for start in range(0, n, group_size)]


def publish(runtime: LoopRuntime, elements: Sequence[DriftingElement]) -> None:
    """Have every element publish into ``runtime``'s store."""
    for element in elements:
        element.publish_to(runtime.hub)


def ring_neighbors(n: int, i: int, k: int = 1) -> List[int]:
    """Indices of the ``k`` nearest neighbours on each side of ``i`` in a ring.

    With ``k=1`` on ``n=5``: neighbours of 0 are [1, 4].
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= i < n:
        raise ValueError(f"i={i} out of range for n={n}")
    if k < 0:
        raise ValueError("k must be >= 0")
    # small rings wrap onto themselves
    return sorted({(i + d) % n for d in range(-k, k + 1)} - {i})


# --------------------------------------------------------------------------
# the one component set: a value per target, and actions that apply it


class _Analyze(Analyzer):
    """``decide(observation values) -> {target: value}``."""

    name = "pattern-analyzer"

    def __init__(self, decide: Callable[[Mapping[str, float]], Dict[str, float]]) -> None:
        self.decide = decide

    def analyze(self, observation: Observation, knowledge: KnowledgeBase) -> AnalysisReport:
        return AnalysisReport(
            observation.time, self.name, metrics=self.decide(observation.values), confidence=1.0
        )


class _Plan(Planner):
    """One ``kind`` action per analyzed target, carrying its value."""

    name = "pattern-planner"

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def plan(self, report: AnalysisReport, knowledge: KnowledgeBase) -> Plan:
        actions = tuple(
            Action(self.kind, target, params={"value": value})
            for target, value in report.metrics.items()
        )
        return Plan(report.time, self.name, actions=actions)


class _Execute(Executor):
    """Applies each action's value to its target."""

    name = "pattern-executor"

    def __init__(self, apply: Callable[[str, float], None]) -> None:
        self.apply = apply

    def execute(self, plan: Plan, knowledge: KnowledgeBase) -> List[ExecutionResult]:
        results = []
        for action in plan.actions:
            self.apply(action.target, action.param("value"))
            results.append(ExecutionResult(action, plan.time, honored=True))
        return results


def _read_states(name: str):
    """Observation builder: the last value of each element read, from
    its ``x`` and ``gossip`` queries."""

    def build(now: float, inputs) -> Optional[Observation]:
        values = {
            series.label("element"): float(series.values[-1])
            for slot in ("x", "gossip")
            for series in (inputs[slot].series if slot in inputs else ())
            if series.values.size
        }
        return Observation(now, name, values=values) if values else None

    return build


def _corrections(share: Callable[[], float], gain: float, *, comp_gain: float = 0.0,
                 own: Optional[str] = None, deadband: float = 0.0):
    """``gain·(share − x)`` per element read (only ``own``, when given),
    plus ``comp_gain·(share − mean of every value read)``; an element
    within ``deadband`` of its share gets no correction."""

    def decide(values: Mapping[str, float]) -> Dict[str, float]:
        f = share()
        comp = comp_gain * (f - sum(values.values()) / len(values)) if comp_gain else 0.0
        targets = values if own is None else (own,)
        return {
            e: gain * (f - values[e]) + comp
            for e in targets
            if e in values and abs(f - values[e]) > deadband
        }

    return decide


def _one_of(elements: Sequence[DriftingElement]) -> str:
    """The label selector matching exactly ``elements``."""
    return '{element=~"%s"}' % "|".join(e.element_id for e in elements)


def _element_spec(
    name: str,
    elements: Sequence[DriftingElement],
    decide,
    *,
    period_s: float,
    phase_latency: PhaseLatency = PhaseLatency(),
    peers: Sequence[DriftingElement] = (),
    apply: Optional[Callable[[DriftingElement, float], None]] = None,
) -> LoopSpec:
    """A loop reading the published ``x`` of ``elements`` (and the
    ``gossip`` of ``peers``, when given) and actuating the elements it
    decides corrections for, through ``apply`` when given."""
    by_id = {e.element_id: e for e in elements}
    queries = [MonitorQuery("x", f"last(x{_one_of(elements)}) group by (element)")]
    if peers:
        queries.append(
            MonitorQuery("gossip", f"last(gossip{_one_of(peers)}) group by (element)")
        )
    act = apply or DriftingElement.actuate
    return LoopSpec(
        name=name,
        queries=tuple(queries),
        build_observation=_read_states(name),
        analyzer_factory=lambda: _Analyze(decide),
        planner_factory=lambda: _Plan("adjust"),
        executor_factory=lambda: _Execute(lambda e, delta: act(by_id[e], delta)),
        period_s=period_s,
        phase_latency=phase_latency,
    )


def _check(elements: Sequence[DriftingElement]) -> int:
    if not elements:
        raise ValueError("need at least one element")
    return len(elements)


# --------------------------------------------------------------------------
# the four patterns


def classical_specs(
    elements: Sequence[DriftingElement],
    target_total: float,
    *,
    period_s: float = 10.0,
    gain: float = 0.5,
    deadband: float = 0.5,
) -> List[LoopSpec]:
    """Fig. 2a: one self-contained loop per element, regulating it to its
    fair share from its own published state; an element within
    ``deadband`` of its share is left alone."""
    fair = target_total / _check(elements)
    return [
        _element_spec(
            f"classical-{e.element_id}", [e],
            _corrections(lambda: fair, gain, deadband=deadband), period_s=period_s,
        )
        for e in elements
    ]


def master_worker_spec(
    elements: Sequence[DriftingElement],
    target_total: float,
    *,
    period_s: float = 10.0,
    gain: float = 0.5,
    hop_s: float = 0.01,
    cost_per_element_s: float = 0.002,
) -> LoopSpec:
    """Fig. 2b: one central loop reads every element and acts on each.

    Its phase latency is the pattern: a hop to collect, an analysis cost
    per element (the scalability bottleneck) and a hop to act, so actions
    land ``2·hop + c·N`` after the observation.
    """
    n = _check(elements)
    return _element_spec(
        "master", elements, _corrections(lambda: target_total / n, gain),
        period_s=period_s,
        phase_latency=PhaseLatency(
            monitor_s=hop_s, analyze_s=cost_per_element_s * n, execute_s=hop_s
        ),
    )


def coordinated_specs(
    runtime: LoopRuntime,
    elements: Sequence[DriftingElement],
    target_total: float,
    *,
    period_s: float = 10.0,
    gain: float = 0.5,
    comp_gain: float = 0.3,
    neighbors_k: int = 1,
    local_cost_s: float = 0.002,
) -> List[LoopSpec]:
    """Fig. 2c: one loop per element, reading its own published state and
    its ring neighbours' gossip.

    Each loop gossips by writing its element's state, once it has acted,
    as ``gossip{element}`` on ``runtime``'s hub, so its peers read it one
    period later and a stopped loop's peers keep its last gossip.  Each
    regulates its element to the fair share (``gain``) and also
    compensates the *global* error it infers from its neighbourhood's
    mean (``comp_gain``).  Because all elements compensate the same
    perceived error concurrently, large ``comp_gain`` over-corrects in
    aggregate — the pattern's documented instability mode.
    """
    n = _check(elements)
    fair = target_total / n

    def act_and_gossip(element: DriftingElement, delta: float) -> None:
        element.actuate(delta)
        runtime.hub.stage(
            (SeriesKey.of("gossip", element=element.element_id),), (element.x,),
            at=runtime.engine.now,
        )

    return [
        _element_spec(
            f"coordinated-{e.element_id}", [e],
            _corrections(lambda: fair, gain, comp_gain=comp_gain, own=e.element_id),
            period_s=period_s, phase_latency=PhaseLatency(analyze_s=local_cost_s),
            peers=[elements[j] for j in ring_neighbors(n, i, neighbors_k)],
            apply=act_and_gossip,
        )
        for i, e in enumerate(elements)
    ]


def hierarchical_specs(
    runtime: LoopRuntime,
    elements: Sequence[DriftingElement],
    target_total: float,
    *,
    group_size: int = 8,
    period_s: float = 10.0,
    top_period_s: float = 50.0,
    gain: float = 0.5,
    hop_s: float = 0.01,
    cost_per_element_s: float = 0.002,
) -> List[LoopSpec]:
    """Fig. 2d: a master-worker loop per group, under a slow rebalancer.

    Each group loop regulates its :func:`groups` members toward an equal
    cut of its group target; the
    rebalancer, a meta-loop on ``runtime``, re-divides the global target
    over the groups whose loops are running every ``top_period_s``
    (separation of concerns and time scales).  Group latency is bounded
    by the group size, independent of N.
    """
    # here, not at the top: importing the patterns stays free of the supervisor
    from repro.core.supervisor import MetaLoopSpec

    n = _check(elements)
    cut = groups(n, group_size)
    names = [f"hierarchical-g{j}" for j in range(len(cut))]
    sizes = {name: len(members) for name, members in zip(names, cut)}
    targets = {name: target_total * size / n for name, size in sizes.items()}
    latency = PhaseLatency(
        monitor_s=hop_s, analyze_s=cost_per_element_s * group_size, execute_s=hop_s
    )
    specs = [
        _element_spec(
            name, [elements[i] for i in cut[j]],
            _corrections(lambda name=name: targets[name] / sizes[name], gain),
            period_s=period_s, phase_latency=latency,
        )
        for j, name in enumerate(names)
    ]

    def running(now: float, inputs) -> Observation:
        values = {name: float(runtime.handles[name].running) for name in names}
        return Observation(now, "hierarchical-top", values=values)

    def shares(values: Mapping[str, float]) -> Dict[str, float]:
        alive = [name for name, up in values.items() if up]
        total = sum(sizes[name] for name in alive)
        return {name: target_total * sizes[name] / total for name in alive}

    specs.append(MetaLoopSpec(
        name="hierarchical-top",
        build_observation=running,
        analyzer_factory=lambda: _Analyze(shares),
        planner_factory=lambda: _Plan("set_target"),
        executor_factory=lambda: _Execute(targets.__setitem__),
        period_s=top_period_s,
    ))
    return specs

"""Pattern-comparison scenario (experiment E2, Fig. 2).

Runs one of the four patterns on the shared regulation task, hosted on
one :class:`~repro.core.runtime.LoopRuntime`, and reports the quantities
the paper's qualitative claims are about:

* ``rmse`` — control quality (aggregate vs. target) after settling,
* ``osc_std`` — oscillation (std of the settled aggregate),
* ``latency_s`` — observation-to-actuation delay: the sum of the
  pattern's :class:`~repro.core.loop.PhaseLatency`,
* ``messages_total`` / ``msgs_per_elem_s`` — coordination traffic: the
  values the pattern's monitors read plus the actions it executed,
* ``uncontrolled_frac`` — robustness: fraction of elements left
  unregulated after an injected controller failure (the master's loop,
  element 0's loop or group 0's loop is stopped).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.patterns import (
    DriftingElement,
    classical_specs,
    coordinated_specs,
    hierarchical_specs,
    master_worker_spec,
    publish,
)
from repro.core.runtime import LoopRuntime
from repro.sim import Engine, RngRegistry

PATTERNS = ("classical", "master-worker", "coordinated", "hierarchical")


@dataclass
class PatternScenarioConfig:
    """One E2 run.  ``bus_latency_s`` is the hop of the master-worker and
    hierarchical loops: their monitor and execute phase latency.
    ``per_element_cost_s`` is their analyze latency per element read (per
    group member for hierarchical), and the coordinated loops' whole
    analyze latency."""

    seed: int = 0
    pattern: str = "master-worker"
    n_elements: int = 32
    horizon_s: float = 1200.0
    settle_s: float = 400.0
    period_s: float = 5.0
    gain: float = 0.6
    comp_gain: float = 0.3  # coordinated only
    group_size: int = 8  # hierarchical only
    bus_latency_s: float = 0.01
    per_element_cost_s: float = 0.002
    inject_failure_at: Optional[float] = None  # kill a controller component
    drift_mu: float = 0.3
    drift_std: float = 0.5

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"pattern must be one of {PATTERNS}")
        if self.settle_s >= self.horizon_s:
            raise ValueError("settle_s must be below horizon_s")


def run_pattern_scenario(cfg: PatternScenarioConfig) -> Dict[str, float]:
    engine = Engine()
    runtime = LoopRuntime(engine)
    rngs = RngRegistry(seed=cfg.seed)
    elements = []
    for i in range(cfg.n_elements):
        e = DriftingElement(
            engine,
            f"e{i}",
            rngs.fork("element", i),
            initial=100.0,
            drift_mu=cfg.drift_mu,
            drift_std=cfg.drift_std,
        )
        e.start_disturbance()
        elements.append(e)
    publish(runtime, elements)
    target_total = 100.0 * cfg.n_elements

    specs = _build(runtime, elements, target_total, cfg)
    reads = [0]

    def count_reads(iteration) -> None:
        if iteration.observation is not None:
            reads[0] += len(iteration.observation.values)

    for spec in specs:
        spec.on_iteration = count_reads
    runtime.add_many(specs, start=True)
    if cfg.inject_failure_at is not None:
        # specs[0]: the master, element 0's or group 0's loop
        engine.schedule_at(cfg.inject_failure_at, runtime.handle(specs[0].name).stop)

    samples: List[float] = []
    engine.every(
        cfg.period_s, lambda: samples.append(sum(e.read() for e in elements)), start_at=cfg.settle_s
    )
    snapshot: Dict[str, float] = {}
    engine.schedule_at(
        cfg.settle_s, lambda: snapshot.update({e.element_id: e.read() for e in elements})
    )
    engine.run(until=cfg.horizon_s)

    arr = np.asarray(samples)
    rmse = float(np.sqrt(np.mean((arr - target_total) ** 2)))
    bias = float(np.mean(arr) - target_total)  # proportional-control droop
    osc = float(np.std(arr))
    # an element is "uncontrolled" if it kept drifting at (a large fraction
    # of) the raw disturbance rate after the settle point — this is robust
    # to legitimate setpoint reassignment after controller failures
    window = cfg.horizon_s - cfg.settle_s
    drift_threshold = 0.5 * cfg.drift_mu * window
    uncontrolled = sum(
        1
        for e in elements
        if abs(e.read() - snapshot.get(e.element_id, e.read())) > drift_threshold
    )
    latency = specs[0].phase_latency
    messages = reads[0] + runtime.actions_total
    return {
        "pattern": cfg.pattern,
        "n": cfg.n_elements,
        "rmse": rmse,
        "bias": bias,
        "osc_std": osc,
        "latency_s": latency.decision_delay + latency.execute_s,
        "msgs_per_elem_s": messages / (cfg.n_elements * cfg.horizon_s),
        "messages_total": float(messages),
        "uncontrolled_frac": uncontrolled / cfg.n_elements,
        "failure_injected": cfg.inject_failure_at is not None,
    }


def _build(runtime, elements, target_total, cfg: PatternScenarioConfig):
    """The pattern's specs; the first is the one a failure stops."""
    if cfg.pattern == "classical":
        return classical_specs(elements, target_total, period_s=cfg.period_s, gain=cfg.gain)
    if cfg.pattern == "master-worker":
        return [master_worker_spec(
            elements, target_total, period_s=cfg.period_s, gain=cfg.gain,
            hop_s=cfg.bus_latency_s, cost_per_element_s=cfg.per_element_cost_s,
        )]
    if cfg.pattern == "coordinated":
        return coordinated_specs(
            runtime, elements, target_total, period_s=cfg.period_s, gain=cfg.gain,
            comp_gain=cfg.comp_gain, local_cost_s=cfg.per_element_cost_s,
        )
    return hierarchical_specs(
        runtime, elements, target_total, group_size=cfg.group_size, period_s=cfg.period_s,
        top_period_s=cfg.period_s * 5, gain=cfg.gain, hop_s=cfg.bus_latency_s,
        cost_per_element_s=cfg.per_element_cost_s,
    )

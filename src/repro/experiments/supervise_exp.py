"""Fleet-supervision scenarios (experiment E17).

The supervision claim has two halves, and E17 measures both on a
256-instance fleet:

* **Self-healing** — loops are injected with the two production failure
  modes DCDB-style ODA deployments report: *frozen* monitors (the data
  source wedges, so every observation carries an ever-older timestamp —
  ``loop_staleness_s`` grows without bound) and *stuck* loops (the loop
  silently stops iterating — its heartbeat vanishes while the runtime
  still believes it is running).  The health supervisor, whose monitor
  is nothing but ``MetricQuery`` expressions over the fleet's own
  ``loop_*`` self-telemetry, must detect both and restart the patients
  so fleet p95 staleness returns to within 2× of the healthy baseline —
  while the unsupervised control run degrades without bound.

* **Shared serving** — a watch fleet read through the hub with nothing
  configured: the hub decides inline that hundreds of narrow queries
  share one widened shape per tick and serves them from one cached
  execution.  Its Monitor phase must be ≥2× cheaper than the same fleet
  over an uncached engine (the never-shared control), with identical
  analyzer verdicts.

Both scenarios are deterministic; rerunning the healing one yields the
identical supervisor action trace, which is also asserted in tests.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.audit import AuditTrail
from repro.core.component import Executor, Planner
from repro.core.loop import PhaseLatency
from repro.core.runtime import LoopRuntime, LoopSpec, MonitorQuery, RuntimeConfig
from repro.core.supervisor import SupervisorConfig, attach_supervisors
from repro.core.types import Action, AnalysisReport, ExecutionResult, Observation, Plan
from repro.experiments.loops_exp import UtilWatchAnalyzer, _fill_store, watch_fleet_specs
from repro.sim import Engine
from repro.telemetry.tsdb import TimeSeriesStore


class HeartbeatPlanner(Planner):
    """Plans one advisory action per observed cycle.

    Acting every cycle is what makes the fleet's ``loop_staleness_s``
    stream dense — staleness is only defined at actuation time, so a
    watch-only fleet would be invisible to staleness supervision.
    """

    name = "heartbeat-planner"

    def __init__(self, target: str) -> None:
        self.target = target

    def plan(self, report: AnalysisReport, knowledge) -> Plan:
        return Plan(
            report.time,
            self.name,
            (Action("notify_user", self.target, rationale="cycle heartbeat"),),
        )


class AckExecutor(Executor):
    """Accepts every action (the actuator side of an advisory fleet)."""

    name = "ack-executor"

    def execute(self, plan: Plan, knowledge) -> List[ExecutionResult]:
        return [ExecutionResult(a, plan.time, honored=True) for a in plan.actions]


def acting_fleet_specs(
    metric: str,
    node_ids: Sequence[str],
    n_loops: int,
    *,
    period_s: float = 30.0,
    window_s: float = 600.0,
    step_s: float = 60.0,
    decision_delay_s: float = 2.0,
    threshold: float = 0.8,
    name_prefix: str = "act",
) -> List[LoopSpec]:
    """One acting watch-loop spec per node partition.

    Like :func:`~repro.experiments.loops_exp.watch_fleet_specs` but the
    loops actuate (advisory heartbeat per cycle) and carry a nonzero
    Analyze latency, so every cycle publishes a ``loop_staleness_s``
    sample — healthy staleness equals ``decision_delay_s``.  The
    observation builder keeps its state in the monitor's ``_memory``
    slot, which is what makes a frozen monitor repairable by restart.
    """
    import re as _re

    if n_loops <= 0 or not node_ids:
        return []
    partitions = np.array_split(np.asarray(node_ids, dtype=object), n_loops)
    specs: List[LoopSpec] = []
    for i, part in enumerate(partitions):
        if part.size == 0:
            continue
        alternation = "|".join(_re.escape(str(n)) for n in part)
        expr = (
            f'mean({metric}{{node=~"{alternation}"}}[{window_s:g}s] by {step_s:g}s) '
            "group by (node)"
        )
        name = f"{name_prefix}-{i:04d}"

        def build(now: float, inputs, _name=name) -> Optional[Observation]:
            # a frozen monitor (injected fault) reports an ever-older
            # observation time — the data source wedged at frozen_at
            frozen = inputs["_memory"].get("frozen_at")
            result = inputs["util"]
            values = {
                f"util:{series.label('node')}": float(series.values[-1])
                for series in result.series
                if series.values.size
            }
            if not values:
                return None
            return Observation(frozen if frozen is not None else now, _name, values=values)

        specs.append(
            LoopSpec(
                name=name,
                queries=(MonitorQuery("util", expr),),
                build_observation=build,
                analyzer_factory=lambda: UtilWatchAnalyzer(threshold),
                planner_factory=lambda _n=name: HeartbeatPlanner(_n),
                executor_factory=AckExecutor,
                period_s=period_s,
                phase_latency=PhaseLatency(analyze_s=decision_delay_s),
            )
        )
    return specs


def inject_faults(
    runtime: LoopRuntime, *, frozen: Sequence[str] = (), stuck: Sequence[str] = ()
) -> None:
    """Wedge a deterministic set of loops.

    ``frozen`` loops keep iterating but their monitors report the
    injection time forever (staleness grows); ``stuck`` loops silently
    never iterate again while still reporting ``running`` (heartbeat
    vanishes).  Both are cleared by a supervisor restart.
    """
    now = runtime.engine.now
    for name in frozen:
        runtime.handles[name].loop.monitor._memory["frozen_at"] = now
    for name in stuck:
        runtime.handles[name].wedge()


def _staleness_p95(runtime: LoopRuntime, *, at: float, window_s: float) -> float:
    value = runtime.query_engine.scalar(
        f"p95(loop_staleness_s[{window_s:g}s])", at=at
    )
    return float(value) if value is not None else float("nan")


def supervisor_action_trace(audit: AuditTrail) -> List[Tuple[float, str, str, str]]:
    """The audited fleet operations, in execution order."""
    return [
        (e.time, e.loop, str(e.data.get("op", "")), str(e.data.get("loop", "")))
        for e in audit.by_phase("fleet")
    ]


def run_supervision_scenario(
    *,
    seed: int = 0,
    n_loops: int = 256,
    nodes_per_loop: int = 1,
    supervise: bool = True,
    period_s: float = 30.0,
    window_s: float = 600.0,
    decision_delay_s: float = 2.0,
    inject_after_s: float = 300.0,
    recover_s: float = 600.0,
    measure_window_s: float = 240.0,
    frozen_frac: float = 1 / 16,
    stuck_frac: float = 1 / 32,
    supervisor: Optional[SupervisorConfig] = None,
    make_store=None,
    make_query_engine=None,
) -> Dict[str, object]:
    """One fleet run with injected faults; optionally supervised.

    Timeline (simulated seconds): loops start at ``window_s`` (past the
    query warm-up), run healthy for ``inject_after_s``, faults are
    injected, and the run ends ``recover_s`` later.  Fleet staleness
    p95 is measured over ``measure_window_s`` right before injection
    (healthy baseline) and again at the end (recovered or degraded).

    ``make_store(capacity)`` / ``make_query_engine(store, config)``
    substitute the storage and serving tier (the E18 reruns supervise
    the same fleet over the sharded and process-parallel engines); the
    store is closed after the run when it exposes ``close()``.
    """
    n_nodes = n_loops * nodes_per_loop
    node_ids = [f"n{i:04d}" for i in range(n_nodes)]
    t_start = window_s
    t_inject = t_start + inject_after_s
    t_end = t_inject + recover_s
    engine = Engine()
    capacity = int(t_end / 10.0) + 16
    store = (
        make_store(capacity) if make_store is not None
        else TimeSeriesStore(default_capacity=capacity)
    )
    _fill_store(store, node_ids, "node_cpu_util", t_end, 10.0, seed, 0.1)
    audit = AuditTrail()
    query_engine = (
        make_query_engine(store, RuntimeConfig()) if make_query_engine is not None else None
    )
    runtime = LoopRuntime(engine, store, query_engine=query_engine, audit=audit)
    specs = acting_fleet_specs(
        "node_cpu_util",
        node_ids,
        n_loops,
        period_s=period_s,
        window_s=window_s,
        decision_delay_s=decision_delay_s,
    )
    for spec in specs:
        spec.start_at = t_start
    runtime.add_many(specs, start=True)
    cfg = supervisor if supervisor is not None else SupervisorConfig(
        period_s=60.0,
        window_s=window_s,
        heartbeat_factor=3.0,
        heartbeat_step_s=period_s,
        staleness_bound_s=3.0 * period_s,
        restart_cooldown_s=240.0,
    )
    if supervise:
        attach_supervisors(runtime, cfg, kinds=("health",))
    wall_t0 = time.perf_counter()
    engine.run(until=t_inject)
    healthy_p95 = _staleness_p95(runtime, at=t_inject, window_s=measure_window_s)
    names = sorted(h for h in runtime.handles if h.startswith("act-"))
    frozen = names[: int(n_loops * frozen_frac)]
    stuck = names[len(frozen): len(frozen) + int(n_loops * stuck_frac)]
    inject_faults(runtime, frozen=frozen, stuck=stuck)
    engine.run(until=t_end)
    wall_s = time.perf_counter() - wall_t0
    runtime.stop()
    final_p95 = _staleness_p95(runtime, at=t_end, window_s=measure_window_s)
    stuck_recovered = sum(
        1 for name in stuck
        if runtime.handles[name].loop.iterations_run > 0 and runtime.handles[name].restarts > 0
    )
    close = getattr(store, "close", None)
    if close is not None:
        close()
    return {
        "seed": seed,
        "n_loops": float(n_loops),
        "supervised": 1.0 if supervise else 0.0,
        "healthy_p95_s": healthy_p95,
        "final_p95_s": final_p95,
        "frozen": float(len(frozen)),
        "stuck": float(len(stuck)),
        "restarts": float(runtime.restarts_total),
        "stuck_recovered": float(stuck_recovered),
        "iterations": float(runtime.iterations_total),
        "wall_s": wall_s,
        "trace": supervisor_action_trace(audit),
    }


def run_supervision_benchmark(
    *, seed: int = 0, n_loops: int = 256, **kwargs
) -> Dict[str, float]:
    """E17a: supervised vs unsupervised fleet under injected faults."""
    supervised = run_supervision_scenario(
        seed=seed, n_loops=n_loops, supervise=True, **kwargs
    )
    control = run_supervision_scenario(
        seed=seed, n_loops=n_loops, supervise=False, **kwargs
    )
    healthy = float(supervised["healthy_p95_s"])
    return {
        "seed": seed,
        "n_loops": float(n_loops),
        "frozen": supervised["frozen"],
        "stuck": supervised["stuck"],
        "healthy_p95_s": healthy,
        "supervised_p95_s": float(supervised["final_p95_s"]),
        "unsupervised_p95_s": float(control["final_p95_s"]),
        "restores_within_2x": 1.0
        if supervised["final_p95_s"] <= 2.0 * healthy
        else 0.0,
        "control_degrades": 1.0
        if control["final_p95_s"] > 2.0 * healthy
        else 0.0,
        "restarts": supervised["restarts"],
        "stuck_recovered": supervised["stuck_recovered"],
        "actions_audited": float(len(supervised["trace"])),
        "wall_s": float(supervised["wall_s"]) + float(control["wall_s"]),
    }


# ---------------------------------------------------------------------------
# Shared serving without a supervisor (E17b)


def _run_watch_fleet(
    *,
    node_ids: Sequence[str],
    n_loops: int,
    seed: int,
    ticks: int,
    period_s: float,
    window_s: float,
    cached: bool,
) -> Dict[str, float]:
    """One watch fleet read through the hub, over a cached engine or an
    uncached one — where the hub never widens, so every read is direct."""
    horizon_s = window_s + ticks * period_s
    engine = Engine()
    store = TimeSeriesStore(default_capacity=int(horizon_s / 10.0) + 16)
    _fill_store(store, node_ids, "node_cpu_util", horizon_s, 10.0, seed, 0.1)
    runtime = LoopRuntime(engine, store, config=RuntimeConfig(enable_cache=cached))
    specs = watch_fleet_specs(
        "node_cpu_util", node_ids, n_loops, period_s=period_s, window_s=window_s,
        cluster_query=True,
    )
    for spec in specs:
        spec.start_at = window_s
    runtime.add_many(specs, start=True)
    wall_t0 = time.perf_counter()
    engine.run(until=window_s + ticks * period_s - 1.0)
    wall_s = time.perf_counter() - wall_t0
    runtime.stop()
    handles = runtime.handles.values()
    qe = runtime.query_engine
    return {
        "wall_s": wall_s,
        "cycle_ms": sum(h.loop.wall_ms_total for h in handles),
        "flags": float(sum(h.loop.analyzer.flags_total for h in handles)),
        "queries_executed": float(qe.served_raw + qe.served_rollup),
        "fused_served": float(runtime.hub.fused_served),
    }


def run_shared_serving_benchmark(
    *,
    seed: int = 0,
    n_loops: int = 256,
    nodes_per_loop: int = 2,
    ticks: int = 20,
    period_s: float = 60.0,
    window_s: float = 600.0,
) -> Dict[str, float]:
    """E17b: the watch fleet through the hub vs the uncached engine.

    Nothing is configured or supervised: the hub sees at every tick that
    hundreds of narrow queries share one widened shape and serves them
    from one cached execution, from the first tick on.  The control is
    the same fleet over an uncached engine — the never-shared side, every
    read its own scan.  Shared serving must be ≥ 2× cheaper with
    identical analyzer verdicts.
    """
    common = dict(
        node_ids=[f"n{i:04d}" for i in range(n_loops * nodes_per_loop)],
        n_loops=n_loops,
        seed=seed,
        ticks=ticks,
        period_s=period_s,
        window_s=window_s,
    )
    direct = _run_watch_fleet(cached=False, **common)
    shared = _run_watch_fleet(cached=True, **common)
    return {
        "seed": seed,
        "n_loops": float(n_loops),
        "ticks": float(ticks),
        "direct_cycle_ms": direct["cycle_ms"],
        "shared_cycle_ms": shared["cycle_ms"],
        "monitor_speedup": direct["cycle_ms"] / max(shared["cycle_ms"], 1e-9),
        "direct_queries": direct["queries_executed"],
        "shared_queries": shared["queries_executed"],
        "fused_served": shared["fused_served"],
        "flags_direct": direct["flags"],
        "flags_shared": shared["flags"],
        "match": 1.0 if direct["flags"] == shared["flags"] else 0.0,
    }

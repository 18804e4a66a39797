"""Loop-fleet scenarios (experiment E15).

The runtime's scaling claim is that Monitor-phase cost is **sub-linear
in the number of hosted loops** when their reads go through the shared
query hub: a fleet of per-partition loops issuing structurally identical
selections costs one *fused* (widened, cached) query pass per tick
instead of N ad-hoc store scans.  E15 measures exactly that: the same
256-instance watch fleet over per-node utilization telemetry, run once
over an uncached engine (per-loop ad-hoc scans — the seed idiom; the
hub never widens for an uncached engine) and once through the cached,
sharing hub, with identical analyzer verdicts
asserted.  A second measurement bounds the runtime's hosting overhead:
the same loops hand-wired as bare ``MAPEKLoop`` + private uncached
engines (the 5-loop seed wiring) vs. hosted on a ``LoopRuntime``.
"""

from __future__ import annotations

import gc
import re
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.component import Analyzer, Executor, Planner
from repro.core.knowledge import KnowledgeBase
from repro.core.loop import MAPEKLoop
from repro.core.runtime import (
    LoopRuntime,
    LoopSpec,
    MonitorQuery,
    QueryHub,
    QueryMonitor,
    RuntimeConfig,
)
from repro.core.types import AnalysisReport, ExecutionResult, Observation, Plan, Symptom
from repro.query.engine import QueryEngine
from repro.sim import Engine, RngRegistry
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore


# ---------------------------------------------------------------------------
# Minimal watch-loop components (monitor-heavy fleet: analyze flags hot
# nodes, plan stays empty — E15 isolates Monitor-phase cost)


class UtilWatchAnalyzer(Analyzer):
    """Flags nodes whose recent mean utilization exceeds a threshold."""

    name = "util-watch-analyzer"

    def __init__(self, threshold: float) -> None:
        self.threshold = threshold
        self.flags_total = 0

    def analyze(self, observation: Observation, knowledge: KnowledgeBase) -> AnalysisReport:
        symptoms = []
        for key, value in observation.values.items():
            if key.startswith("util:") and value > self.threshold:
                symptoms.append(
                    Symptom(f"hot:{key[5:]}", min(1.0, value), evidence=f"util={value:.2f}")
                )
        self.flags_total += len(symptoms)
        return AnalysisReport(observation.time, self.name, tuple(symptoms))


class SilentPlanner(Planner):
    """Never plans actions (watch-only loops)."""

    name = "silent-planner"

    def plan(self, report: AnalysisReport, knowledge: KnowledgeBase) -> Plan:
        return Plan(report.time, self.name)


class NullExecutor(Executor):
    name = "null-executor"

    def execute(self, plan: Plan, knowledge: KnowledgeBase) -> List[ExecutionResult]:
        return []


def watch_fleet_specs(
    metric: str,
    node_ids: Sequence[str],
    n_loops: int,
    *,
    period_s: float = 60.0,
    window_s: float = 600.0,
    step_s: float = 60.0,
    threshold: float = 0.8,
    cluster_query: bool = False,
    name_prefix: str = "watch",
) -> List[LoopSpec]:
    """One watch-loop spec per contiguous node partition.

    Every spec's monitor is a declarative grouped range query over its
    partition — the fleet shape the fused hub is built for.  With
    ``cluster_query`` each loop additionally reads the fleet-wide mean
    (context for its local verdicts): under per-loop ad-hoc serving that
    identical expression costs one full-store scan *per loop* per tick;
    under the shared hub it is computed once and served from cache.
    """
    if n_loops <= 0 or not node_ids:
        return []
    partitions = np.array_split(np.asarray(node_ids, dtype=object), n_loops)
    queries_extra = (
        (MonitorQuery("cluster", f"mean({metric}[{window_s:g}s])"),) if cluster_query else ()
    )
    specs = []
    for i, part in enumerate(partitions):
        if part.size == 0:
            continue
        alternation = "|".join(re.escape(str(n)) for n in part)
        expr = (
            f'mean({metric}{{node=~"{alternation}"}}[{window_s:g}s] by {step_s:g}s) '
            "group by (node)"
        )

        def build(now: float, inputs, _prefix=f"{name_prefix}-{i}") -> Optional[Observation]:
            result = inputs["util"]
            values = {
                f"util:{series.label('node')}": float(series.values[-1])
                for series in result.series
                if series.values.size
            }
            if not values:
                return None
            cluster = inputs.get("cluster")
            if cluster is not None:
                pooled = cluster.scalar()
                if pooled is not None:
                    values["cluster_mean"] = pooled
            return Observation(now, _prefix, values=values)

        specs.append(
            LoopSpec(
                name=f"{name_prefix}-{i:04d}",
                queries=(MonitorQuery("util", expr),) + queries_extra,
                build_observation=build,
                analyzer_factory=lambda: UtilWatchAnalyzer(threshold),
                planner_factory=SilentPlanner,
                executor_factory=NullExecutor,
                period_s=period_s,
            )
        )
    return specs


# ---------------------------------------------------------------------------
# Scenario


def _fill_store(
    store: TimeSeriesStore,
    node_ids: Sequence[str],
    metric: str,
    horizon_s: float,
    sample_period_s: float,
    seed: int,
    hot_fraction: float,
) -> None:
    """Deterministic per-node utilization series with a hot subset."""
    rngs = RngRegistry(seed=seed)
    grid = np.arange(0.0, horizon_s, sample_period_s)
    for idx, node in enumerate(node_ids):
        rng = rngs.fork("util", idx)
        base = 0.95 if rng.random() < hot_fraction else 0.35
        values = np.clip(base + rng.normal(0.0, 0.05, size=grid.size), 0.0, 1.0)
        store.insert_batch(SeriesKey.of(metric, node=node), grid, values)


def _run_fleet(
    *,
    node_ids: Sequence[str],
    n_loops: int,
    seed: int,
    horizon_s: float,
    ticks: int,
    period_s: float,
    window_s: float,
    sample_period_s: float,
    hot_fraction: float,
    config: RuntimeConfig,
    make_store=None,
    make_query_engine=None,
) -> Dict[str, float]:
    """One fleet run; returns wall time, flag counts, and hub stats.

    ``make_store(capacity)`` / ``make_query_engine(store, config)``
    substitute the storage and serving tier (the E18 reruns host the
    same fleet on the sharded and process-parallel engines); the store
    is closed after the run when it exposes ``close()``.
    """
    engine = Engine()
    capacity = int(horizon_s / sample_period_s) + 16
    store = (
        make_store(capacity) if make_store is not None
        else TimeSeriesStore(default_capacity=capacity)
    )
    _fill_store(store, node_ids, "node_cpu_util", horizon_s, sample_period_s, seed, hot_fraction)
    query_engine = make_query_engine(store, config) if make_query_engine is not None else None
    runtime = LoopRuntime(engine, store, query_engine=query_engine, config=config)
    specs = watch_fleet_specs(
        "node_cpu_util",
        node_ids,
        n_loops,
        period_s=period_s,
        window_s=window_s,
        cluster_query=True,
    )
    # start past the warm-up window so every tick sees a full window
    for spec in specs:
        spec.start_at = window_s
    runtime.add_many(specs, start=True)
    wall_t0 = time.perf_counter()
    engine.run(until=window_s + ticks * period_s - 1.0)
    wall_s = time.perf_counter() - wall_t0
    runtime.stop()
    flags = sum(h.loop.analyzer.flags_total for h in runtime.handles.values())
    cycle_ms = sum(h.loop.wall_ms_total for h in runtime.handles.values())
    qe = runtime.query_engine
    out = {
        "wall_s": wall_s,
        "cycle_ms": cycle_ms,
        "flags": float(flags),
        "iterations": float(runtime.iterations_total),
        # served_raw/rollup count real executions; cache hits don't
        "queries_executed": float(qe.served_raw + qe.served_rollup),
    }
    out.update({k: v for k, v in runtime.hub.stats().items() if not k.startswith("engine_")})
    # self-telemetry round trip: loops are monitorable through the store
    mean_ms = runtime.query_engine.scalar(
        "mean(loop_iteration_ms)", at=engine.now
    )
    out["mean_loop_iteration_ms"] = float(mean_ms) if mean_ms is not None else float("nan")
    close = getattr(store, "close", None)
    if close is not None:
        close()
    return out


def run_loop_fleet_benchmark(
    *,
    seed: int = 0,
    n_loops: int = 256,
    nodes_per_loop: int = 2,
    ticks: int = 10,
    period_s: float = 60.0,
    window_s: float = 600.0,
    sample_period_s: float = 10.0,
    hot_fraction: float = 0.1,
) -> Dict[str, float]:
    """E15: fused monitoring vs per-loop ad-hoc scans at fleet scale."""
    n_nodes = n_loops * nodes_per_loop
    node_ids = [f"n{i:04d}" for i in range(n_nodes)]
    horizon_s = window_s + ticks * period_s
    common = dict(
        node_ids=node_ids,
        n_loops=n_loops,
        seed=seed,
        horizon_s=horizon_s,
        ticks=ticks,
        period_s=period_s,
        window_s=window_s,
        sample_period_s=sample_period_s,
        hot_fraction=hot_fraction,
    )
    adhoc = _run_fleet(config=RuntimeConfig(enable_cache=False), **common)
    fused = _run_fleet(config=RuntimeConfig(), **common)
    return {
        "seed": seed,
        "n_loops": float(n_loops),
        "n_nodes": float(n_nodes),
        "ticks": float(ticks),
        "adhoc_wall_s": adhoc["wall_s"],
        "fused_wall_s": fused["wall_s"],
        "wall_speedup": adhoc["wall_s"] / max(fused["wall_s"], 1e-12),
        # cycle wall: host time spent inside loop cycles (monitor-dominated
        # for watch loops) — the per-loop serving cost the fusion targets
        "adhoc_cycle_ms": adhoc["cycle_ms"],
        "fused_cycle_ms": fused["cycle_ms"],
        "monitor_speedup": adhoc["cycle_ms"] / max(fused["cycle_ms"], 1e-9),
        "adhoc_queries": adhoc["queries_executed"],
        "fused_queries": fused["queries_executed"],
        "fused_served": fused["fused_served"],
        "flags_adhoc": adhoc["flags"],
        "flags_fused": fused["flags"],
        "match": 1.0 if adhoc["flags"] == fused["flags"] else 0.0,
        "iterations": fused["iterations"],
        "mean_loop_iteration_ms": fused["mean_loop_iteration_ms"],
    }


def run_runtime_overhead(
    *,
    seed: int = 0,
    n_loops: int = 5,
    nodes_per_loop: int = 4,
    ticks: int = 200,
    period_s: float = 60.0,
    window_s: float = 600.0,
    sample_period_s: float = 10.0,
) -> Dict[str, float]:
    """Hosting overhead: LoopRuntime vs hand-wired seed-style loops.

    Both sides run the identical watch components over identical data;
    the hand-wired side is the pre-runtime idiom — bare ``MAPEKLoop``
    per case, each monitor querying a private uncached engine.  The two
    sides run alternately three times each, every run on a fresh engine
    and store, and the ratio is of their median walls, so one scheduling
    stall inside one run does not decide it.
    """
    n_nodes = n_loops * nodes_per_loop
    node_ids = [f"n{i:04d}" for i in range(n_nodes)]
    horizon_s = window_s + ticks * period_s

    def fresh_store() -> TimeSeriesStore:
        store = TimeSeriesStore(default_capacity=int(horizon_s / sample_period_s) + 16)
        _fill_store(store, node_ids, "node_cpu_util", horizon_s, sample_period_s, seed, 0.1)
        return store

    def fresh_specs() -> List[LoopSpec]:
        return watch_fleet_specs(
            "node_cpu_util", node_ids, n_loops, period_s=period_s, window_s=window_s
        )

    def timed(engine: Engine) -> float:
        # a full collection due in a process holding many objects (a test
        # session) costs tens of ms — more than a side's whole run — so it
        # must not fall due inside one side and not the other
        gc.collect()
        wall_t0 = time.perf_counter()
        engine.run(until=window_s + ticks * period_s - 1.0)
        return time.perf_counter() - wall_t0

    def legacy() -> Tuple[float, int]:
        """Hand-wired: one loop per case, private uncached engines."""
        engine = Engine()
        store = fresh_store()
        loops: List[MAPEKLoop] = []
        for spec in fresh_specs():
            hub = QueryHub(QueryEngine(store, enable_cache=False))
            loop = MAPEKLoop(
                engine,
                spec.name,
                monitor=QueryMonitor(spec.name, spec.queries, spec.build_observation, hub),
                analyzer=spec.analyzer_factory(),
                planner=spec.planner_factory(),
                executor=spec.executor_factory(),
                period_s=spec.period_s,
            )
            loop.start(start_at=window_s)
            loops.append(loop)
        return timed(engine), sum(lp.iterations_run for lp in loops)

    def hosted() -> Tuple[float, int]:
        engine = Engine()
        runtime = LoopRuntime(engine, fresh_store())
        specs = fresh_specs()
        for spec in specs:
            spec.start_at = window_s
        runtime.add_many(specs, start=True)
        return timed(engine), runtime.iterations_total

    legacy_runs, hosted_runs = [], []
    for _ in range(3):
        legacy_runs.append(legacy())
        hosted_runs.append(hosted())
    legacy_wall_s = float(np.median([wall for wall, _ in legacy_runs]))
    hosted_wall_s = float(np.median([wall for wall, _ in hosted_runs]))
    match = all(a[1] == b[1] for a, b in zip(legacy_runs, hosted_runs))

    return {
        "seed": seed,
        "n_loops": float(n_loops),
        "ticks": float(ticks),
        "legacy_wall_s": legacy_wall_s,
        "hosted_wall_s": hosted_wall_s,
        "overhead_ratio": hosted_wall_s / max(legacy_wall_s, 1e-12),
        "iterations_match": 1.0 if match else 0.0,
    }

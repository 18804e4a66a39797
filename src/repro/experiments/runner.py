"""The experiment table, and the one command that runs it.

:data:`EXPERIMENTS` maps every experiment id of the README's experiment
list to its paper anchor, its title and its named rows.  A row is one
scenario function of this package with its full sizes and its
``--quick`` sizes.  ``repro experiments [ID ...] [--quick] [--json PATH]``
runs the rows of the ids it is given (every id when given none), prints
each row as a table, writes one provenance-stamped JSON of
``{row name: row}`` and fails when an exactness flag a row carries
(:data:`EXACTNESS_FLAGS`) is not 1.0.  Wall-clock and threshold gates
live only in ``benchmarks/``.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.harness import aggregate_rows, replicate
from repro.experiments.interchange_exp import run_interchange_matrix
from repro.experiments.loops_exp import run_loop_fleet_benchmark, run_runtime_overhead
from repro.experiments.maintenance_exp import run_maintenance_scenario
from repro.experiments.misconfig_exp import run_misconfig_scenario
from repro.experiments.model_exp import run_forecaster_comparison, run_model_ablation
from repro.experiments.obs_exp import run_obs_ingest_overhead, run_obs_standing_overhead
from repro.experiments.parallel_exp import (
    run_parallel_fleet_benchmark,
    run_parallel_ingest_benchmark,
    run_parallel_scatter_benchmark,
    run_parallel_supervision_benchmark,
    run_small_pass_tax_benchmark,
)
from repro.experiments.patterns_exp import PatternScenarioConfig, run_pattern_scenario
from repro.experiments.pipeline_exp import run_pipeline_scenario, run_sampling_tradeoff
from repro.experiments.provenance import stamp
from repro.experiments.query_exp import run_query_scan_comparison
from repro.experiments.report import render_table
from repro.experiments.scheduler_case import (
    SchedulerScenarioConfig,
    run_scheduler_scenario,
)
from repro.experiments.serve_exp import run_quota_isolation_benchmark, run_serve_load_benchmark
from repro.experiments.shard_exp import (
    run_federated_query_benchmark,
    run_sharded_ingest_benchmark,
)
from repro.experiments.standing_exp import (
    run_standing_hub_benchmark,
    run_standing_ingest_overhead,
)
from repro.experiments.storage_exp import run_ioqos_scenario, run_ost_scenario
from repro.experiments.supervise_exp import (
    run_shared_serving_benchmark,
    run_supervision_benchmark,
)
from repro.experiments.trust_exp import run_trust_sweep
from repro.experiments.tsdb_exp import run_knowledge_ops, run_tsdb_ingest, run_tsdb_queries

#: Row fields that read 1.0 when a run is exact (or heals as designed);
#: any other value fails ``repro experiments``.
EXACTNESS_FLAGS = (
    "match",
    "bit_identical",
    "standing_match",
    "iterations_match",
    "trace_match",
    "restarts_match",
    "accounting_ok",
    "restores_within_2x",
    "control_degrades",
)


@dataclass(frozen=True)
class Row:
    """One named row: ``run(**full)``, or ``run(**quick)`` under
    ``--quick`` (``None``: the full sizes).  ``run`` returns one dict, or
    a list of dicts printed as one table.  A ``seeds`` size takes the
    command's ``--seeds``."""

    name: str
    title: str
    run: Callable[..., Any]
    full: Mapping[str, Any] = field(default_factory=dict)
    quick: Optional[Mapping[str, Any]] = None
    columns: Optional[Sequence[str]] = None


@dataclass(frozen=True)
class Experiment:
    anchor: str
    title: str
    rows: Tuple[Row, ...] = ()


# ---------------------------------------------------------------- row functions
# (the tables of E1–E13 that are more than one scenario call)

_PATTERNS = ("classical", "master-worker", "coordinated", "hierarchical")


def _e2_scalability() -> List[Dict[str, float]]:
    return [
        run_pattern_scenario(PatternScenarioConfig(
            seed=1, pattern=p, n_elements=n, horizon_s=900.0, settle_s=300.0,
        ))
        for p in _PATTERNS for n in (8, 32, 128)
    ]


def _e2_robustness() -> List[Dict[str, float]]:
    return [
        run_pattern_scenario(PatternScenarioConfig(
            seed=2, pattern=p, n_elements=32, horizon_s=900.0, inject_failure_at=300.0,
        ))
        for p in _PATTERNS[1:]
    ]


def _e2_stability() -> List[Dict[str, float]]:
    rows = []
    for cg in (0.1, 0.5, 1.0, 2.0, 3.0):
        row = run_pattern_scenario(PatternScenarioConfig(
            seed=3, pattern="coordinated", n_elements=16, horizon_s=900.0, comp_gain=cg,
        ))
        rows.append({"comp_gain": cg,
                     **{k: v for k, v in row.items() if k in ("osc_std", "bias")}})
    return rows


def _e3_modes(*, n_jobs: int, horizon_s: float, seeds: Sequence[int]) -> List[Dict[str, float]]:
    return [
        aggregate_rows(replicate(
            lambda seed, mode=mode: run_scheduler_scenario(SchedulerScenarioConfig(
                seed=seed, mode=mode, n_jobs=n_jobs, n_nodes=16, horizon_s=horizon_s,
            )),
            seeds,
        ))
        for mode in ("none", "padding", "human", "autonomous", "oracle")
    ]


def _without_and_with(fn: Callable[..., Dict[str, float]], flag: str):
    """The case scenario without, then with, its loop (or fixes)."""
    return lambda: [fn(seed=0, **{flag: on}) for on in (False, True)]


def _e8_human_latency(*, n_jobs: int, horizon_s: float) -> List[Dict[str, object]]:
    rows = []
    for latency in (0.0, 300.0, 1800.0, 7200.0, 28800.0):
        human = {} if latency == 0.0 else {
            "human_median_latency_s": latency, "human_availability": 0.9,
        }
        row = run_scheduler_scenario(SchedulerScenarioConfig(
            seed=0, mode="human" if human else "autonomous", n_jobs=n_jobs, n_nodes=16,
            horizon_s=horizon_s, **human,
        ))
        rows.append({
            "median_response": f"{latency:.0f}s" if human else "autonomous",
            "completion_rate": row["completion_rate"],
            "wasted_nh": row["wasted_nh"],
            "ext_granted": row["ext_granted"],
        })
    return rows


def _e10_ingest(*, n_series: int) -> List[Dict[str, float]]:
    return [run_tsdb_ingest(seed=0, batch_size=b, n_series=n_series) for b in (1, 64, 512)]


# ---------------------------------------------------------------- the table

_SCHEDULER_FULL = {"n_jobs": 32, "horizon_s": 400_000.0}
_SCHEDULER_QUICK = {"n_jobs": 12, "horizon_s": 200_000.0}

EXPERIMENTS: Dict[str, Experiment] = {
    "E1": Experiment("Fig. 1", "holistic monitoring + ODA pipeline", (
        Row("pipeline", "E1 (Fig. 1) — holistic monitoring + ODA pipeline",
            run_pipeline_scenario,
            {"n_nodes": 64, "horizon_s": 3600.0}, {"n_nodes": 25, "horizon_s": 1800.0}),
        Row("sampling", "E1b — sampling-period design dial (overhead vs reaction)",
            run_sampling_tradeoff, {"n_nodes": 16}, {"n_nodes": 6}),
    )),
    "E2": Experiment("Fig. 2", "MAPE-K pattern scalability/stability/robustness", (
        Row("scalability", "E2 (Fig. 2) — pattern scalability (no failures)", _e2_scalability,
            columns=["pattern", "n", "latency_s", "messages_total", "bias", "osc_std",
                     "uncontrolled_frac"]),
        Row("robustness", "E2 (Fig. 2) — robustness under controller failure at t=300s",
            _e2_robustness, columns=["pattern", "uncontrolled_frac", "bias", "osc_std"]),
        Row("stability", "E2 (Fig. 2c) — coordinated-pattern stability vs comp_gain",
            _e2_stability),
    )),
    "E3": Experiment("Fig. 3 / §III", "Scheduler case vs baselines", (
        Row("modes", "E3 (Fig. 3) — Scheduler case, mean over --seeds", _e3_modes,
            {**_SCHEDULER_FULL, "seeds": (0, 1, 2)}, {**_SCHEDULER_QUICK, "seeds": (0, 1, 2)},
            columns=["mode", "completion_rate", "wasted_nh", "ext_granted", "ext_hours",
                     "overhang_nh", "resubmissions", "mean_wait_s"]),
    )),
    "E4": Experiment("§III case 1", "Maintenance: job continuity via checkpoints", (
        Row("cases", "E4 — Maintenance case",
            _without_and_with(run_maintenance_scenario, "with_loop")),
    )),
    "E5": Experiment("§III case 2", "I/O QoS adaptation", (
        Row("cases", "E5 — I/O QoS case (deadline-tenant write latency)",
            _without_and_with(run_ioqos_scenario, "with_loop")),
    )),
    "E6": Experiment("§III case 3", "OST failover", (
        Row("cases", "E6 — OST case (degraded OST at t=600s)",
            _without_and_with(run_ost_scenario, "with_loop")),
    )),
    "E7": Experiment("§III case 4", "Misconfiguration detect/advise/fix", (
        Row("cases", "E7 — Misconfiguration case",
            _without_and_with(run_misconfig_scenario, "with_fixes")),
    )),
    "E8": Experiment("§I", "value of response vs human latency", (
        Row("latency", "E8 — value of response vs human latency", _e8_human_latency,
            _SCHEDULER_FULL, _SCHEDULER_QUICK),
    )),
    "E9": Experiment("§IV", "small continual vs large batch models", (
        Row("forecasters", "D1 — forecaster ablation (drifting progress traces)",
            run_forecaster_comparison, {"n_runs": 30}, {"n_runs": 10}),
        Row("models", "E9 — small continual vs large batch models under drift",
            run_model_ablation),
    )),
    "E10": Experiment("§IV", "TSDB + model-metadata storage paths", (
        Row("ingest", "E10 — TSDB ingest", _e10_ingest, {"n_series": 256}, {"n_series": 64}),
        Row("queries", "E10 — TSDB query/downsample latency", run_tsdb_queries,
            {"n_series": 256}, {"n_series": 64}),
        Row("knowledge", "E10 — knowledge/model metadata ops", run_knowledge_ops),
    )),
    "E11": Experiment("§III.iv", "trust/guard budget sweep", (
        Row("budgets", "E11 — trust/guard budget sweep", run_trust_sweep,
            {"n_jobs": 32}, {"n_jobs": 12}),
    )),
    "E12": Experiment("§II i–ii", "component interchange matrix", (
        Row("matrix", "E12 — component interchange matrix", run_interchange_matrix),
    )),
    "E13": Experiment("§IV", "query engine: tiered rollups + cache vs raw scans", (
        Row("scan", "E13 — query engine vs naive raw scans", run_query_scan_comparison,
            {"n_series": 512}, {"n_series": 128}),
    )),
    "E14": Experiment(
        "§IV", "columnar vs per-object ingest (frozen row in README; path deleted)"
    ),
    "E15": Experiment("§II/§IV", "loop runtime: fused fleet monitoring vs ad-hoc scans", (
        Row("fleet", "E15 — fused fleet monitoring vs per-loop ad-hoc scans",
            run_loop_fleet_benchmark, {"n_loops": 256, "ticks": 10}, {"n_loops": 64, "ticks": 6}),
        Row("overhead", "E15b — runtime hosting overhead", run_runtime_overhead,
            {"ticks": 200}, {"ticks": 100}),
    )),
    "E16": Experiment("§IV", "sharded store: per-place scatter-gather vs a plain store", (
        Row("query", "E16 — per-place vs plain-store group_by queries",
            run_federated_query_benchmark,
            {"n_series": 4096, "n_shards": 8, "ticks": 64, "repeats": 3},
            {"n_series": 256, "n_shards": 8, "ticks": 16, "repeats": 1}),
        Row("ingest", "E16 — per-place vs plain-store columnar ingest",
            run_sharded_ingest_benchmark,
            {"n_series": 4096, "n_shards": 8, "ticks": 64, "repeats": 3},
            {"n_series": 256, "n_shards": 8, "ticks": 16, "repeats": 1}),
    )),
    "E17": Experiment("§II/§IV", "fleet supervision: meta-loops over loop self-telemetry", (
        Row("heal", "E17 — supervised vs unsupervised fleet under faults",
            run_supervision_benchmark, {"n_loops": 256}, {"n_loops": 64}),
        Row("shared", "E17b — shared hub serving vs the uncached engine",
            run_shared_serving_benchmark,
            {"n_loops": 256, "ticks": 20}, {"n_loops": 64, "ticks": 12}),
    )),
    "E18": Experiment("§IV", "process-parallel shards: shared-memory columns + worker pool", (
        Row("scatter", "E18 — parallel vs serial federated scatter",
            run_parallel_scatter_benchmark,
            {"n_series": 4096, "n_shards": 8, "workers": 4, "ticks": 64, "repeats": 3},
            {"n_series": 256, "n_shards": 8, "workers": 2, "ticks": 16, "repeats": 1}),
        Row("ingest", "E18 — shared-memory vs plain sharded ingest",
            run_parallel_ingest_benchmark,
            {"n_series": 4096, "n_shards": 8, "workers": 2, "ticks": 64, "repeats": 3},
            {"n_series": 256, "n_shards": 8, "workers": 2, "ticks": 16, "repeats": 1}),
        Row("fleet", "E18 — E15 watch fleet rerun on the parallel engine",
            run_parallel_fleet_benchmark,
            {"n_loops": 64, "n_shards": 4, "workers": 2},
            {"n_loops": 16, "n_shards": 4, "workers": 2}),
        Row("supervise", "E18 — E17 supervision rerun on the parallel engine",
            run_parallel_supervision_benchmark,
            {"n_loops": 32, "n_shards": 4, "workers": 2},
            {"n_loops": 16, "n_shards": 4, "workers": 2}),
        # its own 1,024 series: the largest selection has to fit
        Row("small_pass_tax", "E18 — pool round trip ÷ in-process wall of one scatter pass",
            run_small_pass_tax_benchmark,
            {"n_shards": 4, "workers": 2, "ticks": 64},
            {"n_shards": 4, "workers": 2, "ticks": 16}),
    )),
    "E19": Experiment("§IV", "standing queries: O(new samples) incremental monitor serving", (
        Row("hub", "E19 — standing vs fused hub serving", run_standing_hub_benchmark,
            {"n_loops": 256, "nodes_per_loop": 16, "ticks": 60},
            {"n_loops": 32, "nodes_per_loop": 8, "ticks": 8}),
        Row("ingest", "E19 — standing-update overhead on columnar ingest",
            run_standing_ingest_overhead, {"n_series": 4096}, {"n_series": 256}),
    )),
    "E20": Experiment("§IV", "observability: span tracing + metrics priced on the hot paths", (
        Row("ingest", "E20 — tracing overhead on columnar ingest", run_obs_ingest_overhead,
            {"n_series": 4096, "ticks": 30}, {"n_series": 256, "ticks": 6}),
        Row("standing", "E20 — tracing overhead on standing hub serving",
            run_obs_standing_overhead,
            {"n_loops": 64, "nodes_per_loop": 64, "ticks": 30},
            {"n_loops": 16, "nodes_per_loop": 16, "ticks": 6}),
    )),
    "E21": Experiment("§IV", "serving front door: multi-tenant admission, degrade, shed", (
        Row("load", "E21 — sustained mixed multi-tenant serving", run_serve_load_benchmark,
            {"n_nodes": 64, "duration_s": 3.0, "n_drivers": 4},
            {"n_nodes": 16, "duration_s": 0.8, "n_drivers": 2}),
        Row("isolation", "E21b — quota isolation under a greedy flood",
            run_quota_isolation_benchmark,
            {"n_nodes": 64, "duration_s": 2.0, "greedy_drivers": 4},
            {"n_nodes": 16, "duration_s": 0.8 * 2.0 / 3.0, "greedy_drivers": 2}),
    )),
}


def run_experiment(
    exp_id: str, *, quick: bool = False, seeds: Optional[Sequence[int]] = None
) -> Dict[str, Any]:
    """Run and print every row of one experiment; ``{row name: row}``."""
    rows: Dict[str, Any] = {}
    exp = EXPERIMENTS[exp_id]
    if not exp.rows:
        print(f"{exp_id} — {exp.title}: no rows to run\n")
    for row in exp.rows:
        sizes = dict(row.full if not quick or row.quick is None else row.quick)
        if seeds is not None and "seeds" in sizes:
            sizes["seeds"] = tuple(seeds)
        result = row.run(**sizes)
        table = result if isinstance(result, list) else [result]
        print(render_table(table, columns=row.columns, title=row.title))
        print()
        rows[row.name] = result
    return rows


def inexact(rows: Mapping[str, Any]) -> List[Tuple[str, str, Any]]:
    """``(row name, flag, value)`` for every exactness flag not at 1.0."""
    return [
        (name, flag, record[flag])
        for name, result in rows.items()
        for record in (result if isinstance(result, list) else [result])
        for flag in EXACTNESS_FLAGS
        if flag in record and record[flag] != 1.0
    ]


def run_experiments(
    ids: Sequence[str],
    *,
    quick: bool = False,
    seeds: Optional[Sequence[int]] = None,
    json_path: Optional[str] = None,
) -> int:
    """The ``repro experiments`` command: 0, 1 on an inexact row, 2 on an unknown id.

    The JSON is ``{row name: row}`` for one id and ``{id: {row name:
    row}}`` for several (row names repeat across experiments)."""
    unknown = [exp_id for exp_id in ids if exp_id not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)} (see `repro list`)",
              file=sys.stderr)
        return 2
    ids = list(ids) or list(EXPERIMENTS)
    t0 = time.perf_counter()
    results = {exp_id: run_experiment(exp_id, quick=quick, seeds=seeds) for exp_id in ids}
    print(f"-- {len(ids)} experiment(s) in {time.perf_counter() - t0:.1f}s --")
    if json_path:
        doc = results[ids[0]] if len(ids) == 1 else results
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(stamp(doc), fh, indent=2, sort_keys=True)
        print(f"wrote {json_path}")
    failed = [(exp_id, *bad) for exp_id, rows in results.items() for bad in inexact(rows)]
    for exp_id, name, flag, value in failed:
        print(f"ERROR: {exp_id} row {name!r}: {flag} = {value}, not 1.0", file=sys.stderr)
    return 1 if failed else 0

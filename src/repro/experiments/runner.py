"""Regenerate every experiment table.

``python -m repro.experiments.runner`` runs experiments E1–E12 at the
paper-reproduction sizes and prints each table; ``--quick`` shrinks the
workloads for smoke runs.  EXPERIMENTS.md records one captured output
of this runner next to the expected shapes.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from repro.experiments.harness import aggregate_rows, replicate
from repro.experiments.interchange_exp import run_interchange_matrix
from repro.experiments.maintenance_exp import run_maintenance_scenario
from repro.experiments.misconfig_exp import run_misconfig_scenario
from repro.experiments.model_exp import run_forecaster_comparison, run_model_ablation
from repro.experiments.patterns_exp import PatternScenarioConfig, run_pattern_scenario
from repro.experiments.pipeline_exp import run_pipeline_scenario, run_sampling_tradeoff
from repro.experiments.report import render_table
from repro.experiments.scheduler_case import (
    SchedulerScenarioConfig,
    run_scheduler_scenario,
)
from repro.experiments.storage_exp import run_ioqos_scenario, run_ost_scenario
from repro.experiments.trust_exp import run_trust_sweep
from repro.experiments.tsdb_exp import run_knowledge_ops, run_tsdb_ingest, run_tsdb_queries


def _p(text: str) -> None:
    print(text)
    print()


def run_all(quick: bool = False, seeds: List[int] = (0, 1, 2)) -> None:
    scale = 0.4 if quick else 1.0
    n_jobs = max(10, int(32 * scale))
    horizon = 400_000.0 * max(scale, 0.5)

    # ------------------------------------------------------------- E1
    row = run_pipeline_scenario(
        seed=0, n_nodes=int(64 * scale) or 16, horizon_s=3600.0 * max(scale, 0.5)
    )
    _p(render_table([row], title="E1 (Fig. 1) — holistic monitoring + ODA pipeline"))
    _p(render_table(
        run_sampling_tradeoff(seed=0, n_nodes=int(16 * scale) or 8),
        title="E1b — sampling-period design dial (overhead vs reaction)",
    ))

    # ------------------------------------------------------------- E2
    rows = []
    for pattern in ("classical", "master-worker", "coordinated", "hierarchical"):
        for n in (8, 32, 128):
            rows.append(
                run_pattern_scenario(
                    PatternScenarioConfig(
                        seed=1, pattern=pattern, n_elements=n,
                        horizon_s=900.0, settle_s=300.0,
                    )
                )
            )
    _p(render_table(
        rows,
        columns=["pattern", "n", "latency_s", "messages_total", "bias", "osc_std", "uncontrolled_frac"],
        title="E2 (Fig. 2) — pattern scalability (no failures)",
    ))
    rows = [
        run_pattern_scenario(
            PatternScenarioConfig(
                seed=2, pattern=p, n_elements=32, horizon_s=900.0, inject_failure_at=300.0
            )
        )
        for p in ("master-worker", "coordinated", "hierarchical")
    ]
    _p(render_table(
        rows,
        columns=["pattern", "uncontrolled_frac", "bias", "osc_std"],
        title="E2 (Fig. 2) — robustness under controller failure at t=300s",
    ))
    rows = [
        dict(comp_gain=cg, **{k: v for k, v in run_pattern_scenario(
            PatternScenarioConfig(seed=3, pattern="coordinated", n_elements=16,
                                  horizon_s=900.0, comp_gain=cg)).items()
            if k in ("osc_std", "bias")})
        for cg in (0.1, 0.5, 1.0, 2.0, 3.0)
    ]
    _p(render_table(rows, title="E2 (Fig. 2c) — coordinated-pattern stability vs comp_gain"))

    # ------------------------------------------------------------- E3
    rows = []
    for mode in ("none", "padding", "human", "autonomous", "oracle"):
        reps = replicate(
            lambda seed, mode=mode: run_scheduler_scenario(
                SchedulerScenarioConfig(
                    seed=seed, mode=mode, n_jobs=n_jobs, n_nodes=16, horizon_s=horizon
                )
            ),
            seeds,
        )
        rows.append(aggregate_rows(reps))
    _p(render_table(
        rows,
        columns=["mode", "completion_rate", "wasted_nh", "ext_granted", "ext_hours",
                 "overhang_nh", "resubmissions", "mean_wait_s"],
        title=f"E3 (Fig. 3) — Scheduler case, mean over seeds {list(seeds)}",
    ))

    # ------------------------------------------------------------- E4
    rows = [run_maintenance_scenario(with_loop=w, seed=0) for w in (False, True)]
    _p(render_table(rows, title="E4 — Maintenance case"))

    # ------------------------------------------------------------- E5
    rows = [run_ioqos_scenario(with_loop=w, seed=0) for w in (False, True)]
    _p(render_table(rows, title="E5 — I/O QoS case (deadline-tenant write latency)"))

    # ------------------------------------------------------------- E6
    rows = [run_ost_scenario(with_loop=w, seed=0) for w in (False, True)]
    _p(render_table(rows, title="E6 — OST case (degraded OST at t=600s)"))

    # ------------------------------------------------------------- E7
    rows = [run_misconfig_scenario(seed=0, with_fixes=w) for w in (False, True)]
    _p(render_table(rows, title="E7 — Misconfiguration case"))

    # ------------------------------------------------------------- E8
    rows = []
    for latency in (0.0, 300.0, 1800.0, 7200.0, 28800.0):
        if latency == 0.0:
            cfg = SchedulerScenarioConfig(
                seed=0, mode="autonomous", n_jobs=n_jobs, n_nodes=16, horizon_s=horizon
            )
        else:
            cfg = SchedulerScenarioConfig(
                seed=0, mode="human", n_jobs=n_jobs, n_nodes=16, horizon_s=horizon,
                human_median_latency_s=latency, human_availability=0.9,
            )
        row = run_scheduler_scenario(cfg)
        rows.append(
            {
                "median_response": "autonomous" if latency == 0 else f"{latency:.0f}s",
                "completion_rate": row["completion_rate"],
                "wasted_nh": row["wasted_nh"],
                "ext_granted": row["ext_granted"],
            }
        )
    _p(render_table(rows, title="E8 — value of response vs human latency"))

    # ------------------------------------------------------------- E9 + D1
    _p(render_table(run_forecaster_comparison(seed=0, n_runs=10 if quick else 30),
                    title="D1 — forecaster ablation (drifting progress traces)"))
    _p(render_table(run_model_ablation(seed=0),
                    title="E9 — small continual vs large batch models under drift"))

    # ------------------------------------------------------------- E10
    rows = [
        run_tsdb_ingest(seed=0, batch_size=b, n_series=64 if quick else 256)
        for b in (1, 64, 512)
    ]
    _p(render_table(rows, title="E10 — TSDB ingest"))
    _p(render_table([run_tsdb_queries(seed=0, n_series=64 if quick else 256)],
                    title="E10 — TSDB query/downsample latency"))
    _p(render_table([run_knowledge_ops()], title="E10 — knowledge/model metadata ops"))

    # ------------------------------------------------------------- E11
    _p(render_table(run_trust_sweep(seed=0, n_jobs=n_jobs), title="E11 — trust/guard budget sweep"))

    # ------------------------------------------------------------- E12
    _p(render_table(run_interchange_matrix(), title="E12 — component interchange matrix"))

    # ------------------------------------------------------------- E13
    from repro.experiments.query_exp import run_query_scan_comparison

    _p(render_table(
        [run_query_scan_comparison(seed=0, n_series=128 if quick else 512)],
        title="E13 — query engine vs naive raw scans",
    ))

    # ------------------------------------------------------------- E15
    from repro.experiments.loops_exp import run_loop_fleet_benchmark, run_runtime_overhead

    _p(render_table(
        [run_loop_fleet_benchmark(seed=0, n_loops=64 if quick else 256,
                                  ticks=6 if quick else 10)],
        title="E15 — loop fleet: fused monitoring vs per-loop ad-hoc scans",
    ))
    _p(render_table(
        [run_runtime_overhead(seed=0, ticks=100 if quick else 200)],
        title="E15b — LoopRuntime hosting overhead vs hand-wired loops",
    ))

    # ------------------------------------------------------------- E17
    from repro.experiments.supervise_exp import (
        run_shared_serving_benchmark,
        run_supervision_benchmark,
    )

    _p(render_table(
        [run_supervision_benchmark(seed=0, n_loops=64 if quick else 256)],
        title="E17 — fleet supervision under injected stuck/frozen loops",
    ))
    _p(render_table(
        [run_shared_serving_benchmark(seed=0, n_loops=64 if quick else 256,
                                      ticks=12 if quick else 20)],
        title="E17b — shared hub serving vs the uncached engine",
    ))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="reduced problem sizes")
    parser.add_argument("--seeds", type=int, nargs="*", default=[0, 1, 2])
    args = parser.parse_args(argv)
    t0 = time.time()
    run_all(quick=args.quick, seeds=args.seeds)
    print(f"-- all experiments regenerated in {time.time() - t0:.1f}s --")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Experiment harness: scenarios, metrics, and report rendering.

Every benchmark in ``benchmarks/`` calls a ``run_*`` scenario function
from this package; the same functions are the rows of the experiment
table in ``repro.experiments.runner`` (``repro experiments``), which
regenerates the tables the README records.
"""

from repro.experiments.metrics import JobOutcomeSummary, detection_metrics
from repro.experiments.report import render_table
from repro.experiments.harness import aggregate_rows, replicate
from repro.experiments.scheduler_case import (
    SchedulerScenarioConfig,
    run_scheduler_scenario,
)
from repro.experiments.patterns_exp import PatternScenarioConfig, run_pattern_scenario
from repro.experiments.storage_exp import run_ioqos_scenario, run_ost_scenario
from repro.experiments.misconfig_exp import run_misconfig_scenario
from repro.experiments.pipeline_exp import run_pipeline_scenario
from repro.experiments.model_exp import run_forecaster_comparison, run_model_ablation
from repro.experiments.maintenance_exp import run_maintenance_scenario
from repro.experiments.tsdb_exp import run_knowledge_ops, run_tsdb_ingest, run_tsdb_queries
from repro.experiments.trust_exp import run_trust_sweep
from repro.experiments.interchange_exp import run_interchange_matrix
from repro.experiments.incentives import incentive_report, render_incentives
from repro.experiments.loops_exp import (
    run_loop_fleet_benchmark,
    run_runtime_overhead,
    watch_fleet_specs,
)

__all__ = [
    "JobOutcomeSummary",
    "PatternScenarioConfig",
    "SchedulerScenarioConfig",
    "aggregate_rows",
    "detection_metrics",
    "incentive_report",
    "render_incentives",
    "render_table",
    "replicate",
    "run_forecaster_comparison",
    "run_interchange_matrix",
    "run_ioqos_scenario",
    "run_knowledge_ops",
    "run_maintenance_scenario",
    "run_misconfig_scenario",
    "run_model_ablation",
    "run_ost_scenario",
    "run_pattern_scenario",
    "run_pipeline_scenario",
    "run_scheduler_scenario",
    "run_loop_fleet_benchmark",
    "run_runtime_overhead",
    "run_trust_sweep",
    "watch_fleet_specs",
    "run_tsdb_ingest",
    "run_tsdb_queries",
]

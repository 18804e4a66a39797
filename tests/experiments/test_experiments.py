"""Tests for the experiment harness and every scenario's headline shape.

These are the reproduction checks: each test asserts the qualitative
claim the corresponding paper experiment makes, on a reduced problem
size so the suite stays fast.
"""

import itertools
import math
from types import SimpleNamespace

import pytest

import repro.core.loop
from repro.experiments.harness import aggregate_rows, replicate
from repro.experiments.maintenance_exp import run_maintenance_scenario
from repro.experiments.metrics import detection_metrics, latency_summary
from repro.experiments.misconfig_exp import run_misconfig_scenario
from repro.experiments.model_exp import run_forecaster_comparison, run_model_ablation
from repro.experiments.patterns_exp import (
    PATTERNS,
    PatternScenarioConfig,
    run_pattern_scenario,
)
from repro.experiments.pipeline_exp import run_pipeline_scenario
from repro.experiments.report import render_table
from repro.experiments.scheduler_case import (
    SchedulerScenarioConfig,
    run_scheduler_scenario,
)
from repro.experiments.storage_exp import run_ioqos_scenario, run_ost_scenario


class TestReportAndHarness:
    def test_render_table_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.123456}]
        text = render_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_render_empty(self):
        assert "(no rows)" in render_table([], title="t")

    def test_render_column_selection(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_replicate_and_aggregate(self):
        rows = replicate(lambda seed: {"x": float(seed), "mode": "m"}, seeds=[1, 2, 3])
        agg = aggregate_rows(rows)
        assert agg["x"] == pytest.approx(2.0)
        assert agg["x_std"] == pytest.approx(1.0)
        assert agg["mode"] == "m"

    def test_aggregate_empty(self):
        assert aggregate_rows([]) == {}

    def test_detection_metrics(self):
        pred = [("j1", "a"), ("j2", "b")]
        act = [("j1", "a"), ("j3", "c")]
        m = detection_metrics(pred, act)
        assert m["precision"] == 0.5
        assert m["recall"] == 0.5

    def test_latency_summary(self):
        s = latency_summary([1.0, 2.0, 3.0])
        assert s["mean_s"] == 2.0
        assert s["p99_s"] >= s["p50_s"]
        assert latency_summary([]) == {"n": 0.0}


class TestSchedulerScenarioShape:
    """E3: autonomy loop beats no-loop and padding baselines."""

    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for mode in ("none", "padding", "autonomous"):
            cfg = SchedulerScenarioConfig(
                seed=7, mode=mode, n_jobs=20, n_nodes=10, horizon_s=250_000.0
            )
            out[mode] = run_scheduler_scenario(cfg)
        return out

    def test_loop_improves_completion_rate(self, results):
        assert results["autonomous"]["completion_rate"] > results["none"]["completion_rate"]
        assert results["autonomous"]["completion_rate"] > results["padding"]["completion_rate"]

    def test_loop_reduces_wasted_node_hours(self, results):
        assert results["autonomous"]["wasted_nh"] < results["none"]["wasted_nh"]

    def test_loop_uses_extensions(self, results):
        assert results["autonomous"]["ext_granted"] > 0
        assert results["none"]["ext_granted"] == 0

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            SchedulerScenarioConfig(mode="magic")


class TestHumanLatencyShape:
    """E8: response value decays with human latency."""

    def test_fast_human_beats_slow_human(self):
        fast = run_scheduler_scenario(
            SchedulerScenarioConfig(
                seed=3, mode="human", n_jobs=16, n_nodes=8, horizon_s=250_000.0,
                human_median_latency_s=60.0, human_availability=1.0,
            )
        )
        slow = run_scheduler_scenario(
            SchedulerScenarioConfig(
                seed=3, mode="human", n_jobs=16, n_nodes=8, horizon_s=250_000.0,
                human_median_latency_s=14_400.0, human_availability=1.0,
            )
        )
        assert fast["completion_rate"] >= slow["completion_rate"]


class TestPatternScenarioShape:
    """E2: the Fig. 2 trade-offs."""

    def test_master_worker_latency_grows_with_n(self):
        small = run_pattern_scenario(
            PatternScenarioConfig(seed=1, pattern="master-worker", n_elements=8,
                                  horizon_s=300.0, settle_s=100.0)
        )
        large = run_pattern_scenario(
            PatternScenarioConfig(seed=1, pattern="master-worker", n_elements=64,
                                  horizon_s=300.0, settle_s=100.0)
        )
        assert large["latency_s"] > small["latency_s"] * 2

    def test_hierarchical_latency_flat_in_n(self):
        small = run_pattern_scenario(
            PatternScenarioConfig(seed=1, pattern="hierarchical", n_elements=8,
                                  horizon_s=300.0, settle_s=100.0)
        )
        large = run_pattern_scenario(
            PatternScenarioConfig(seed=1, pattern="hierarchical", n_elements=64,
                                  horizon_s=300.0, settle_s=100.0)
        )
        assert large["latency_s"] == pytest.approx(small["latency_s"])

    def test_failure_containment_ordering(self):
        rows = {}
        for pattern in ("master-worker", "coordinated", "hierarchical"):
            rows[pattern] = run_pattern_scenario(
                PatternScenarioConfig(
                    seed=2, pattern=pattern, n_elements=32,
                    horizon_s=900.0, inject_failure_at=300.0,
                )
            )
        assert rows["master-worker"]["uncontrolled_frac"] == 1.0
        assert rows["coordinated"]["uncontrolled_frac"] <= 0.1
        assert 0.1 < rows["hierarchical"]["uncontrolled_frac"] < 0.5

    def test_coordinated_instability_at_high_comp_gain(self):
        calm = run_pattern_scenario(
            PatternScenarioConfig(seed=3, pattern="coordinated", n_elements=16,
                                  horizon_s=900.0, comp_gain=0.1)
        )
        wild = run_pattern_scenario(
            PatternScenarioConfig(seed=3, pattern="coordinated", n_elements=16,
                                  horizon_s=900.0, comp_gain=3.0)
        )
        assert wild["osc_std"] > 10 * calm["osc_std"]

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_same_seed_same_row_under_a_failure(self, pattern, monkeypatch):
        """Every decision reads only the simulation: the runtime writes the
        host-time ``loop_iteration_ms`` into the store the loops read, and
        a second run on a host clock 1000x slower still gives the same row."""
        cfg = PatternScenarioConfig(seed=4, pattern=pattern, n_elements=16, horizon_s=300.0,
                                    settle_s=100.0, inject_failure_at=150.0)
        first = run_pattern_scenario(cfg)
        clock = itertools.count(0.0, 7.5)
        monkeypatch.setattr(
            repro.core.loop, "time", SimpleNamespace(perf_counter=lambda: next(clock))
        )
        assert run_pattern_scenario(cfg) == first

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            PatternScenarioConfig(pattern="anarchy")
        with pytest.raises(ValueError):
            PatternScenarioConfig(settle_s=500.0, horizon_s=400.0)


class TestStorageScenarioShapes:
    """E5 and E6."""

    def test_ost_loop_restores_bandwidth(self):
        with_loop = run_ost_scenario(with_loop=True, seed=0, horizon_s=3000.0)
        without = run_ost_scenario(with_loop=False, seed=0, horizon_s=3000.0)
        assert math.isinf(without["recovery_s"])
        assert with_loop["recovery_s"] < 600.0
        assert with_loop["final_bw_mbps"] > 5 * without["final_bw_mbps"]

    def test_ioqos_loop_cuts_violations(self):
        with_loop = run_ioqos_scenario(with_loop=True, seed=0, horizon_s=4000.0)
        without = run_ioqos_scenario(with_loop=False, seed=0, horizon_s=4000.0)
        assert without["violation_rate"] > 0.5
        assert with_loop["violation_rate"] < 0.2
        assert with_loop["mean_latency_s"] < without["mean_latency_s"]


class TestMaintenanceScenarioShape:
    """E4: checkpoints save nearly all in-flight work."""

    def test_loop_cuts_lost_node_hours(self):
        with_loop = run_maintenance_scenario(with_loop=True, seed=0)
        without = run_maintenance_scenario(with_loop=False, seed=0)
        assert with_loop["lost_node_hours"] < 0.2 * without["lost_node_hours"]
        assert with_loop["checkpoints_saved"] > 0
        assert without["checkpoints_saved"] == 0
        assert with_loop["makespan_s"] < without["makespan_s"]


class TestMisconfigScenarioShape:
    """E7: detection quality and the value of online fixes."""

    def test_detection_quality(self):
        row = run_misconfig_scenario(seed=1, n_jobs=20, with_fixes=False, horizon_s=20_000.0)
        assert row["precision"] >= 0.9
        assert row["recall"] >= 0.9

    def test_fixes_recover_runtime(self):
        fixed = run_misconfig_scenario(seed=1, n_jobs=20, with_fixes=True, horizon_s=30_000.0)
        advised = run_misconfig_scenario(seed=1, n_jobs=20, with_fixes=False, horizon_s=30_000.0)
        assert fixed["mean_runtime_misconfigured_s"] < advised["mean_runtime_misconfigured_s"]
        assert fixed["fixes_applied"] > 0


class TestPipelineScenarioShape:
    """E1: the monitoring + ODA pipeline is complete, timely, and cheap."""

    def test_pipeline_feasibility(self):
        row = run_pipeline_scenario(seed=0, n_nodes=16, horizon_s=1200.0, n_anomalies=4)
        assert row["completeness"] > 0.99
        assert row["anomaly_recall"] >= 0.75
        assert row["overhead_cpu_frac"] < 0.01
        assert row["e2e_lag_s"] < 1.0


class TestModelExperimentShapes:
    """E9 and the D1 forecaster ablation."""

    def test_forecaster_ranking(self):
        rows = {r["forecaster"]: r for r in run_forecaster_comparison(seed=0, n_runs=8)}
        # regression-based forecasters beat the naive average-rate one on
        # drifting traces
        assert rows["ols"]["rel_eta_error"] < rows["rate"]["rel_eta_error"]
        assert rows["theilsen"]["rel_eta_error"] < rows["rate"]["rel_eta_error"]

    def test_continual_model_wins_after_drift(self):
        rows = {r["model"]: r for r in run_model_ablation(seed=0, n_samples=1000)}
        continual = rows["rls-forgetting (small, continual)"]
        frozen = rows["rls-no-forgetting (small, frozen)"]
        batch = rows["batch-poly-8 (large, refit-always)"]
        assert continual["post_drift_mae"] < 0.5 * frozen["post_drift_mae"]
        assert continual["post_drift_mae"] < 0.5 * batch["post_drift_mae"]
        assert continual["update_us"] < batch["update_us"]

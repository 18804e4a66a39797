"""Direct tests for tsdb/trust/interchange experiment helpers."""

import pytest

from repro.experiments.interchange_exp import run_interchange_matrix
from repro.experiments.trust_exp import run_trust_sweep
from repro.experiments.tsdb_exp import (
    run_knowledge_ops,
    run_tsdb_ingest,
    run_tsdb_queries,
)


class TestTsdbExperiments:
    def test_ingest_point_vs_batch(self):
        point = run_tsdb_ingest(seed=0, n_series=16, points_per_series=500, batch_size=1)
        batch = run_tsdb_ingest(seed=0, n_series=16, points_per_series=500, batch_size=100)
        assert point["points"] == batch["points"] == 16 * 500
        assert point["cardinality"] == 16
        assert batch["inserts_per_s"] > point["inserts_per_s"]

    def test_query_latency_fields(self):
        row = run_tsdb_queries(seed=0, n_series=16, points_per_series=500, n_queries=50)
        assert row["query_us"] > 0
        assert row["downsample_us"] > 0

    def test_knowledge_ops(self):
        row = run_knowledge_ops(n_models=50, n_plans=100)
        assert row["n_models"] == 50
        assert row["effectiveness"] == pytest.approx(0.8)
        assert row["model_register_us"] > 0


class TestSamplingTradeoff:
    def test_latency_cost_shape(self):
        from repro.experiments.pipeline_exp import run_sampling_tradeoff

        rows = run_sampling_tradeoff(
            seed=1, n_nodes=6, periods_s=(2.0, 30.0), horizon_s=1800.0
        )
        fast, slow = rows
        assert fast["detect_latency_s"] < slow["detect_latency_s"]
        assert fast["overhead_cpu_frac"] > slow["overhead_cpu_frac"]
        assert fast["detected_frac"] == 1.0


class TestTrustSweep:
    def test_budget_zero_is_status_quo(self):
        rows = run_trust_sweep(
            seed=0, budgets=[0, 2], n_jobs=12, n_nodes=8, horizon_s=200_000.0
        )
        assert rows[0]["ext_granted"] == 0
        assert rows[1]["ext_granted"] > 0
        assert rows[1]["completion_rate"] >= rows[0]["completion_rate"]


class TestInterchangeMatrix:
    def test_every_forecaster_rescues(self):
        rows = run_interchange_matrix(horizon_s=8000.0)
        from repro.analytics.forecast import forecaster_names

        assert {r["forecaster"] for r in rows} == set(forecaster_names())
        assert all(r["rescued"] for r in rows)
        assert all(r["forecaster_in_loop"] for r in rows)

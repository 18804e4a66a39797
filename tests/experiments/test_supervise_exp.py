"""E17 scenario helpers at reduced scale (the benchmark runs at 256)."""

from repro.experiments.provenance import provenance, stamp
from repro.experiments.supervise_exp import (
    run_shared_serving_benchmark,
    run_supervision_benchmark,
)


def test_supervision_benchmark_row_shape():
    row = run_supervision_benchmark(seed=0, n_loops=32)
    assert row["restores_within_2x"] == 1.0
    assert row["control_degrades"] == 1.0
    assert row["restarts"] == row["frozen"] + row["stuck"]
    assert row["stuck_recovered"] == row["stuck"]
    assert row["actions_audited"] >= row["restarts"]


def test_adaptive_fusion_exactness_at_small_scale():
    row = run_shared_serving_benchmark(seed=0, n_loops=32, ticks=10)
    # perf gate is benchmark-scale only; exactness and sharing always hold
    assert row["match"] == 1.0
    # per tick the shared side executes the first narrow read, the
    # widened shape and the cluster-wide read once; the rest is shared
    assert row["shared_queries"] == 3 * row["ticks"]
    assert row["fused_served"] == (row["n_loops"] - 1) * row["ticks"]
    # the uncached control never widens: every loop scans both reads
    assert row["direct_queries"] == 2 * row["n_loops"] * row["ticks"]


def test_provenance_fields():
    fields = provenance()
    assert set(fields) == {"git_sha", "generated_at"}
    assert fields["git_sha"] != ""
    assert "T" in fields["generated_at"]
    row = stamp({"x": 1.0})
    assert row["x"] == 1.0 and "git_sha" in row and "generated_at" in row
    # the row's own fields win a collision
    assert stamp({"git_sha": "pinned"})["git_sha"] == "pinned"

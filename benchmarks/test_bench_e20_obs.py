"""E20 — observability: span tracing priced on the hot paths (§IV).

PR 9 threads span tracing through the autonomy hot paths (hub serving,
standing reads, engine execution, federated scatter, columnar ingest).
The benchmark prices the instrumentation on two gated hot paths
(columnar ingest, E19 standing serving), with A/A controls so
the gates bound the methodology's noise floor, not just the tracer:

* **disabled tracing ≤1.02×** — each guarded site costs one attribute
  load + branch; the A/A control (two disabled passes) must land inside
  the same gate, proving the floor is measurable at 2%;
* **enabled tracing ≤1.05×** — one bounded-ring append per span on the
  standing path (the ingest path carries no per-commit spans and must
  show that);
* **exactness is asserted unconditionally**: traced and untraced query
  sweeps must return bit-identical results on sampled ticks.
"""

import os

import pytest
from conftest import run_once

from repro.experiments.obs_exp import (
    run_obs_ingest_overhead,
    run_obs_standing_overhead,
)
from repro.experiments.report import render_table

MULTICORE = (os.cpu_count() or 1) >= 4


def test_obs_ingest_overhead(benchmark):
    row = run_once(benchmark, run_obs_ingest_overhead, seed=0)
    print()
    print(render_table(
        [row], title="E20 — tracing overhead on columnar ingest (4096 series)"
    ))
    assert row["n_series"] == 4096
    assert row["commits"] > 0
    if not MULTICORE:
        pytest.skip("overhead gates need an unloaded multicore host")
    assert row["disabled_overhead"] <= 1.02
    assert row["enabled_overhead"] <= 1.05


def test_obs_standing_overhead(benchmark):
    row = run_once(benchmark, run_obs_standing_overhead, seed=0)
    print()
    print(render_table(
        [row], title="E20 — tracing overhead on standing hub serving (64 loops)"
    ))
    assert row["n_loops"] == 64
    assert row["match"] == 1.0  # spans never perturb results
    assert row["standing_served"] > 0  # the instrumented path actually served
    assert row["spans_recorded"] > 0  # enabled sweeps actually traced
    if not MULTICORE:
        pytest.skip("overhead gates need an unloaded multicore host")
    assert row["disabled_overhead"] <= 1.02
    assert row["enabled_overhead"] <= 1.05

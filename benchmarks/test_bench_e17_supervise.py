"""E17 — fleet supervision: meta-loops over loop self-telemetry (§II/§IV).

The paper's closed-loop story must apply to the loops themselves: the
fleet publishes ``loop_*`` self-telemetry (PR 3), so supervision is
just more loops whose monitors query it and whose actions operate on
the fleet.  Two claims, one 256-instance fleet:

* **Self-healing** — with frozen monitors and silently stuck loops
  injected, the health supervisor restores fleet p95
  ``loop_staleness_s`` to within 2× of the healthy baseline, while the
  unsupervised control degrades beyond it; every injected fault is
  repaired by an audited, deterministic restart.
* **Shared serving without a supervisor** — the watch fleet through the
  hub, which decides inline at every tick that its narrow reads share
  one widened shape, costs ≥2× less Monitor time than the same fleet
  over the uncached engine (the never-shared control), with identical
  analyzer verdicts.
"""

from conftest import run_once

from repro.experiments.report import render_table
from repro.experiments.supervise_exp import (
    run_shared_serving_benchmark,
    run_supervision_benchmark,
)


def test_supervision_restores_fleet_staleness(benchmark):
    row = run_once(benchmark, run_supervision_benchmark, seed=0, n_loops=256)
    print()
    print(render_table([row], title="E17 — supervised vs unsupervised fleet under injected faults"))
    assert row["n_loops"] == 256
    assert row["frozen"] == 16 and row["stuck"] == 8
    assert row["restores_within_2x"] == 1.0
    assert row["control_degrades"] == 1.0
    # every injected fault was repaired, every stuck loop iterates again
    assert row["restarts"] >= row["frozen"] + row["stuck"]
    assert row["stuck_recovered"] == row["stuck"]
    # supervisor decisions are audited fleet operations
    assert row["actions_audited"] >= row["restarts"]


def test_adaptive_fusion_2x_without_manual_flags(benchmark):
    row = run_once(benchmark, run_shared_serving_benchmark, seed=0, n_loops=256, ticks=20)
    print()
    print(render_table([row], title="E17b — shared hub serving vs the uncached engine"))
    assert row["match"] == 1.0  # identical verdicts
    assert row["fused_served"] > 0.0
    assert row["monitor_speedup"] >= 2.0

"""E12 — interchangeable components (methodology questions i–ii).

Claim quantified: the loop skeleton accepts any forecaster through the
typed interfaces — the hosted loop analyzes with the forecaster named in
its config — and every combination rescues the reference job, i.e.
components are genuinely swappable at run time.
"""

from conftest import run_once

from repro.experiments.interchange_exp import run_interchange_matrix
from repro.experiments.report import render_table


def test_interchange_matrix(benchmark):
    rows = run_once(benchmark, run_interchange_matrix)
    print()
    print(render_table(rows, title="E12 — forecaster swap matrix"))
    from repro.analytics.forecast import forecaster_names

    assert len(rows) == len(forecaster_names())
    assert all(r["forecaster_in_loop"] for r in rows)
    assert all(r["rescued"] for r in rows)


def test_loop_iteration_microbenchmark(benchmark):
    """Cost of one runtime-hosted classical MAPE-K cycle on the regulation
    task: one disturbance publishes the element, one loop iteration reads
    it back through the hub, decides and actuates."""
    from repro.core.patterns import DriftingElement, classical_specs, publish
    from repro.core.runtime import LoopRuntime
    from repro.sim import Engine, RngRegistry

    engine = Engine()
    runtime = LoopRuntime(engine)
    element = DriftingElement(
        engine, "e0", RngRegistry(seed=0).fork("e", 0), disturb_period_s=10.0
    )
    publish(runtime, [element])
    element.start_disturbance()
    (handle,) = runtime.add_many(classical_specs([element], 100.0, period_s=10.0), start=True)
    state = {"until": 0.0}

    def one_cycle():
        state["until"] += 10.0
        engine.run(until=state["until"])

    benchmark(one_cycle)
    assert handle.loop.iterations_run > 0
    assert 0 < handle.loop.actions_executed <= handle.loop.iterations_run

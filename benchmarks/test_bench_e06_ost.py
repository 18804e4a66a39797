"""E6 — OST case.

Claim quantified: continuous evaluation of back-end write performance
lets the application close files on a poorly performing OST and reopen
them elsewhere, restoring write bandwidth; without the loop the
degraded OST bottlenecks every striped write indefinitely.
"""

from math import isinf


from repro.experiments.report import render_table
from repro.experiments.storage_exp import run_ost_scenario


def test_ost_case(benchmark):
    def run_both():
        return [run_ost_scenario(with_loop=w, seed=0) for w in (False, True)]

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print()
    print(render_table(rows, title="E6 — OST degradation to 5% at t=600s"))
    without, with_loop = rows
    assert isinf(without["recovery_s"])  # never recovers
    assert with_loop["recovery_s"] < 600.0  # a few loop periods
    assert with_loop["final_bw_mbps"] > 10 * without["final_bw_mbps"]
    assert with_loop["restripes"] >= 1


def test_ost_case_multiple_writers(benchmark):
    """Several writers striped over the bad OST all get moved."""
    from repro.core.runtime import LoopRuntime
    from repro.loops.bridges import FilesystemTelemetryBridge
    from repro.loops.ost_loop import OstCaseConfig, ost_case_spec
    from repro.sim import Engine
    from repro.storage import OST, OstState, ParallelFileSystem, PeriodicWriter

    def scenario():
        engine = Engine()
        fs = ParallelFileSystem(engine, [OST(f"ost{i}", 1000.0) for i in range(8)])
        writers = [
            PeriodicWriter(engine, fs, f"app{i}", size_mb=400.0, period_s=30.0, stripe_count=2)
            for i in range(4)
        ]
        for w in writers:
            w.start()
        runtime = LoopRuntime(engine)
        FilesystemTelemetryBridge(fs, runtime.store)
        spec = ost_case_spec(engine, fs, writers, config=OstCaseConfig(loop_period_s=60.0))
        runtime.add(spec).start()
        engine.run(until=500.0)
        victim = writers[0].file.stripe_osts[0]
        fs.set_ost_state(victim, OstState.DEGRADED, 0.05)
        engine.run(until=3000.0)
        moved = sum(1 for w in writers if victim not in w.file.stripe_osts)
        affected = sum(1 for w in writers if w.file.restripe_count > 0)
        return {"victim": victim, "writers_clear_of_victim": moved, "restriped": affected}

    row = benchmark.pedantic(scenario, rounds=1, iterations=1)
    print()
    print(render_table([row], title="E6 — fleet failover"))
    assert row["writers_clear_of_victim"] == 4

#!/usr/bin/env python3
"""OST case: detect a degraded storage target and move files off it.

An application writes periodic checkpoints over a striped file.  At
t=600s one of its OSTs degrades to 5% of nominal bandwidth (think RAID
rebuild).  The OST autonomy loop watches per-OST achieved bandwidth,
flags the slow target, and tells the application to close its files
there and reopen on healthy OSTs — the paper's use case 3.

Run:  python examples/ost_failover.py
"""

from repro.core import AuditTrail, LoopRuntime
from repro.loops import FilesystemTelemetryBridge, OstCaseConfig, ost_case_spec
from repro.sim import Engine
from repro.storage import OST, OstState, ParallelFileSystem, PeriodicWriter


def main() -> None:
    engine = Engine()
    audit = AuditTrail()
    osts = [OST(f"ost{i}", nominal_rate_mbps=1000.0) for i in range(6)]
    fs = ParallelFileSystem(engine, osts)

    writer = PeriodicWriter(
        engine, fs, "simulation-app", size_mb=500.0, period_s=30.0, stripe_count=2
    )
    writer.start()

    runtime = LoopRuntime(engine, audit=audit)
    FilesystemTelemetryBridge(fs, runtime.store)
    spec = ost_case_spec(engine, fs, [writer], config=OstCaseConfig(loop_period_s=60.0))
    runtime.add(spec).start()

    timeline = []

    def degrade() -> None:
        victim = writer.file.stripe_osts[0]
        fs.set_ost_state(victim, OstState.DEGRADED, 0.05)
        timeline.append((engine.now, f"OST {victim} degraded to 5%"))

    def report() -> None:
        bw = writer.recent_bandwidth_mbps()
        if bw is not None:
            timeline.append(
                (engine.now, f"recent app write bandwidth: {bw:.0f} MB/s "
                             f"(stripes: {writer.file.stripe_osts})")
            )

    engine.schedule_at(600.0, degrade)
    engine.every(300.0, report, start_at=300.0)
    engine.run(until=2400.0)

    print("timeline:")
    for t, message in timeline:
        print(f"  t={t:7.1f}s  {message}")
    print("\nloop decisions:")
    for event in audit.events:
        print("  " + event.render())
    print(f"\nrestripes performed: {writer.file.restripe_count}")
    assert writer.file.restripe_count >= 1


if __name__ == "__main__":
    main()

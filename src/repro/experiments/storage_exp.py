"""Storage-loop scenarios (experiments E5 and E6)."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.runtime import LoopHandle, LoopRuntime
from repro.loops.bridges import FilesystemTelemetryBridge
from repro.loops.io_qos_loop import IoQosConfig, io_qos_spec
from repro.loops.ost_loop import OstCaseConfig, ost_case_spec
from repro.sim import Engine
from repro.storage.client import PeriodicWriter
from repro.storage.filesystem import ParallelFileSystem
from repro.storage.ost import OST, OstState


def run_ost_scenario(
    *,
    with_loop: bool,
    seed: int = 0,
    n_osts: int = 8,
    ost_rate_mbps: float = 1000.0,
    degrade_at_s: float = 600.0,
    degrade_factor: float = 0.05,
    horizon_s: float = 4000.0,
    write_size_mb: float = 500.0,
    write_period_s: float = 30.0,
) -> Dict[str, float]:
    """OST case: degrade one stripe mid-run; measure bandwidth recovery."""
    engine = Engine()
    osts = [OST(f"ost{i}", ost_rate_mbps) for i in range(n_osts)]
    fs = ParallelFileSystem(engine, osts)
    writer = PeriodicWriter(
        engine, fs, "app", size_mb=write_size_mb, period_s=write_period_s, stripe_count=2
    )
    writer.start()
    case: Optional[LoopHandle] = None
    if with_loop:
        runtime = LoopRuntime(engine)
        FilesystemTelemetryBridge(fs, runtime.store)
        case = runtime.add(
            ost_case_spec(engine, fs, [writer], config=OstCaseConfig(loop_period_s=60.0))
        )
        case.start()

    victim: Dict[str, str] = {}

    def degrade() -> None:
        victim["ost"] = writer.file.stripe_osts[0]
        fs.set_ost_state(victim["ost"], OstState.DEGRADED, degrade_factor)

    engine.schedule_at(degrade_at_s, degrade)
    engine.run(until=horizon_s)

    pre = [t.achieved_mbps for t in writer.transfers if t.t_end <= degrade_at_s]
    post = [t.achieved_mbps for t in writer.transfers if t.t_start >= degrade_at_s]
    pre_bw = float(np.mean(pre)) if pre else float("nan")
    post_bw = float(np.mean(post)) if post else float("nan")
    # recovery time: first post-degradation transfer back above 80% of pre
    recovery_s = float("inf")
    for t in writer.transfers:
        if t.t_start >= degrade_at_s and t.achieved_mbps >= 0.8 * pre_bw:
            recovery_s = t.t_end - degrade_at_s
            break
    tail = [t.achieved_mbps for t in writer.transfers[-10:]]
    return {
        "with_loop": with_loop,
        "seed": seed,
        "pre_bw_mbps": pre_bw,
        "post_bw_mbps": post_bw,
        "final_bw_mbps": float(np.mean(tail)) if tail else float("nan"),
        "recovery_s": recovery_s,
        "restripes": float(writer.file.restripe_count),
        "failovers": float(case.loop.actions_executed) if case else 0.0,
    }


def run_ioqos_scenario(
    *,
    with_loop: bool,
    seed: int = 0,
    n_osts: int = 4,
    ost_rate_mbps: float = 500.0,
    horizon_s: float = 6000.0,
    latency_target_s: float = 2.0,
    workflow_size_mb: float = 1000.0,
    workflow_period_s: float = 30.0,
    bg_size_mb: float = 20000.0,
    bg_period_s: float = 20.0,
    n_background: int = 2,
) -> Dict[str, float]:
    """I/O-QoS case: protect a deadline workflow from background tenants."""
    engine = Engine()
    osts = [OST(f"ost{i}", ost_rate_mbps) for i in range(n_osts)]
    fs = ParallelFileSystem(engine, osts)
    workflow = PeriodicWriter(
        engine, fs, "workflow", size_mb=workflow_size_mb, period_s=workflow_period_s, stripe_count=2
    )
    backgrounds = [
        PeriodicWriter(engine, fs, f"bg{i}", size_mb=bg_size_mb, period_s=bg_period_s, stripe_count=min(4, n_osts))
        for i in range(n_background)
    ]
    workflow.start(start_at=5.0)
    for w in backgrounds:
        w.start()
    case: Optional[LoopHandle] = None
    if with_loop:
        case = LoopRuntime(engine).add(
            io_qos_spec(
                fs,
                [workflow, *backgrounds],
                config=IoQosConfig(latency_target_s=latency_target_s, loop_period_s=60.0),
            )
        )
        case.start()
    engine.run(until=horizon_s)

    lat = np.asarray([t.duration for t in workflow.transfers])
    bg_total_mb = sum(sum(t.size_mb for t in w.transfers) for w in backgrounds)
    return {
        "with_loop": with_loop,
        "seed": seed,
        "n_writes": float(lat.size),
        "mean_latency_s": float(lat.mean()) if lat.size else float("nan"),
        "p95_latency_s": float(np.percentile(lat, 95)) if lat.size else float("nan"),
        "p99_latency_s": float(np.percentile(lat, 99)) if lat.size else float("nan"),
        "violation_rate": float(np.mean(lat > latency_target_s)) if lat.size else float("nan"),
        "cv": float(lat.std() / lat.mean()) if lat.size and lat.mean() > 0 else float("nan"),
        "bg_throughput_mbps": bg_total_mb / horizon_s,
        "qos_adjustments": float(case.loop.actions_executed) if case else 0.0,
    }

#!/usr/bin/env python3
"""Fig. 1 end to end: holistic monitoring feeding visualize/diagnose/forecast.

Builds a 32-node cluster with the full telemetry pipeline, runs a mixed
workload for two simulated hours, then plays the three ODA roles from
the paper's vision figure over the collected store:

* visualize — a text "dashboard" of downsampled cluster power,
* diagnose  — anomaly detection over per-node power series,
* forecast  — progress forecasts for every running job.

Run:  python examples/holistic_dashboard.py
"""

import numpy as np

from repro.analytics.anomaly import ZScoreDetector
from repro.analytics.forecast import OLSForecaster
from repro.cluster import Cluster, ClusterConfig
from repro.query import QueryEngine
from repro.sim import Engine, RngRegistry
from repro.telemetry import SeriesKey
from repro.workloads import WorkloadGenerator, WorkloadSpec


def sparkline(values, width=48) -> str:
    """Tiny text chart for the 'visualize' role."""
    blocks = " .:-=+*#%@"
    if len(values) == 0:
        return ""
    arr = np.asarray(values, dtype=float)
    if len(arr) > width:
        idx = np.linspace(0, len(arr) - 1, width).astype(int)
        arr = arr[idx]
    lo, hi = arr.min(), arr.max()
    span = (hi - lo) or 1.0
    return "".join(blocks[int((v - lo) / span * (len(blocks) - 1))] for v in arr)


def main() -> None:
    engine = Engine()
    cluster = Cluster(engine, ClusterConfig(n_nodes=32, telemetry_period_s=10.0, seed=7))
    generator = WorkloadGenerator(
        engine,
        cluster.scheduler,
        RngRegistry(seed=7).stream("workload"),
        WorkloadSpec(n_jobs=24, arrival_rate_per_s=1 / 180.0),
    )
    generator.start()
    # continuously fold raw telemetry into 60s → 300s rollup tiers so the
    # dashboard's long-range queries never scan raw ring buffers
    for rollups in cluster.store.create_tiersets((60.0, 300.0)):
        rollups.attach(engine)
    horizon = 7200.0
    engine.run(until=horizon)

    store = cluster.store
    qe = QueryEngine(store)
    print("=" * 70)
    print("VISUALIZE — cluster power (5-min bins, served from rollups)")
    print("=" * 70)
    power = qe.query(
        "mean(node_power_watts[7200s] by 300s) group by (node)", at=horizon
    )
    shown = {s.label("node"): s for s in power.series}
    for node in cluster.nodes[:6]:
        series = shown.get(node.node_id)
        if series is None:
            print(f"  {node.node_id}: no data")
            continue
        print(f"  {node.node_id}: {sparkline(series.values)}  "
              f"(mean {np.mean(series.values):.0f} W)")
    print(f"  [query served from {power.source}]")

    print()
    print("=" * 70)
    print("DIAGNOSE — per-node power anomalies (z-score detector)")
    print("=" * 70)
    total = 0
    for node in cluster.nodes:
        key = SeriesKey.of("node_power_watts", node=node.node_id)
        times, values = store.query(key, 0, horizon)
        detector = ZScoreDetector(window=60, threshold=5.0)
        for t, v in zip(times, values):
            anomaly = detector.update(t, v)
            if anomaly is not None:
                total += 1
                print(f"  {node.node_id} t={t:7.0f}s value={v:6.1f} ({anomaly.detail})")
    if total == 0:
        print("  no anomalies — a quiet shift")

    print()
    print("=" * 70)
    print("FORECAST — time-to-completion for running jobs")
    print("=" * 70)
    for job in cluster.scheduler.running_jobs():
        times, steps = cluster.markers.as_arrays(job.job_id)
        fc = OLSForecaster()
        for t, s in zip(times, steps):
            fc.update(t, s)
        result = fc.forecast(horizon, job.profile.total_steps)
        if result is None:
            print(f"  {job.job_id}: not enough markers yet")
            continue
        eta_min = result.remaining(horizon) / 60.0
        limit_min = (job.deadline - horizon) / 60.0
        risk = "AT RISK" if result.eta_hi > job.deadline else "ok"
        print(f"  {job.job_id}: ~{eta_min:6.1f} min left, "
              f"{limit_min:6.1f} min of allocation → {risk}")

    queue = cluster.scheduler.queue_length
    util = cluster.scheduler.utilization()
    # the same dashboard query re-issued inside one step-quantum is a cache hit
    qe.query("mean(node_power_watts[7200s] by 300s) group by (node)", at=horizon)
    stats = qe.stats()
    print()
    print(f"cluster state: utilization={util:.0%}, queue={queue}, "
          f"series stored={store.cardinality()}, points={store.total_inserts}")
    print(f"query engine: {stats['queries_total']:.0f} queries, "
          f"{stats['served_rollup']:.0f} rollup-served, "
          f"cache hit rate {stats.get('cache_hit_rate', 0.0):.0%}, "
          f"rollup rows {sum(v for k, v in stats.items() if k.endswith('_rows')):.0f}")


if __name__ == "__main__":
    main()

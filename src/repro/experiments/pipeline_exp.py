"""Holistic-monitoring pipeline scenario (experiment E1, Fig. 1).

Builds the full telemetry stack over N nodes, streams synthetic
facility/hardware signals with injected anomalies, runs the three ODA
functions of Fig. 1 — visualize (downsampled queries), diagnose (anomaly
detection), forecast (trend extrapolation) — and reports pipeline
throughput, end-to-end lag, analytics latency, overhead, and detection
quality.

Samples move columnar: one :class:`SensorBank` per node reads all its
metrics in a single vectorized call, one :class:`SamplingGroup` per
aggregation subtree fires one engine event per group per tick, hops are
batched, and the root commits interval-coalesced bulk appends.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.analytics.anomaly import ZScoreDetector
from repro.analytics.forecast import OLSForecaster
from repro.query.engine import QueryEngine
from repro.query.model import LabelMatcher, MetricQuery
from repro.sim import Engine, RngRegistry
from repro.telemetry.collector import CollectionPipeline
from repro.telemetry.metric import SeriesKey
from repro.telemetry.sampler import SamplingGroup
from repro.telemetry.sensor import SensorBank
from repro.telemetry.synthetic import SpikeSpec, SyntheticSeriesSpec, render_series
from repro.telemetry.tsdb import TimeSeriesStore


def _build_frontends(
    *,
    engine: Engine,
    pipeline: CollectionPipeline,
    rngs: RngRegistry,
    n_nodes: int,
    metrics_per_node: int,
    sample_period_s: float,
    horizon_s: float,
    jitter_std: float,
    per_sample_cost_s: float,
    anomaly_times: List[float],
    anomaly_nodes: List[int],
) -> List[SamplingGroup]:
    """Wire one sampling group per aggregator, one bank per node.

    Signals are pre-rendered on the sampling grid from per-(node,
    metric) RNG streams.
    """
    aggregators = pipeline.aggregators
    grid = np.arange(0.0, horizon_s + sample_period_s, sample_period_s)
    n_groups = len(aggregators)

    def node_signals(node_idx: int) -> np.ndarray:
        rows = []
        for metric_idx in range(metrics_per_node):
            spec = SyntheticSeriesSpec(
                base=400.0 + 20.0 * metric_idx,
                diurnal_amplitude=30.0,
                noise_std=4.0,
                ar1_coeff=0.7,
                spikes=[
                    SpikeSpec(t, magnitude=120.0, duration=120.0)
                    for t, n in zip(anomaly_times, anomaly_nodes)
                    if n == node_idx and metric_idx == 0
                ],
            )
            rows.append(
                render_series(grid, spec, rngs.fork("signal", node_idx * 100 + metric_idx))
            )
        return np.stack(rows)

    def node_keys(node_idx: int) -> List[SeriesKey]:
        return [
            SeriesKey.of(f"metric{m}", node=f"n{node_idx:03d}")
            for m in range(metrics_per_node)
        ]

    fronts: List[SamplingGroup] = []
    registry = pipeline.registry
    last_col = len(grid) - 1
    for g in range(n_groups):
        group = SamplingGroup(
            engine,
            aggregators[g],
            period=sample_period_s,
            rng=rngs.stream(f"group-{g}"),
            jitter_std=jitter_std,
            per_sample_cost_s=per_sample_cost_s,
            name=f"group-{g}",
        )
        for node_idx in range(g, n_nodes, n_groups):
            signals = node_signals(node_idx)

            def read_all(now: float, _m=signals, _p=sample_period_s) -> np.ndarray:
                return _m[:, min(last_col, int(now / _p))]

            group.add_bank(
                SensorBank(node_keys(node_idx), read_all, registry=registry)
            )
        group.start()
        fronts.append(group)
    return fronts


def run_pipeline_scenario(
    *,
    seed: int = 0,
    n_nodes: int = 64,
    metrics_per_node: int = 4,
    sample_period_s: float = 5.0,
    horizon_s: float = 3600.0,
    n_anomalies: int = 8,
    commit_interval_s: Optional[float] = None,
    watch_loops: int = 0,
) -> Dict[str, float]:
    """Run E1.  ``watch_loops`` > 0 additionally hosts that many
    per-partition autonomy loops on a
    :class:`~repro.core.runtime.LoopRuntime` over the live stream
    (in-situ ODA on the Fig. 1 pipeline) and reports their fleet
    telemetry; the fleet's Monitor/Analyze work then runs inside the
    simulated shift, so ``ingest_wall_s`` deliberately includes that
    in-situ cost — compare rows at equal ``watch_loops`` only."""
    engine = Engine()
    rngs = RngRegistry(seed=seed)
    store = TimeSeriesStore(default_capacity=int(horizon_s / sample_period_s) + 16)
    if commit_interval_s is None:
        commit_interval_s = 4.0 * sample_period_s
    pipeline = CollectionPipeline(
        engine,
        store,
        hop_latency=0.1,
        ingest_latency=0.1,
        commit_interval_s=commit_interval_s,
    )
    pipeline.build(max(1, n_nodes // 16))

    rng = rngs.stream("signals")
    anomaly_times = sorted(
        float(t) for t in rng.uniform(horizon_s * 0.2, horizon_s * 0.9, size=n_anomalies)
    )
    anomaly_nodes = [int(rng.integers(n_nodes)) for _ in anomaly_times]

    fronts = _build_frontends(
        engine=engine,
        pipeline=pipeline,
        rngs=rngs,
        n_nodes=n_nodes,
        metrics_per_node=metrics_per_node,
        sample_period_s=sample_period_s,
        horizon_s=horizon_s,
        jitter_std=0.05,
        per_sample_cost_s=1e-4,
        anomaly_times=anomaly_times,
        anomaly_nodes=anomaly_nodes,
    )
    runtime = None
    if watch_loops > 0:
        from repro.core.runtime import LoopRuntime, RuntimeConfig
        from repro.experiments.loops_exp import watch_fleet_specs

        # self-telemetry off: the E1 row's series/samples/completeness
        # metrics must keep measuring the ingest pipeline, not the fleet
        runtime = LoopRuntime(
            engine, store, config=RuntimeConfig(self_telemetry=False)
        )
        specs = watch_fleet_specs(
            "metric0",
            [f"n{i:03d}" for i in range(n_nodes)],
            watch_loops,
            period_s=60.0,
            window_s=300.0,
            threshold=480.0,  # spikes push metric0 well past its ~400 base
        )
        for spec in specs:
            spec.start_at = 300.0
        runtime.add_many(specs, start=True)

    # clock starts after signal rendering / frontend construction so
    # ingest_wall_s measures sample movement, not synthetic-data setup
    wall_t0 = time.perf_counter()
    engine.run(until=horizon_s)
    # Drain in-flight hops/commits so the tail tick is not lost to the
    # horizon cut, then force the root's coalescing buffer out.
    for front in fronts:
        front.stop()
    engine.run(until=horizon_s + pipeline.end_to_end_latency + commit_interval_s)
    pipeline.root.flush()
    ingest_wall_s = time.perf_counter() - wall_t0

    # --- Fig. 1 "visualize": downsampled dashboard queries ---------------
    dashboard = QueryEngine(store, enable_cache=False)
    panels = [
        MetricQuery(
            "metric0", agg="mean", matchers=(LabelMatcher("node", "=", f"n{node_idx:03d}"),),
            range_s=horizon_s, step_s=60.0,
        )
        for node_idx in range(min(16, n_nodes))
    ]
    t0 = time.perf_counter()
    for panel in panels:
        dashboard.query(panel, at=horizon_s)
    visualize_ms = (time.perf_counter() - t0) * 1e3

    # --- Fig. 1 "diagnose": anomaly detection over every node ------------
    t0 = time.perf_counter()
    detected: List[tuple] = []
    for node_idx in range(n_nodes):
        key = SeriesKey.of("metric0", node=f"n{node_idx:03d}")
        times, values = store.query(key, 0.0, horizon_s)
        det = ZScoreDetector(window=60, threshold=5.0)
        for anomaly in det.scan(times, values):
            detected.append((node_idx, anomaly.time))
    diagnose_ms = (time.perf_counter() - t0) * 1e3

    # detection quality vs ground truth (match within the spike window)
    truth = list(zip(anomaly_nodes, anomaly_times))
    hits = 0
    for node, t_true in truth:
        if any(n == node and t_true <= t <= t_true + 180.0 for n, t in detected):
            hits += 1
    recall = hits / len(truth) if truth else 1.0

    # --- Fig. 1 "forecast": per-node trend extrapolation ------------------
    t0 = time.perf_counter()
    for node_idx in range(min(16, n_nodes)):
        key = SeriesKey.of("metric0", node=f"n{node_idx:03d}")
        times, values = store.query(key, horizon_s - 1800.0, horizon_s)
        fc = OLSForecaster()
        for t, v in zip(times, values):
            fc.update(t, v)
    forecast_ms = (time.perf_counter() - t0) * 1e3

    # per-agent CPU overhead via the explicit accessor (agent-weighted)
    n_agents = sum(f.agent_count for f in fronts)
    overhead_cpu_frac = (
        sum(f.overhead_cpu_frac(horizon_s) * f.agent_count for f in fronts) / n_agents
    )
    expected_samples = n_nodes * metrics_per_node * (horizon_s / sample_period_s)
    watch_row: Dict[str, float] = {}
    if runtime is not None:
        runtime.stop()
        hub = runtime.hub.stats()
        watch_row = {
            "watch_loops": float(watch_loops),
            "watch_iterations": float(runtime.iterations_total),
            "watch_flags": float(
                sum(h.loop.analyzer.flags_total for h in runtime.handles.values())
            ),
            "watch_queries_executed": hub["engine_served_raw"] + hub["engine_served_rollup"],
            "watch_fused_served": hub["fused_served"],
        }
    return {
        **watch_row,
        "seed": seed,
        "n_nodes": float(n_nodes),
        "series": float(store.cardinality()),
        "samples_ingested": float(store.total_inserts),
        "ingest_rate_per_s": store.total_inserts / horizon_s,
        "ingest_wall_s": ingest_wall_s,
        "completeness": store.total_inserts / expected_samples,
        "e2e_lag_s": pipeline.end_to_end_latency,
        "visualize_ms": visualize_ms,
        "diagnose_ms": diagnose_ms,
        "forecast_ms": forecast_ms,
        "anomaly_recall": recall,
        "anomalies_detected": float(len(detected)),
        "overhead_cpu_frac": overhead_cpu_frac,
        "net_bytes_per_node_s": pipeline.total_bytes() / (n_agents * horizon_s),
    }


def run_sampling_tradeoff(
    *,
    seed: int = 0,
    n_nodes: int = 16,
    periods_s=(1.0, 5.0, 15.0, 60.0),
    horizon_s: float = 3600.0,
    event_magnitude: float = 150.0,
    event_duration_s: float = 600.0,
) -> List[Dict[str, float]]:
    """Monitoring design dial: sampling period vs. overhead vs. reaction.

    One sustained event is injected per node; for each sampling period we
    report the monitoring cost (CPU fraction, network bytes) and the
    *detection latency* — how long after onset the z-score detector first
    fires.  Slow sampling is cheap but blind; this sweep quantifies the
    knee operators must pick (a design decision Fig. 1 leaves open).
    """
    rows: List[Dict[str, float]] = []
    for period in periods_s:
        rngs = RngRegistry(seed=seed)
        engine = Engine()
        store = TimeSeriesStore(default_capacity=int(horizon_s / period) + 16)
        pipeline = CollectionPipeline(engine, store, hop_latency=0.1, ingest_latency=0.1)
        aggregators = pipeline.build(max(1, n_nodes // 16))
        rng = rngs.stream("events")
        onsets = rng.uniform(horizon_s * 0.4, horizon_s * 0.7, size=n_nodes)
        grid = np.arange(0.0, horizon_s + period, period)
        last_col = len(grid) - 1
        groups = [
            SamplingGroup(engine, agg, period=period, per_sample_cost_s=1e-4, name=f"group-{g}")
            for g, agg in enumerate(aggregators)
        ]
        for node_idx in range(n_nodes):
            spec = SyntheticSeriesSpec(
                base=400.0,
                noise_std=4.0,
                spikes=[SpikeSpec(float(onsets[node_idx]), event_magnitude, event_duration_s)],
            )
            series = render_series(grid, spec, rngs.fork("sig", node_idx))
            key = SeriesKey.of("m", node=f"n{node_idx:03d}")

            def read(now: float, _series=series, _p=period) -> np.ndarray:
                col = min(last_col, int(now / _p))
                return _series[col : col + 1]

            groups[node_idx % len(groups)].add_bank(
                SensorBank([key], read, registry=pipeline.registry)
            )
        for group in groups:
            group.start()
        engine.run(until=horizon_s)

        latencies = []
        for node_idx in range(n_nodes):
            key = SeriesKey.of("m", node=f"n{node_idx:03d}")
            times, values = store.query(key, 0.0, horizon_s)
            det = ZScoreDetector(window=max(10, int(300.0 / period)), threshold=5.0)
            onset = float(onsets[node_idx])
            for anomaly in det.scan(times, values):
                if anomaly.time >= onset:
                    latencies.append(anomaly.time - onset)
                    break
        # per-node CPU overhead, agent-weighted across the groups
        mean_cpu_frac = (
            sum(g.overhead_cpu_frac(horizon_s) * g.agent_count for g in groups) / n_nodes
        )
        rows.append(
            {
                "period_s": period,
                "detected_frac": len(latencies) / n_nodes,
                "detect_latency_s": float(np.mean(latencies)) if latencies else float("inf"),
                "overhead_cpu_frac": mean_cpu_frac,
                "net_bytes_per_node_s": pipeline.total_bytes() / (n_nodes * horizon_s),
                "samples_total": float(store.total_inserts),
            }
        )
    return rows

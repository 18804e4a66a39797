"""Property-style equivalence: columnar ingest ≡ a point-insert oracle.

For randomized scenarios (topology, periods, latencies, commit
coalescing, signal shapes — all drawn from a seeded RNG), the columnar
pipeline (SensorBank → SamplingGroup → Aggregator → Collector →
append_batch) must leave the store a test-local oracle builds with no
pipeline at all: per node, one ``engine.every`` that calls
``store.insert`` once per series.  Equality here — same series, same
timestamps, same values — pins the whole batched data path (group
scheduling, bank readout, hop coalescing, commit coalescing, lexsort
grouping and ring extends) to point-by-point semantics.
"""

import numpy as np
import pytest

from repro.sim import Engine, RngRegistry
from repro.telemetry.collector import CollectionPipeline
from repro.telemetry.metric import SeriesKey
from repro.telemetry.sampler import SamplingGroup
from repro.telemetry.sensor import SensorBank
from repro.telemetry.tsdb import TimeSeriesStore


def _scenario(seed):
    rng = RngRegistry(seed=seed).stream("scenario")
    n_nodes = int(rng.integers(1, 7))
    metrics = int(rng.integers(1, 4))
    period = float(rng.choice([1.0, 2.5, 5.0]))
    ticks = int(rng.integers(5, 40))
    cfg = {
        "n_nodes": n_nodes,
        "metrics": metrics,
        "period": period,
        "horizon": period * ticks,
        "n_groups": int(rng.integers(1, n_nodes + 1)),
        "hop_latency": float(rng.choice([0.0, 0.05, 0.2])),
        "ingest_latency": float(rng.choice([0.0, 0.1])),
        "commit_interval": float(rng.choice([0.0, 2.0, 6.0])) * period or None,
        # value table: (node, metric, tick) -> value, shared by both sides
        "table": rng.normal(100.0, 25.0, size=(n_nodes, metrics, ticks + 2)),
    }
    return cfg


def _keys(node_idx, metrics):
    return [SeriesKey.of(f"metric{m}", node=f"n{node_idx}") for m in range(metrics)]


def _tick(now, period, cfg, rounding):
    return min(cfg["table"].shape[2] - 1, rounding(now / period))


def _run_oracle(cfg, *, jitter_std=0.0, rngs=None, rounding=int):
    """Point inserts straight into the store, one periodic task per node."""
    engine = Engine()
    store = TimeSeriesStore(default_capacity=4096)
    table, period = cfg["table"], cfg["period"]
    tasks = []
    for node_idx in range(cfg["n_nodes"]):
        keys = _keys(node_idx, cfg["metrics"])

        def insert_round(_n=node_idx, _keys=keys):
            col = _tick(engine.now, period, cfg, rounding)
            for m, key in enumerate(_keys):
                store.insert(key, engine.now, float(table[_n, m, col]))

        jitter_fn = None
        if jitter_std > 0:
            rng = rngs.stream(f"j{node_idx}")

            def jitter_fn(_rng=rng):
                return float(_rng.normal(0.0, jitter_std))

        tasks.append(engine.every(period, insert_round, jitter_fn=jitter_fn))
    engine.run(until=cfg["horizon"])
    for task in tasks:
        task.stop()
    return store


def _run_columnar(cfg, *, jitter_std=0.0, rngs=None, rounding=int):
    engine = Engine()
    store = TimeSeriesStore(default_capacity=4096)
    pipeline = CollectionPipeline(
        engine,
        store,
        hop_latency=cfg["hop_latency"],
        ingest_latency=cfg["ingest_latency"],
        commit_interval_s=cfg["commit_interval"],
    )
    aggregators = pipeline.build(cfg["n_groups"])
    table, period = cfg["table"], cfg["period"]
    groups = []
    for g in range(cfg["n_groups"]):
        group = SamplingGroup(
            engine,
            aggregators[g],
            period=period,
            jitter_std=jitter_std,
            rng=rngs.stream(f"j{g}") if jitter_std > 0 else None,
        )
        for node_idx in range(g, cfg["n_nodes"], cfg["n_groups"]):
            def read_all(now, _n=node_idx):
                return table[_n, :, _tick(now, period, cfg, rounding)]

            group.add_bank(
                SensorBank(_keys(node_idx, cfg["metrics"]), read_all, registry=pipeline.registry)
            )
        groups.append(group)
    for group in groups:
        group.start()
    engine.run(until=cfg["horizon"])
    for group in groups:
        group.stop()
    engine.run(until=cfg["horizon"] + 1.0 + (cfg["commit_interval"] or 0.0))
    pipeline.root.flush()
    return store


@pytest.mark.parametrize("seed", range(25))
def test_columnar_equals_point_insert_oracle(seed):
    cfg = _scenario(seed)
    oracle = _run_oracle(cfg)
    columnar = _run_columnar(cfg)
    assert oracle.cardinality() == columnar.cardinality()
    assert oracle.total_inserts == columnar.total_inserts
    for key in oracle.series_keys():
        ot, ov = oracle.query(key, -np.inf, np.inf)
        ct, cv = columnar.query(key, -np.inf, np.inf)
        np.testing.assert_array_equal(ot, ct, err_msg=f"times diverged for {key}")
        np.testing.assert_array_equal(ov, cv, err_msg=f"values diverged for {key}")


def test_jittered_columnar_samples_oracle_values():
    """With jitter the oracle (per node) and the pipeline (per group)
    fire at different instants, so stored *timestamps* differ — but
    per-series sample counts and the sampled value sequence (index-based
    readers) must still agree."""
    cfg = _scenario(3)
    cfg.update(hop_latency=0.05, ingest_latency=0.05, commit_interval=None)
    oracle = _run_oracle(cfg, jitter_std=0.01, rngs=RngRegistry(seed=11), rounding=round)
    columnar = _run_columnar(cfg, jitter_std=0.01, rngs=RngRegistry(seed=12), rounding=round)
    assert oracle.cardinality() == columnar.cardinality()
    for key in oracle.series_keys():
        _, ov = oracle.query(key, -np.inf, np.inf)
        _, cv = columnar.query(key, -np.inf, np.inf)
        # independent jitter draws may push one side's final tick past the
        # horizon, so counts can differ by one round at the edge
        assert abs(ov.size - cv.size) <= 1, f"round counts diverged for {key}"
        n = min(ov.size, cv.size)
        np.testing.assert_array_equal(
            ov[:n], cv[:n], err_msg=f"sampled values diverged for {key}"
        )

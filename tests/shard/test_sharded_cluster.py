"""Stack wiring: a sharded cluster serves loops and queries unchanged."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.query.engine import QueryEngine
from repro.shard import ShardedTimeSeriesStore
from repro.sim import Engine


def _cluster(shards, n_nodes=12, horizon=None, seed=5):
    engine = Engine()
    cluster = Cluster(
        engine,
        ClusterConfig(n_nodes=n_nodes, shards=shards, telemetry_period_s=10.0, seed=seed),
    )
    if horizon is not None:
        engine.run(until=horizon)
    return engine, cluster


def test_cluster_builds_sharded_store_and_one_engine_over_its_places():
    _, cluster = _cluster(shards=4)
    assert isinstance(cluster.store, ShardedTimeSeriesStore)
    assert cluster.store.n_places == 4
    qe = cluster._query_engine()
    assert type(qe) is QueryEngine
    assert qe.store is cluster.store
    runtime = cluster.loop_runtime()
    assert runtime.query_engine is qe
    assert runtime.store is cluster.store


@pytest.mark.parametrize("shards", [1, 4])
def test_one_rollup_layout_per_cluster_store(shards):
    """Every engine over the store reads the store's one cascade, whatever
    the store's shape: equal layouts share the tiers (one ingest
    listener, so every sample folds once) and another layout raises
    instead of adding a second cascade."""
    _, cluster = _cluster(shards=shards)
    a = cluster._query_engine(rollup_resolutions=(60.0,))
    assert cluster._query_engine(rollup_resolutions=(60.0,)) is a  # memoized
    tiersets = cluster.store.tiersets
    b = cluster._query_engine(rollup_resolutions=(60.0,), enable_cache=False)
    assert b is not a
    assert cluster.store.tiersets is tiersets
    assert b.tiersets is a.tiersets is tiersets
    assert len(tiersets) == 1
    assert len(cluster.store._listeners) == 1
    with pytest.raises(RuntimeError, match="different layout"):
        cluster._query_engine(rollup_resolutions=(10.0, 60.0))
    assert cluster._query_engine().tiersets is tiersets


def test_single_shard_config_keeps_plain_store():
    _, cluster = _cluster(shards=1)
    assert not isinstance(cluster.store, ShardedTimeSeriesStore)
    qe = cluster._query_engine()
    assert type(qe) is QueryEngine
    assert cluster.store.n_places == 1


def test_collector_routes_telemetry_across_shards():
    engine, cluster = _cluster(shards=4, horizon=300.0)
    # every node's sensors committed through the routed batch path
    cards = cluster.store.shard_cardinalities()
    assert sum(cards) == cluster.store.cardinality() > 0
    assert sum(1 for c in cards if c > 0) >= 2  # routing actually spread keys
    res = cluster._query_engine().query(
        "mean(node_cpu_util[120s]) group by (node)", at=engine.now
    )
    assert len(res.series) == len(cluster.nodes)
    assert res.source == "raw"


def test_sharded_and_unsharded_clusters_store_identical_telemetry():
    engine_a, plain = _cluster(shards=1, horizon=400.0)
    engine_b, sharded = _cluster(shards=4, horizon=400.0)
    keys = plain.store.series_keys()
    assert keys == sharded.store.series_keys()
    for key in keys:
        ta, va = plain.store.query(key, -np.inf, np.inf)
        tb, vb = sharded.store.query(key, -np.inf, np.inf)
        assert np.array_equal(ta, tb)
        assert np.array_equal(va, vb)


def test_loop_runtime_monitors_read_through_federation():
    from repro.experiments.loops_exp import watch_fleet_specs

    engine, cluster = _cluster(shards=4, n_nodes=8)
    runtime = cluster.loop_runtime()
    specs = watch_fleet_specs(
        "node_cpu_util", cluster.node_ids(), 8,
        period_s=60.0, window_s=300.0, threshold=0.5,
    )
    for spec in specs:
        spec.start_at = 120.0
    runtime.add_many(specs, start=True)
    engine.run(until=600.0)
    runtime.stop()
    stats = runtime.stats()
    assert stats["iterations_total"] > 0
    assert stats["hub_fused_served"] > 0  # fusion layered over federation
    assert stats["hub_engine_federated_queries"] > 0
    # self-telemetry round-trips through the sharded store
    val = runtime.query_engine.scalar("mean(loop_iteration_ms)", at=engine.now)
    assert val is not None and val >= 0.0

"""Folding exactly on a bin boundary, behind a collection pipeline.

A fold at ``T`` closes every bin ending at or before ``T``.  Samples are
stamped when they are read but commit one pipeline latency later, so
with sampling jitter a sample stamped just *before* ``T`` commits just
*after* the fold that closed its bin: it is late, counted in
``late_samples_dropped`` and never folded, and a rollup-served answer
then disagrees with the raw ring.  ``attach_rollups(..., start_at=``
pipeline latency``)`` makes every fold trail its boundary by exactly that
latency; nothing is late and the tiers answer like the reference
evaluator.  (``bench/README.md`` reports the hazard; this pins it.)
"""

import numpy as np

from repro.query.reference import evaluate_naive
from repro.query import QueryEngine
from repro.shard import ShardedTimeSeriesStore
from repro.sim import Engine
from repro.telemetry.collector import CollectionPipeline
from repro.telemetry.metric import SeriesKey
from repro.telemetry.sampler import SamplingGroup
from repro.telemetry.sensor import SensorBank

PERIOD_S = 10.0
HORIZON_S = 250.0
#: whole 60 s bins, all closed and folded by the end of the run
QUERIES = (
    "count(m[180s] by 60s) group by (node)",
    "sum(m[180s] by 60s)",
    "mean(m[180s] by 10s) group by (node)",
)
AT = 240.0


def streamed(start_at_of):
    """Run jittered groups through 0.2 s of hops under a 10/60 s cascade;
    ``start_at_of(pipeline)`` picks the fold phase."""
    sim = Engine()
    store = ShardedTimeSeriesStore(n_shards=2, default_capacity=256)
    engine = QueryEngine.with_rollups(
        store, resolutions=(10.0, 60.0), enable_cache=False
    )
    pipeline = CollectionPipeline(sim, store, hop_latency=0.1, ingest_latency=0.1)
    for g, agg in enumerate(pipeline.build(2)):
        keys = [SeriesKey.of("m", node=f"n{g}{i}") for i in range(3)]
        base = np.arange(1.0, 4.0) + 10.0 * g
        group = SamplingGroup(
            sim, agg, period=PERIOD_S, jitter_std=0.05,
            rng=np.random.default_rng([7, g]), name=f"grp-{g}",
        )
        group.add_bank(
            SensorBank(
                keys, lambda now, _b=base: _b + np.sin(now / 40.0), registry=pipeline.registry
            )
        )
        group.start()
    engine.attach_rollups(sim, start_at=start_at_of(pipeline))
    sim.run(until=HORIZON_S)
    late = sum(m.late_samples_dropped for m in engine.tiersets)
    return store, engine, late


def answers_match(store, engine) -> bool:
    ok = True
    for expr in QUERIES:
        got = engine.query(expr, at=AT)
        assert "rollup" in got.source, got.source
        want = evaluate_naive(store, expr, at=AT)
        assert [s.labels for s in got.series] == [s.labels for s in want.series]
        for a, b in zip(got.series, want.series):
            ok &= a.times.shape == b.times.shape and bool(
                np.allclose(a.times, b.times, rtol=0.0, atol=1e-9)
                and np.allclose(a.values, b.values, rtol=1e-9, atol=1e-9)
            )
    return ok


def test_fold_on_the_bin_boundary_drops_in_flight_samples():
    store, engine, late = streamed(lambda pipeline: None)  # the default phase
    assert late > 0
    assert not answers_match(store, engine)


def test_fold_trailing_the_boundary_by_the_pipeline_latency_is_exact():
    store, engine, late = streamed(lambda pipeline: pipeline.end_to_end_latency)
    assert late == 0
    assert answers_match(store, engine)

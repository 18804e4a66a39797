"""Workload ``ingest_stream`` — writes only, over the worker pool.

Jittered sampling groups stream into ``ParallelShardContext`` (shared
memory shard columns, a persistent worker pool, a 10/60/600 s rollup
cascade folded from the simulation clock) with one standing shape
registered.  No loops and no reads: ``telemetry`` commit, the
``shard.parallel`` append / fold dispatch and the ``query.rollup`` fold
do all the work, ``core`` and ``serve`` none — the mirror image of
``fleet_act``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from bench_common import (
    Checks, HostSpeed, leak_check, median, pct, peak_rss_mb, same_series, setup_repeated, shard_skew,
    shm_blocks, thread_idents,
)
from bench_trace import Recorder, classify_event, layer_busy, wrap_dispatch

SAMPLE_PERIOD_S = 10.0
JITTER_STD_S = 0.05
RESOLUTIONS = (10.0, 60.0, 600.0)
METRICS = ("node_cpu_util", "node_power_watts", "node_mem_used", "node_net_rx")
STANDING_SHAPE = "mean(node_cpu_util[300s] by 30s) group by (node)"
WARM_SIM_S = 30.0
#: folds run this long after each bin boundary.  Folding exactly on the
#: boundary drops samples stamped just before it that are still in the
#: pipeline (0.2 s of hops; jitter puts samples there) — they are counted
#: as late and the rollup answer then differs from the raw one.
FOLD_DELAY_S = 1.0
#: one slice = one fold of the 60 s tier; throughput is that of the
#: lower-quartile slice time (the host only ever slows a slice down)
SLICE_SIM_S = 60.0
#: simulated seconds of timed horizon per requested wall second (frozen
#: at about the seed commit's rate on the 2-core reference host)
SIM_S_PER_SECOND = 48.0

SHAPE = dict(groups=16, nodes_per_group=64, shards=4, workers=2)
SMOKE_SHAPE = dict(groups=4, nodes_per_group=4, shards=2, workers=2)


class Stream:
    def __init__(self, seed: int, shape: Dict[str, int], timed_sim_s: float,
                 rec: Optional[Recorder]) -> None:
        from repro.query.standing import StandingQueryEngine
        from repro.shard.parallel import ParallelShardContext
        from repro.sim import Engine
        from repro.telemetry.collector import CollectionPipeline
        from repro.telemetry.metric import SeriesKey
        from repro.telemetry.sampler import SamplingGroup
        from repro.telemetry.sensor import SensorBank

        self.t_start = WARM_SIM_S
        self.t_end = WARM_SIM_S + timed_sim_s
        rng = np.random.default_rng(seed)
        rounds = int(self.t_end / SAMPLE_PERIOD_S) + 64
        ctx = self.ctx = ParallelShardContext(
            shards=shape["shards"], workers=shape["workers"], capacity=rounds,
            rollup_resolutions=RESOLUTIONS, tier_capacity=rounds,
        )
        engine = self.engine = Engine()
        store = self.store = ctx.store
        #: end (``perf_counter``) and wall seconds of every
        #: ``store.append_batch`` (listeners included)
        self.commit_ends: List[float] = []
        self.commit_walls: List[float] = []
        self.commit_sizes: List[int] = []
        if rec is not None:
            wrap_dispatch(rec, store.pool)
            rec.wrap(store, "append_batch", "store.append_batch")
            rec.wrap(ctx.engine, "fold_rollups", "fold_rollups")
            rec.hook_events(engine, classify_event)
        self._time_commits()
        pipeline = self.pipeline = CollectionPipeline(
            engine, store, hop_latency=0.1, ingest_latency=0.1
        )
        self.groups = []
        per_group = shape["nodes_per_group"]
        for g, agg in enumerate(pipeline.build(shape["groups"])):
            keys = [
                SeriesKey.of(metric, node=f"n{g * per_group + i:05d}")
                for i in range(per_group)
                for metric in METRICS
            ]
            base = rng.uniform(0.2, 0.8, size=len(keys))
            group = SamplingGroup(
                engine, agg, period=SAMPLE_PERIOD_S, jitter_std=JITTER_STD_S,
                rng=np.random.default_rng([seed, g]), name=f"grp-{g}",
            )
            group.add_bank(
                SensorBank(
                    keys,
                    lambda now, _b=base: _b + 0.1 * np.sin(now / 150.0 + _b * 7.0),
                    registry=pipeline.registry,
                )
            )
            group.start()
            self.groups.append(group)
        ctx.engine.attach_rollups(engine, start_at=FOLD_DELAY_S)
        self.standing = StandingQueryEngine(ctx.engine)
        if not self.standing.register(STANDING_SHAPE):
            raise RuntimeError("standing shape was not registered")

    def _time_commits(self) -> None:
        inner, ends, walls, sizes = (
            self.store.append_batch, self.commit_ends, self.commit_walls, self.commit_sizes
        )

        def append_batch(series_ids, times, values):
            t0 = time.perf_counter()
            inner(series_ids, times, values)
            t1 = time.perf_counter()
            ends.append(t1)
            walls.append(t1 - t0)
            sizes.append(len(series_ids))

        self.store.append_batch = append_batch

    def close(self) -> None:
        self.ctx.close()

    def counters(self) -> Dict[str, float]:
        stats = self.ctx.engine.stats()
        return {
            "events": float(self.engine.events_executed),
            "rounds": float(sum(g.rounds for g in self.groups)),
            "emitted": float(sum(g.samples_emitted for g in self.groups)),
            "commits": float(self.pipeline.root.commits),
            "ingested": float(self.pipeline.root.samples_ingested),
            "dropped": float(
                self.pipeline.total_dropped_samples()
                + sum(g.samples_dropped for g in self.groups)
            ),
            "fold_rows": sum(v for k, v in stats.items() if k.startswith("rollup_tier_")),
            "dispatches": stats["pool_dispatches"],
            "serial_fallbacks": stats["serial_fallbacks"] + float(self.store.serial_appends),
            "respawns": stats["pool_respawns_total"],
            "late": float(sum(ts.late_dropped for ts in self.store.tiersets)),
        }


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> Dict[str, object]:
    shape = SMOKE_SHAPE if smoke else SHAPE
    slices = max(3, int(round(seconds * SIM_S_PER_SECOND / SLICE_SIM_S)))
    timed_sim_s = slices * SLICE_SIM_S
    rec = Recorder() if trace else None
    shm_before, threads_before = shm_blocks(), thread_idents()

    def build() -> Stream:
        stream = Stream(seed, shape, timed_sim_s, rec)
        stream.engine.run(until=stream.t_start)
        return stream

    speed = HostSpeed()
    stream, setup_s = setup_repeated(build, 1 if smoke else 3, speed, close=Stream.close)
    checks = Checks()
    try:
        if rec is not None:
            rec.enabled = True
        del stream.commit_ends[:], stream.commit_walls[:], stream.commit_sizes[:]
        before = stream.counters()
        # a speed reading after every sampling round; a slice is six rounds
        step = SLICE_SIM_S / 6.0
        starts, walls, factors = speed.segments(
            slices * 6, lambda k: stream.engine.run(until=stream.t_start + (k + 1) * step)
        )
        slice_walls = walls.reshape(slices, 6).sum(axis=1)
        slice_walls_ref = (walls * factors).reshape(slices, 6).sum(axis=1)
        wall = float(walls.sum())
        if rec is not None:
            rec.close_events()
            rec.enabled = False
        commit_ms = np.asarray(stream.commit_walls) * 1e3
        # each commit at reference speed, by the slice it fell in
        commit_ref_ms = commit_ms * factors[np.searchsorted(starts, stream.commit_ends) - 1]
        commit_sizes = list(stream.commit_sizes)
        delta = {k: v - before[k] for k, v in stream.counters().items()}
        samples_per_slice = delta["ingested"] / slices

        # ---- drain, then check: nothing lost, answers equal the reference
        for group in stream.groups:
            group.stop()
        stream.engine.run(until=stream.t_end + 1.0)
        stream.pipeline.root.flush()
        total = stream.counters()
        checks.check("committed_equals_emitted_minus_dropped",
                     total["ingested"] == total["emitted"] - total["dropped"]
                     and stream.store.total_inserts == total["ingested"],
                     f"{total['ingested']} vs {total['emitted']} - {total['dropped']}")
        checks.check("no_late_samples_at_fold", total["late"] == 0.0, f"{total['late']}")
        checks.check("pool_stayed_up", delta["serial_fallbacks"] == 0.0 and delta["respawns"] == 0.0)
        _check_answers(stream, seed, checks)
        rss = peak_rss_mb()
    finally:
        stream.close()
    leak_check(checks, shm_before, threads_before)

    result: Dict[str, object] = {
        "attempted": int(total["emitted"]),
        "failed": int(total["emitted"] - total["ingested"]),
        "wall_s": wall,
        "samples": {"commits": int(commit_ms.size), "slices": slices,
                    "samples_committed": int(delta["ingested"])},
        "end_to_end": {
            "setup_s": setup_s,
            "latency_ms_p50": median(commit_ref_ms),
            "throughput_per_s": samples_per_slice / pct(slice_walls_ref, 25.0),
            "peak_rss_mb": rss,
        },
        "host_speed_factor": median(speed.factors),
        "named": {
            "ingest_samples_per_s": samples_per_slice / pct(slice_walls, 25.0),
            "commit_ms_p50": median(commit_ms),
            "commit_ms_p95": pct(commit_ms, 95.0),
        },
        "checks": checks,
    }
    if rec is not None:
        folds = rec.durations("fold_rollups")
        layers = layer_busy(rec)
        layers["sim.other_busy_s"] = layers.get("sim.other_busy_s", 0.0) + max(
            0.0, wall - sum(layers.values())
        )
        layers.update({
            "telemetry.sample_rounds": delta["rounds"],
            "telemetry.commits": delta["commits"],
            "telemetry.commit_batch_p50": median(commit_sizes),
            "telemetry.samples_dropped": delta["dropped"],
            "shard.append_samples": delta["ingested"],
            "shard.append_ms_p95": pct(commit_ms, 95.0),
            "shard.skew": shard_skew(stream.store),
            "shard.pool_dispatches": delta["dispatches"],
            "shard.pool_serial_fallbacks": delta["serial_fallbacks"],
            "shard.pool_respawns": delta["respawns"],
            "query.fold_calls": float(len(folds)),
            "query.fold_ms_p95": pct(folds, 95.0) * 1e3,
            "query.fold_rows": delta["fold_rows"],
            "sim.events": delta["events"],
            "latency_ms_p95": pct(commit_ms, 95.0),
        })
        result["per_layer"] = layers
        result["recorder"] = rec
    return result


def _check_answers(stream: Stream, seed: int, checks: Checks) -> None:
    """Sampled raw, rollup-stitched and standing answers against the
    sample-by-sample reference evaluator (closed bins only: the last
    round before ``at`` has been committed and folded)."""
    from repro.query.reference import evaluate_naive

    rng = np.random.default_rng(seed + 1)
    engine, store = stream.ctx.engine, stream.store
    at = stream.t_end - SAMPLE_PERIOD_S
    nodes = sorted({key.label("node") for key in store.series_keys(METRICS[0])})
    probes = []
    for _ in range(3):
        pick = "|".join(rng.choice(nodes, size=min(3, len(nodes)), replace=False))
        probes.append((f'p95({METRICS[1]}{{node=~"{pick}"}}[120s] by 30s) group by (node)', "raw"))
        probes.append((f'mean({METRICS[2]}{{node=~"{pick}"}}[240s] by 60s)', "rollup"))
    for expr, want_source in probes:
        got = engine.query(expr, at=at)
        checks.check(f"{want_source}_served_from_{want_source}", want_source in got.source, got.source)
        checks.check(f"{want_source}_equals_reference",
                     same_series(got, evaluate_naive(store, expr, at=at), exact=False), expr)
    got = stream.standing.query(engine.parse(STANDING_SHAPE), at=at)
    checks.check("standing_served", got is not None)
    if got is not None:
        checks.check("standing_equals_reference",
                     same_series(got, evaluate_naive(store, STANDING_SHAPE, at=at), exact=False))


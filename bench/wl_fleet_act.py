"""Workload ``fleet_act`` — the paper's loop, sample to action.

A benchmark-built pipeline puts every layer on one blocking path:
``SamplingGroup`` -> aggregator hop -> root collector ->
``ShardedTimeSeriesStore`` -> ``FederatedQueryEngine`` -> ``LoopRuntime``
(standing queries on) hosting a fleet of acting loops plus the health and
fusion supervisors.  Step faults are injected into the benchmark's own
sensor readers at seeded simulated times; the loop that watches the
faulty node must act on it, and the action clears the fault (closed
loop: the simulation drives itself).

The **tuning** supervisor is left out on purpose: it feeds host
``wall_ms`` into period retunes, so with it the same seed gave different
iteration counts from run to run and no action digest could be compared.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from bench_common import (
    Checks, HostSpeed, digest, leak_check, median, pct, peak_rss_mb, ratio, same_series, setup_repeated,
    shard_skew, shm_blocks, thread_idents,
)
from bench_trace import Recorder, classify_event, layer_busy, wrap_listeners

METRIC = "node_cpu_util"
SAMPLE_PERIOD_S = 10.0
LOOP_PERIOD_S = 30.0
WINDOW_S = 300.0
STEP_S = 30.0
ANALYZE_S = 1.0
#: loops tick this long after a sampling round, never together with one:
#: the open bin a monitor reads then holds exactly the newest sample, every
#: fault is seen on the first tick after its first faulty sample, and the
#: host time from sample to action spans one tick of the fleet for every
#: fault (a two-mode latency would make its median jump between modes)
TICK_OFFSET_S = 5.0
HOT = 1.0
THRESHOLD = 0.75
#: the timed section starts (and every slice ends) just after a fleet
#: tick has executed its actions, when no fault is between sample and
#: action: each fault's host latency then lies inside one slice
WARM_SIM_S = 157.0
#: one slice = one supervisor period: two fleet ticks, six sampling rounds;
#: ``sim_rate`` is that of the lower-quartile slice time — the host only
#: ever slows a slice down, so the faster quarter is what the code does
SLICE_SIM_S = 60.0
#: simulated seconds of timed horizon per requested wall second — frozen
#: at about the seed commit's ``sim_rate`` on the 2-core reference host,
#: so the work per run is fixed and a faster program finishes sooner
SIM_S_PER_SECOND = 240.0
#: one fault per this many simulated seconds of timed horizon
FAULT_EVERY_SIM_S = 8.0

SHAPE = dict(groups=8, series_per_group=512, nodes_per_loop=16, shards=4)
SMOKE_SHAPE = dict(groups=2, series_per_group=32, nodes_per_loop=8, shards=2)

class Fleet:
    """The benchmark-built system plus the fault book-keeping."""

    def __init__(self, seed: int, shape: Dict[str, int], timed_sim_s: float,
                 rec: Optional[Recorder]) -> None:
        from repro.core.component import Analyzer, Executor, Planner
        from repro.core.loop import PhaseLatency
        from repro.core.runtime import LoopRuntime, LoopSpec, MonitorQuery, RuntimeConfig
        from repro.core.supervisor import SupervisorConfig, attach_supervisors
        from repro.core.types import Action, AnalysisReport, ExecutionResult, Observation, Plan, Symptom
        from repro.query.reference import evaluate_naive
        from repro.shard import FederatedQueryEngine, ShardedTimeSeriesStore
        from repro.sim import Engine
        from repro.telemetry.collector import CollectionPipeline
        from repro.telemetry.metric import SeriesKey
        from repro.telemetry.sampler import SamplingGroup
        from repro.telemetry.sensor import SensorBank

        self.rec = rec
        rng = np.random.default_rng(seed)
        n_groups, per_group = shape["groups"], shape["series_per_group"]
        n_nodes = n_groups * per_group
        self.node_ids = [f"n{i:05d}" for i in range(n_nodes)]
        self.t_start = WARM_SIM_S
        self.t_end = WARM_SIM_S + timed_sim_s

        # ---- generated inputs: base load and the fault schedule
        self.base = rng.uniform(0.2, 0.5, size=n_nodes)
        n_faults = max(4, int(timed_sim_s / FAULT_EVERY_SIM_S))
        faulty = rng.choice(n_nodes, size=min(n_faults, n_nodes), replace=False)
        self.fault_at = np.full(n_nodes, np.inf)
        self.fault_at[faulty] = np.sort(
            rng.uniform(self.t_start + 10.0, self.t_end - 100.0, size=faulty.size)
        )
        self.faulty = faulty
        self.cleared = np.zeros(n_nodes, dtype=bool)
        nan = np.full(n_nodes, np.nan)
        self.sample_sim, self.sample_wall = nan.copy(), nan.copy()
        self.commit_sim, self.commit_wall = nan.copy(), nan.copy()
        self.observe_sim, self.observe_wall = nan.copy(), nan.copy()
        self.execute_sim, self.execute_wall = nan.copy(), nan.copy()
        self.bad_actions = 0
        self.actions: List[tuple] = []
        self.loop_wall_ms: List[float] = []
        self._observed_wall: Dict[str, float] = {}
        #: check phase: loops whose monitor answer is compared with the
        #: reference evaluator, and the ``(at, equal)`` outcomes
        self.check_loops: set = set()
        self.sampled_answers: List[tuple] = []

        # ---- the system under test, built from public pieces
        engine = self.engine = Engine()
        capacity = int(self.t_end / SAMPLE_PERIOD_S) + 64
        store = self.store = ShardedTimeSeriesStore(shape["shards"], default_capacity=capacity)
        if rec is not None:
            wrap_listeners(rec, store.shards)
            rec.wrap(store, "append_batch", "store.append_batch")
            rec.wrap(store, "insert", "store.insert")
        pipeline = self.pipeline = CollectionPipeline(
            engine, store, hop_latency=0.1, ingest_latency=0.1
        )
        aggregators = pipeline.build(n_groups)
        self.groups = []
        for g, agg in enumerate(aggregators):
            lo, hi = g * per_group, (g + 1) * per_group
            group = SamplingGroup(engine, agg, period=SAMPLE_PERIOD_S, name=f"grp-{g}")
            group.add_bank(
                SensorBank(
                    [SeriesKey.of(METRIC, node=n) for n in self.node_ids[lo:hi]],
                    self._reader(lo, hi),
                    registry=pipeline.registry,
                )
            )
            group.start()
            self.groups.append(group)
        self.gid_of_node = store.registry.ids_for(
            [SeriesKey.of(METRIC, node=n) for n in self.node_ids]
        )
        self.node_of_gid = np.full(int(self.gid_of_node.max()) + 1, -1, dtype=np.int64)
        self.node_of_gid[self.gid_of_node] = np.arange(n_nodes)

        query_engine = self.query_engine = FederatedQueryEngine(store)
        runtime = self.runtime = LoopRuntime(
            engine, query_engine=query_engine, config=RuntimeConfig(standing_queries=True)
        )
        if rec is not None:
            rec.wrap(query_engine, "query", "engine.query")
            rec.wrap(runtime.hub, "query", "hub.query")
            rec.wrap(runtime.hub.standing, "query", "standing.query")
            rec.wrap(runtime.arbiter, "resolve", "arbiter.resolve")
            rec.hook_events(engine, classify_event)

        fleet = self

        class HotNodeAnalyzer(Analyzer):
            name = "hot-node-analyzer"

            def analyze(self, observation, knowledge):
                symptoms = tuple(
                    Symptom(f"hot:{key[5:]}", min(1.0, value))
                    for key, value in observation.values.items()
                    if value > THRESHOLD
                )
                return AnalysisReport(observation.time, self.name, symptoms)

        class DrainPlanner(Planner):
            name = "drain-planner"

            def plan(self, report, knowledge):
                return Plan(
                    report.time,
                    self.name,
                    tuple(Action("drain_node", s.name[4:]) for s in report.symptoms),
                )

        class ClearingExecutor(Executor):
            name = "clearing-executor"

            def __init__(self, loop: str) -> None:
                self.loop = loop

            def execute(self, plan, knowledge):
                now, wall = engine.now, time.perf_counter()
                results = []
                for action in plan.actions:
                    node = int(action.target[1:])
                    fleet.actions.append((now, self.loop, action.kind, action.target))
                    if fleet.fault_at[node] <= now and not fleet.cleared[node]:
                        fleet.cleared[node] = True
                        fleet.execute_sim[node], fleet.execute_wall[node] = now, wall
                        fleet.observe_wall[node] = fleet._observed_wall[self.loop]
                    else:  # healthy node, or a second action on one fault
                        fleet.bad_actions += 1
                    results.append(ExecutionResult(action, now, honored=True))
                return results

        def traced(component, method: str, name: str):
            if rec is not None:
                rec.wrap(component, method, name)
            return component

        n_loops = n_nodes // shape["nodes_per_loop"]
        specs = []
        for i, part in enumerate(np.array_split(np.asarray(self.node_ids, dtype=object), n_loops)):
            name = f"act-{i:04d}"
            expr = (
                f'mean({METRIC}{{node=~"{"|".join(part)}"}}[{WINDOW_S:g}s] by {STEP_S:g}s) '
                "group by (node)"
            )

            def build(now, inputs, _name=name):
                result = inputs["util"]
                values = {
                    f"util:{s.label('node')}": float(s.values[-1])
                    for s in result.series
                    if s.values.size
                }
                if not values:
                    return None
                fleet._observed_wall[_name] = time.perf_counter()
                if _name in fleet.check_loops:
                    # compare on the spot: the window's last bin is still
                    # open, and later samples would land in it
                    want = evaluate_naive(store, result.query, at=now)
                    fleet.sampled_answers.append((now, same_series(result, want, exact=False)))
                return Observation(now, _name, values=values)

            specs.append(
                LoopSpec(
                    name=name,
                    queries=(MonitorQuery("util", expr),),
                    build_observation=build,
                    analyzer_factory=lambda: traced(HotNodeAnalyzer(), "analyze", "analyze"),
                    planner_factory=lambda: traced(DrainPlanner(), "plan", "plan"),
                    executor_factory=lambda _n=name: traced(
                        ClearingExecutor(_n), "execute", "execute"
                    ),
                    period_s=LOOP_PERIOD_S,
                    start_at=LOOP_PERIOD_S + TICK_OFFSET_S,
                    phase_latency=PhaseLatency(analyze_s=ANALYZE_S),
                    on_iteration=self._on_iteration,
                )
            )
        self.handles = runtime.add_many(specs, start=True)
        if rec is not None:
            for handle in self.handles:
                rec.wrap(handle.loop.monitor, "observe", "monitor")
        attach_supervisors(
            runtime,
            SupervisorConfig(
                period_s=60.0,
                window_s=WINDOW_S,
                heartbeat_step_s=LOOP_PERIOD_S,
                staleness_bound_s=3.0 * LOOP_PERIOD_S,
            ),
            kinds=("health", "fusion"),
        )

    # ------------------------------------------------------------- plumbing
    def _reader(self, lo: int, hi: int):
        base, fault_at, cleared = self.base[lo:hi], self.fault_at[lo:hi], self.cleared[lo:hi]
        sample_sim, sample_wall = self.sample_sim[lo:hi], self.sample_wall[lo:hi]

        def read(now: float) -> np.ndarray:
            hot = (fault_at <= now) & ~cleared
            if hot.any():
                fresh = hot & np.isnan(sample_sim)
                if fresh.any():  # the first sample that shows the fault
                    sample_sim[fresh] = now
                    sample_wall[fresh] = time.perf_counter()
                return np.where(hot, HOT, base)
            return base

        return read

    def _on_iteration(self, iteration) -> None:
        if self.rec is not None and self.rec.enabled:
            self.loop_wall_ms.append(iteration.wall_ms)
        if iteration.t_execute is not None:
            for result in iteration.results:
                node = int(result.action.target[1:])
                if self.execute_sim[node] == iteration.t_execute:
                    self.observe_sim[node] = iteration.t_observation

    def stamp_commits(self) -> None:
        """Traced run: find the ``append_batch`` that carried each
        fault's first faulty sample (stamped after the call returns)."""
        store, inner = self.store, self.store.append_batch
        node_of_gid, sample_sim = self.node_of_gid, self.sample_sim
        commit_sim, commit_wall = self.commit_sim, self.commit_wall
        engine = self.engine
        self.commit_sizes: List[int] = []

        def append_batch(series_ids, times, values):
            inner(series_ids, times, values)
            self.commit_sizes.append(len(series_ids))
            nodes = node_of_gid[series_ids]
            carried = nodes[(times == sample_sim[nodes]) & np.isnan(commit_sim[nodes])]
            if carried.size:
                commit_sim[carried] = engine.now
                commit_wall[carried] = time.perf_counter()

        store.append_batch = append_batch

    def counters(self) -> Dict[str, float]:
        hub = self.runtime.hub.stats()
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
            "iterations": float(self.runtime.iterations_total),
            "restarts": float(self.runtime.restarts_total),
            "hub_queries": hub["fused_served"] + hub["direct_served"] + hub["standing_served"],
            "standing_reads": hub.get("standing_reads_served", 0.0),
            "standing_hits": hub.get("standing_snapshot_hits", 0.0),
            "standing_fallbacks": hub.get("standing_scan_fallbacks", 0.0),
            "standing_updates": hub.get("standing_updates_applied", 0.0),
            "engine_queries": hub["engine_queries_total"],
            "cache_hits": hub.get("engine_cache_hits", 0.0),
            "cache_misses": hub.get("engine_cache_misses", 0.0),
            "fanout": hub.get("engine_fanout_total", 0.0),
            "federated": hub.get("engine_federated_queries", 0.0),
            "vetoes": self.runtime.arbiter.stats()["vetoes_total"],
        }


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> Dict[str, object]:
    shape = SMOKE_SHAPE if smoke else SHAPE
    slices = max(5, int(round(seconds * SIM_S_PER_SECOND / SLICE_SIM_S)))
    timed_sim_s = slices * SLICE_SIM_S
    rec = Recorder() if trace else None
    threads_before = thread_idents()

    def build() -> Fleet:
        fleet = Fleet(seed, shape, timed_sim_s, rec)
        fleet.engine.run(until=fleet.t_start)
        return fleet

    speed = HostSpeed()
    fleet, setup_s = setup_repeated(build, 1 if smoke else 3, speed)
    if rec is not None:
        fleet.stamp_commits()
        rec.enabled = True

    before = fleet.counters()
    starts, slice_walls, factors = speed.segments(
        slices, lambda k: fleet.engine.run(until=fleet.t_start + (k + 1) * SLICE_SIM_S)
    )
    wall = float(slice_walls.sum())
    if rec is not None:
        rec.close_events()
        rec.enabled = False
    delta = {k: v - before[k] for k, v in fleet.counters().items()}

    # ---- check phase, outside the timed section: one more tick on which
    # sampled monitor answers are compared with the reference evaluator
    checks = Checks()
    pick = np.random.default_rng(seed + 1).choice(len(fleet.handles), size=4, replace=False)
    fleet.check_loops = {fleet.handles[i].spec.name for i in pick}
    fleet.engine.run(until=fleet.t_end + LOOP_PERIOD_S + ANALYZE_S + 0.5)
    checks.check("monitor_answers_sampled", len(fleet.sampled_answers) >= len(pick))
    for at, equal in fleet.sampled_answers:
        checks.check("monitor_equals_reference", equal, f"at={at}")

    faulty = fleet.faulty
    acted = ~np.isnan(fleet.execute_sim[faulty])
    missed = int((~acted).sum())
    checks.check("every_fault_acted_once", missed == 0 and fleet.bad_actions == 0,
                 f"missed={missed} bad={fleet.bad_actions}")
    checks.check("no_samples_dropped", delta["dropped"] == 0.0)
    leak_check(checks, shm_blocks(), threads_before)
    done = faulty[acted]
    s2a_sim = fleet.execute_sim[done] - fleet.sample_sim[done]
    s2a_wall_ms = (fleet.execute_wall[done] - fleet.sample_wall[done]) * 1e3
    # each fault's latency at reference speed, by the slice it fell in
    s2a_ref_ms = s2a_wall_ms * factors[np.searchsorted(starts, fleet.execute_wall[done]) - 1]

    result: Dict[str, object] = {
        "attempted": int(faulty.size),
        "failed": missed + fleet.bad_actions,
        "wall_s": wall,
        "samples": {"faults": int(done.size), "slices": slices,
                    "loop_iterations": int(delta["iterations"])},
        "action_digest": digest(fleet.actions),
        "end_to_end": {
            "setup_s": setup_s,
            "latency_ms_p50": median(s2a_ref_ms),
            "throughput_per_s": SLICE_SIM_S / pct(slice_walls * factors, 25.0),
            "peak_rss_mb": peak_rss_mb(),
        },
        "host_speed_factor": median(speed.factors),
        "named": {
            "s2a_wall_ms_p50": median(s2a_wall_ms),
            "s2a_wall_ms_p95": pct(s2a_wall_ms, 95.0),
            "sim_rate": SLICE_SIM_S / pct(slice_walls, 25.0),
            "s2a_sim_s_p50": median(s2a_sim),
            "s2a_sim_s_p95": pct(s2a_sim, 95.0),
        },
        "checks": checks,
    }
    if rec is not None:
        result["per_layer"] = _per_layer(fleet, rec, delta, wall, done, s2a_sim, s2a_wall_ms, checks)
        result["recorder"] = rec
    return result


def _per_layer(fleet, rec, delta, wall, done, s2a_sim, s2a_wall_ms, checks) -> Dict[str, float]:
    out = layer_busy(rec)
    # time outside every event span: the engine's own queue handling
    out["sim.other_busy_s"] = out.get("sim.other_busy_s", 0.0) + max(0.0, wall - sum(out.values()))
    standing_total = delta["standing_reads"] + delta["standing_hits"]
    out.update({
        "telemetry.sample_rounds": delta["rounds"],
        "telemetry.commits": delta["commits"],
        "telemetry.commit_batch_p50": median(fleet.commit_sizes),
        "telemetry.samples_dropped": delta["dropped"],
        "shard.append_samples": delta["ingested"],
        "shard.append_ms_p95": pct(rec.durations("store.append_batch"), 95.0) * 1e3,
        "shard.inserts": float(len(rec.durations("store.insert"))),
        "shard.scatter_calls": delta["federated"],
        "shard.fanout": ratio(delta["fanout"], delta["federated"]),
        "shard.skew": shard_skew(fleet.store),
        "query.standing_updates": delta["standing_updates"],
        "query.standing_reads": delta["standing_reads"],
        "query.standing_fallbacks": delta["standing_fallbacks"],
        "query.standing_snapshot_hit_ratio": ratio(delta["standing_hits"], standing_total),
        "query.engine_calls": float(len(rec.durations("engine.query"))),
        "query.engine_ms_p95": pct(rec.durations("engine.query"), 95.0) * 1e3,
        "query.cache_hit_ratio": ratio(delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]),
        "core.hub_queries": delta["hub_queries"],
        # share of hub reads answered from a result another loop's read
        # of the same tick already produced (snapshot or cache hit)
        "core.hub_shared_ratio": 1.0 - ratio(
            delta["standing_reads"] + delta["cache_misses"], delta["hub_queries"]
        ),
        "core.arbiter_resolves": float(len(rec.durations("arbiter.resolve"))),
        "core.arbiter_vetoes": delta["vetoes"],
        "core.restarts": delta["restarts"],
        "core.loop_iterations": delta["iterations"],
        "core.loop_wall_ms_p95": pct(fleet.loop_wall_ms, 95.0),
        "sim.events": delta["events"],
        "s2a_sim_s_p50": median(s2a_sim),
        "s2a_sim_s_p95": pct(s2a_sim, 95.0),
        "latency_ms_p95": pct(s2a_wall_ms, 95.0),
    })
    # ---- the budget: per-fault stamps sample -> commit -> observe -> execute
    stamps = (
        ("sample_to_commit", fleet.sample_sim, fleet.sample_wall, fleet.commit_sim, fleet.commit_wall),
        ("commit_to_observe", fleet.commit_sim, fleet.commit_wall, fleet.observe_sim, fleet.observe_wall),
        ("observe_to_execute", fleet.observe_sim, fleet.observe_wall, fleet.execute_sim, fleet.execute_wall),
    )
    # Medians do not add up, so the budget is that of the *typical* fault:
    # component means over the faults whose total is within 5 % of the
    # median total — they sum to a total inside that band.
    sum_sim = sum_wall = 0.0
    band_sim, band_wall = _middle_band(s2a_sim), _middle_band(s2a_wall_ms)
    for name, a_sim, a_wall, b_sim, b_wall in stamps:
        sim = float(np.mean((b_sim[done] - a_sim[done])[band_sim]))
        wall_ms = float(np.mean(((b_wall[done] - a_wall[done]) * 1e3)[band_wall]))
        out[f"budget.{name}_sim_s"] = sim
        out[f"budget.{name}_wall_ms"] = wall_ms
        sum_sim += sim
        sum_wall += wall_ms
    order = (fleet.sample_wall[done], fleet.commit_wall[done], fleet.observe_wall[done],
             fleet.execute_wall[done])
    checks.check("budget_stamps_complete_and_ordered",
                 all(bool((a <= b).all()) for a, b in zip(order, order[1:])))
    for label, total, parts in (("sim", median(s2a_sim), sum_sim),
                                ("wall", median(s2a_wall_ms), sum_wall)):
        checks.check(f"budget_{label}_sums_within_5pct",
                     abs(parts - total) <= 0.05 * total, f"{parts:.4g} vs {total:.4g}")
    return out


def _middle_band(totals: np.ndarray) -> np.ndarray:
    """The typical faults: total within 5 % of the median total."""
    center = np.median(totals)
    off = np.abs(totals - center)
    band = off <= 0.05 * center
    if not band.any():  # an even split between two distant values
        band[np.argmin(off)] = True
    return band

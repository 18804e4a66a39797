"""Workloads ``serve_dash`` and ``serve_mixed`` — the query front door.

Both drive one ``repro.api.Client`` with the same read mix: 60 % six
dashboard shapes at four pinned evaluation times (24 keys: they fit the
hot-result cache and are promoted to standing queries) and 40 % ad-hoc
drill-downs with a random node-subset matcher and a random window (more
distinct keys than any cache holds, so always a scatter).

``serve_dash`` reads a static store over the worker pool: admission,
caches and the pool scatter with no write interference.  ``serve_mixed``
uses the in-process sharded store and a writer thread that advances the
simulation on a fixed schedule; every advance holds the front door's
write gate across cluster simulation, commit and inline fold and bumps
the write epochs, so a read-side gain that starves the writer (or the
reverse) shows here and nowhere else.

Each run has an **open-loop** phase at a fixed rate (requests are timed
from their due time, so a stall is charged to every request it delays)
and a **closed-loop** phase with two callers.  The load generator is one
thread, plus the writer thread in ``serve_mixed``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, wait
from typing import Dict, List, Optional

import numpy as np

from bench_common import (
    Checks, HostSpeed, leak_check, median, pct, peak_rss_mb, ratio, same_series, setup_repeated,
    shard_skew, shm_blocks, thread_idents,
)
from bench_trace import (
    Recorder, classify_event, layer_busy, wrap_dispatch, wrap_listeners,
)

TENANT = "dash"
DEADLINE_MS = 1000.0
PRELOAD_SIM_S = 720.0
DASHBOARD_SHARE = 0.4
#: every shape has a step of at most 60 s and every pinned time is at
#: least 60 s old, so each answer covers closed bins only and can be
#: compared after the run with direct engine execution at the same time
DASHBOARDS = (
    "mean(node_cpu_util[600s] by 60s)",
    "max(node_cpu_util[600s] by 60s)",
    "mean(node_cpu_util[300s] by 30s)",
    "sum(node_power_watts[120s] by 10s)",
    "mean(node_power_watts[600s] by 60s)",
    "mean(node_cpu_util[600s] by 60s) group by (node)",
)
PINNED_AGES_S = (60.0, 120.0, 180.0, 240.0)
ADHOC_WINDOWS_S = (120.0, 300.0, 600.0)
ADHOC_STEPS_S = (10.0, 30.0, 60.0)
ADHOC_NODES = 8
CHECK_EVERY = 50
#: a run is a sequence of rounds, each an open-loop phase then a
#: closed-loop phase; the closed-loop rate is the median round's
ROUND_S = 1.5
#: share of a round spent in the open-loop phase; the rest is closed loop
OPEN_SHARE = 2.0 / 3.0
CLOSED_CALLERS = 8

#: Open-loop request rate, set once at about a third of the seed commit's
#: closed-loop capacity on the 2-core reference host (~790 per second on
#: either workload), then frozen.  At half of capacity one slow spell of
#: the host pushed the open loop into overload and the median latency
#: rose 50-fold.
OPEN_RATE_PER_S = 250.0
#: serve_mixed's writer: advance this much simulated time on this schedule
WRITE_EVERY_S = 0.25
WRITE_ADVANCE_SIM_S = 10.0

SHAPE = dict(n_nodes=128, shards=4, telemetry_groups=8)
SMOKE_SHAPE = dict(n_nodes=16, shards=2, telemetry_groups=2)


class Served:
    """One served cluster, built through the public API."""

    def __init__(self, seed: int, shape: Dict[str, int], mixed: bool,
                 rec: Optional[Recorder]) -> None:
        from repro.api import Client, ClusterConfig, TenantSpec
        from repro.cluster import Cluster
        from repro.sim import Engine

        config = ClusterConfig(parallel=0 if mixed else 2, seed=seed, **shape)
        sim = Engine()
        cluster = Cluster(sim, config)
        if rec is not None:
            wrap_listeners(rec, cluster.store.shards)
            rec.wrap(cluster.store, "append_batch", "store.append_batch")
        # the two steps of ``Client.from_config``, split so that listener
        # timing can be installed before the engine attaches its rollups
        self.client = client = Client.from_cluster(
            cluster,
            tenants=[TenantSpec(TENANT, qps=50_000.0, max_inflight=8, queue_depth=256)],
            owns_cluster=True,
        )
        self.n_nodes = shape["n_nodes"]
        if rec is not None:
            if not mixed:
                wrap_dispatch(rec, cluster.store.pool)
            rec.wrap(client.engine, "query", "engine.query", rid_of=self._rid_of)
            rec.wrap(client.engine, "fold_rollups", "fold_rollups")
            rec.wrap(client.front_door.standing, "query", "standing.query", rid_of=self._rid_of)
            rec.wrap(client.front_door, "submit", "serve.submit",
                     rid_of=lambda request: self.rids.get((request.query, request.at)))
            rec.wrap(client, "run", "client.run")
            rec.wrap(cluster, "run", "cluster.run")
            rec.hook_events(sim, classify_event)
        #: (query, at) -> index of the latest request with that key, so
        #: that spans on the serving threads carry the request's id
        self.rids: Dict[tuple, int] = {}
        client.run(until=PRELOAD_SIM_S)

    def _rid_of(self, q, *, at):
        return self.rids.get((q, at))

    def close(self) -> None:
        self.client.close()

    def warm_up(self) -> None:
        """Untimed: every dashboard key, in a fixed order, three times.

        The front door promotes a shape to a standing query on its third
        execution and keeps in the hot cache what it executed before
        that, so the order of the first requests decides which keys are
        served from which; a seeded order would make the split — and with
        it the median latency — differ from seed to seed.  Ad-hoc
        requests then bring every pool worker up.
        """
        from repro.api import QueryRequest

        serve, parse = self.client.front_door.serve, self.client.engine.parse
        base = self.client.now // 60.0 * 60.0
        for _ in range(3):
            for expr in DASHBOARDS:
                for age in PINNED_AGES_S:
                    serve(QueryRequest(parse(expr), tenant=TENANT, at=base - age))
        for query, age in self.requests(0, 64):
            serve(QueryRequest(query, tenant=TENANT, at=base - age))

    def requests(self, seed: int, count: int) -> List[tuple]:
        """``count`` generated ``(query, age)`` pairs — the whole input.
        A request asks for the state ``age`` seconds before the last full
        minute of simulated time at the start of its round."""
        from repro.query import LabelMatcher, MetricQuery

        rng = np.random.default_rng(seed)
        parse = self.client.engine.parse
        dashboards = [parse(expr) for expr in DASHBOARDS]
        nodes = np.asarray([f"n{i:04d}" for i in range(self.n_nodes)], dtype=object)
        is_dash = rng.random(count) < DASHBOARD_SHARE
        shape_idx = rng.integers(len(dashboards), size=count)
        age_idx = rng.integers(len(PINNED_AGES_S), size=count)
        window_idx = rng.integers(len(ADHOC_WINDOWS_S), size=count)
        step_idx = rng.integers(len(ADHOC_STEPS_S), size=count)
        out = []
        for i in range(count):
            age = PINNED_AGES_S[age_idx[i]]
            if is_dash[i]:
                out.append((dashboards[shape_idx[i]], age))
                continue
            subset = rng.choice(nodes, size=min(ADHOC_NODES, nodes.size), replace=False)
            out.append((
                MetricQuery(
                    "node_cpu_util",
                    agg="mean",
                    matchers=(LabelMatcher("node", "=~", "|".join(subset)),),
                    range_s=ADHOC_WINDOWS_S[window_idx[i]],
                    step_s=ADHOC_STEPS_S[step_idx[i]],
                    group_by=("node",),
                ),
                age,
            ))
        return out


class Load:
    """The load generator: one thread, open loop then closed loop."""

    def __init__(self, served: Served, requests: List[tuple]) -> None:
        from repro.api import QueryRequest

        self.served = served
        self.submit = served.client.front_door.submit
        self.request_type = QueryRequest
        self.requests = requests
        #: evaluation times of this round's requests are ``base_at - age``
        self.base_at = 0.0
        self.next = 0
        self.attempted = 0
        self.failed = 0
        self.status: Dict[str, int] = {}
        self.sampled: List[object] = []
        #: front-door latency (enqueue to answer) of every queued answer
        self.queued_latency_ms = 0.0
        self.gen_late_ms: List[float] = []
        self.slept_s = 0.0
        self.open_span_s = 0.0
        self.exhausted = False

    def _take(self):
        i = self.next
        if i >= len(self.requests):
            self.exhausted = True
            i %= len(self.requests)
        self.next += 1
        query, age = self.requests[i]
        at = self.base_at - age
        self.served.rids[(query, at)] = self.next
        return self.request_type(query, tenant=TENANT, at=at, deadline_ms=DEADLINE_MS)

    def _account(self, result) -> None:
        self.attempted += 1
        key = f"{result.status}:{result.source}" if result.ok else f"{result.status}:{result.reason}"
        self.status[key] = self.status.get(key, 0) + 1
        if not result.ok:
            self.failed += 1
            return
        if result.source != "cache":  # cache hits resolve inside submit
            self.queued_latency_ms += result.latency_ms
        if self.attempted % CHECK_EVERY == 0:
            self.sampled.append(result)

    def open_loop(self, rate: float, duration: float) -> np.ndarray:
        """Send on a fixed schedule; latency runs from each due time."""
        count = int(rate * duration)
        done_at = [0.0] * count
        futures = []
        t0 = time.perf_counter() + 0.02
        for i in range(count):
            due = t0 + i / rate
            while True:
                ahead = due - time.perf_counter()
                if ahead <= 0.0:
                    break
                time.sleep(ahead)
                self.slept_s += ahead
            self.gen_late_ms.append((time.perf_counter() - due) * 1e3)
            future = self.submit(self._take())
            future.add_done_callback(
                lambda _f, _i=i: done_at.__setitem__(_i, time.perf_counter())
            )
            futures.append(future)
        latencies = np.empty(count)
        for i, future in enumerate(futures):
            result = future.result(timeout=10.0)
            self._account(result)
            # a request without a correct answer in time misses any limit
            latencies[i] = (done_at[i] - (t0 + i / rate)) * 1e3 if result.ok else np.inf
        self.open_span_s += time.perf_counter() - t0
        return latencies

    def closed_loop(self, duration: float, callers: int) -> float:
        """``callers`` requests outstanding at all times for ``duration``
        seconds; returns the correct answers per second."""
        t0 = time.perf_counter()
        t_end = t0 + duration
        pending = {self.submit(self._take()) for _ in range(callers)}
        answered, last = 0, t0
        while pending:
            done, pending = wait(pending, timeout=10.0, return_when=FIRST_COMPLETED)
            if not done:  # the front door stopped answering
                self.attempted += len(pending)
                self.failed += len(pending)
                break
            now = time.perf_counter()
            for future in done:
                result = future.result()
                self._account(result)
                if now < t_end:
                    if result.ok:
                        answered, last = answered + 1, now
                    pending.add(self.submit(self._take()))
        return answered / (last - t0) if answered else 0.0


class Writer(threading.Thread):
    """serve_mixed's second thread: advances the simulation on a schedule
    for the length of one round."""

    def __init__(self, client) -> None:
        super().__init__(name="bench-writer")
        self.client = client
        self.stop = threading.Event()
        self.lag_ms: List[float] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            t0 = time.perf_counter()
            k = 0
            while not self.stop.is_set():
                due = t0 + k * WRITE_EVERY_S
                if self.stop.wait(max(0.0, due - time.perf_counter())):
                    break
                self.client.run(until=self.client.now + WRITE_ADVANCE_SIM_S)
                self.lag_ms.append((time.perf_counter() - due) * 1e3)
                k += 1
        except BaseException as exc:  # reported by the generator thread
            self.error = exc


def run(seed: int, seconds: float, trace: bool, smoke: bool = False, *,
        mixed: bool) -> Dict[str, object]:
    shape = SMOKE_SHAPE if smoke else SHAPE
    rate = OPEN_RATE_PER_S / (4.0 if smoke else 1.0)
    round_s = min(ROUND_S, seconds / 2.0)
    rounds = int(round(seconds / round_s))
    open_s, closed_s = round_s * OPEN_SHARE, round_s * (1.0 - OPEN_SHARE)
    rec = Recorder() if trace else None
    shm_before, threads_before = shm_blocks(), thread_idents()

    speed = HostSpeed()
    served, setup_s = setup_repeated(
        lambda: Served(seed, shape, mixed, rec), 1 if smoke else 3, speed, close=Served.close
    )
    checks = Checks()
    client = served.client
    latencies: List[np.ndarray] = []
    closed_qps: List[float] = []
    write_lags: List[List[float]] = []
    writer_errors: List[str] = []

    def run_round() -> None:
        """One open-loop then one closed-loop phase, the writer (if any)
        advancing on its schedule for the length of the round."""
        load.base_at = client.now // 60.0 * 60.0
        writer = Writer(client) if mixed else None
        if writer is not None:
            writer.start()
        try:
            latencies.append(load.open_loop(rate, open_s))
            closed_qps.append(load.closed_loop(closed_s, CLOSED_CALLERS))
        finally:
            if writer is not None:
                writer.stop.set()
                writer.join(timeout=30.0)
                write_lags.append(writer.lag_ms)
                if writer.is_alive() or writer.error is not None:
                    writer_errors.append(repr(writer.error))

    try:
        # the closed loop may answer several times faster than the open
        # rate; generate enough distinct requests for both phases
        load = Load(served, served.requests(seed, int(rounds * (rate * open_s + 6000 * closed_s))))
        served.warm_up()
        before = _counters(client)
        if rec is not None:
            rec.enabled = True
        wall_t0 = time.perf_counter()
        _starts, _walls, factors = speed.segments(rounds, lambda _k: run_round(), readings=3)
        wall = time.perf_counter() - wall_t0
        if rec is not None:
            rec.enabled = False
        checks.check("writer_finished", not writer_errors, f"{writer_errors[:1]}")
        lag_ms = np.concatenate([np.asarray(lags) for lags in write_lags]) if mixed else np.empty(0)
        late = int((lag_ms > WRITE_EVERY_S * 1e3).sum())
        load.attempted += int(lag_ms.size)
        load.failed += late  # an advance that missed its whole period
        delta = {k: v - before[k] for k, v in _counters(client).items()}
        checks.check("requests_not_exhausted", not load.exhausted)
        _check_accounting(client, checks)
        _check_answers(client, load.sampled, checks)
        rss = peak_rss_mb()
    finally:
        served.close()
    leak_check(checks, shm_before, threads_before)

    raw_ms = np.concatenate(latencies)
    # serve_mixed is one process under the interpreter lock — one core's
    # speed is its speed — so its times are reported at reference speed,
    # each round by the readings on either side of it.  serve_dash runs on
    # three processes over both cores; the one-core kernel did not follow
    # it (normalising widened the spread), so it is reported as measured.
    to_ref = factors if mixed else np.ones(rounds)
    ref_ms = np.concatenate([lat * f for lat, f in zip(latencies, to_ref)])
    result: Dict[str, object] = {
        "attempted": load.attempted,
        "failed": load.failed,
        "wall_s": wall,
        "samples": {"rounds": rounds, "open_loop_requests": int(raw_ms.size),
                    "advances": int(lag_ms.size),
                    "answers_checked": len(load.sampled), "status": load.status},
        "end_to_end": {
            "setup_s": setup_s,
            # failed requests count as slower than any answered one
            "latency_ms_p50": _pct_with_misses(ref_ms, 50.0),
            "throughput_per_s": median(np.asarray(closed_qps) / to_ref),
            "peak_rss_mb": rss,
        },
        "host_speed_factor": median(speed.factors),
        "named": {
            "read_ms_p50": _pct_with_misses(raw_ms, 50.0),
            "read_ms_p95": _pct_with_misses(raw_ms, 95.0),
            "read_qps": median(closed_qps),
            "write_lag_ms_p90": pct(lag_ms, 90.0),
            "open_rate_per_s": rate,
        },
        "checks": checks,
    }
    if rec is not None:
        answered = raw_ms[np.isfinite(raw_ms)]
        result["per_layer"] = _per_layer(served, rec, load, delta, wall, answered, lag_ms)
        result["recorder"] = rec
    return result


def _pct_with_misses(latencies: np.ndarray, q: float) -> float:
    value = float(np.percentile(latencies, q)) if latencies.size else 0.0
    return value if np.isfinite(value) else DEADLINE_MS


def _counters(client) -> Dict[str, float]:
    serve, engine = client.front_door.stats(), client.engine.stats()
    standing = client.front_door.standing.stats()
    out = {k: float(serve[k]) for k in (
        "submitted", "admitted", "served", "rejected_quota", "rejected_queue_full", "shed",
        "expired", "errors", "degraded", "hot_hits", "standing_served",
    )}
    out.update(
        engine_queries=engine["queries_total"],
        cache_hits=engine.get("cache_hits", 0.0),
        cache_misses=engine.get("cache_misses", 0.0),
        federated=engine["federated_queries"],
        fanout=engine["fanout_total"],
        fold_rows=sum(v for k, v in engine.items() if k.startswith("rollup_tier_")),
        dispatches=engine.get("pool_dispatches", 0.0),
        serial_fallbacks=engine.get("serial_fallbacks", 0.0),
        respawns=engine.get("pool_respawns_total", 0.0),
        standing_reads=standing["reads_served"],
        standing_hits=standing["snapshot_hits"],
        standing_fallbacks=standing["scan_fallbacks"],
        standing_updates=standing.get("updates_applied", 0.0),
        events=float(client.cluster.engine.events_executed),
        commits=float(client.cluster.pipeline.root.commits),
        ingested=float(client.cluster.pipeline.root.samples_ingested),
        dropped=float(client.cluster.pipeline.total_dropped_samples()),
        rounds=float(sum(g.rounds for g in client.cluster.samplers)),
    )
    return out


def _check_accounting(client, checks: Checks) -> None:
    """The E21 identities: every request lands in exactly one bin."""
    for key, tenant in client.front_door.stats().items():
        if not key.startswith("tenant_"):
            continue
        arrived = (tenant["admitted"] + tenant["rejected_quota"]
                   + tenant["rejected_queue_full"] + tenant["shed"])
        settled = tenant["served"] + tenant["expired"] + tenant["errors"]
        checks.check(f"{key}_submitted_accounted", tenant["submitted"] == arrived)
        checks.check(f"{key}_admitted_accounted",
                     tenant["admitted"] == settled + tenant["queue_depth"] + tenant["inflight"])


def _check_answers(client, sampled: List[object], checks: Checks) -> None:
    """1-in-``CHECK_EVERY`` ok answers against direct engine execution
    under the write gate at the same evaluation time, bit for bit."""
    checks.check("answers_sampled", len(sampled) > 0)
    wrong = 0
    for result in sampled:
        if result.degraded:  # a coarser answer by design, counted apart
            continue
        with client.front_door.write_gate():
            want = client.engine.query(result.request.query, at=result.request.at)
        if not same_series(result, want, exact=True):
            wrong += 1
    checks.check("answers_bit_identical_to_engine", wrong == 0, f"{wrong} of {len(sampled)}")


def _per_layer(served, rec, load, delta, wall, answered, lag_ms) -> Dict[str, float]:
    client = served.client
    layers = layer_busy(rec)
    self_times = rec.self_times()
    executed = rec.durations("engine.query") + rec.durations("standing.query")
    folds = rec.durations("fold_rollups")
    gate_waits = [
        (outer - inner) * 1e3
        for outer, inner in zip(rec.durations("client.run"), rec.durations("cluster.run"))
    ]
    ok = max(1.0, delta["served"])
    layers.update({
        "telemetry.sample_rounds": delta["rounds"],
        "telemetry.commits": delta["commits"],
        "telemetry.samples_dropped": delta["dropped"],
        "shard.append_samples": delta["ingested"],
        "shard.append_ms_p95": pct(rec.durations("store.append_batch"), 95.0) * 1e3,
        "shard.scatter_calls": delta["federated"],
        "shard.fanout": ratio(delta["fanout"], delta["federated"]),
        "shard.skew": shard_skew(client.cluster.store),
        "shard.pool_dispatches": delta["dispatches"],
        "shard.pool_serial_fallbacks": delta["serial_fallbacks"],
        "shard.pool_respawns": delta["respawns"],
        "query.fold_calls": float(len(folds)),
        "query.fold_ms_p95": pct(folds, 95.0) * 1e3,
        "query.fold_rows": delta["fold_rows"],
        "query.standing_updates": delta["standing_updates"],
        "query.standing_reads": delta["standing_reads"],
        "query.standing_fallbacks": delta["standing_fallbacks"],
        "query.standing_snapshot_hit_ratio": ratio(
            delta["standing_hits"], delta["standing_hits"] + delta["standing_reads"]
        ),
        "query.engine_calls": float(len(self_times.get("engine.query", ()))),
        "query.engine_ms_p95": pct(rec.durations("engine.query"), 95.0) * 1e3,
        "query.cache_hit_ratio": ratio(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]
        ),
        "serve.hot_hit_ratio": delta["hot_hits"] / ok,
        "serve.standing_ratio": delta["standing_served"] / ok,
        "serve.scatter_ratio": (delta["served"] - delta["hot_hits"] - delta["standing_served"]) / ok,
        # share of a queued request's front-door latency not spent executing
        "serve.wait_share": max(0.0, 1.0 - ratio(sum(executed) * 1e3, load.queued_latency_ms)),
        "serve.rejected": delta["rejected_quota"] + delta["rejected_queue_full"],
        "serve.expired": delta["expired"],
        "serve.shed": delta["shed"],
        "serve.degraded": delta["degraded"],
        "serve.gate_wait_ms_p95": pct(gate_waits, 95.0),
        "serve.write_lag_ms_p90": pct(lag_ms, 90.0),
        "sim.events": delta["events"],
        "gen.late_ms_p99": pct(load.gen_late_ms, 99.0),
        "gen.busy_share": max(0.0, 1.0 - load.slept_s / load.open_span_s),
        "gen.latency_samples": float(len(answered)),
        "latency_ms_p95": pct(answered, 95.0),
    })
    return layers

"""Command-line interface.

``python -m repro <command>``:

* ``experiments [--quick] [--seeds ...]`` — regenerate every experiment
  table (the EXPERIMENTS.md content).
* ``list`` — enumerate experiments with their paper anchors.
* ``query "<expr>"`` — run a short simulated shift and serve a metric
  query expression (e.g. ``mean(node_cpu_util[600s] by 60s)``) through
  the multi-tenant front door over the vectorized query engine with
  tiered rollups.  ``--shards N`` splits the telemetry store's series
  into N places and serves the query one pass per place;
  ``--parallel W`` additionally backs the store with shared-memory
  columns and executes the per-place scatter/standing/fold passes on W
  worker processes.  ``query``, ``serve``, and ``bench-serve`` share
  one serving flag group: ``--tenant`` / ``--qps`` / ``--deadline-ms``
  / ``--stats`` (the unified metrics registry, ``serve.*`` included).
* ``serve`` — run a sustained multi-tenant serving demo: driver threads
  for an interactive, a batch, and a best-effort tenant hammer the
  front door while ingest keeps committing under the write gate; prints
  the per-tenant admission/degrade/shed/p99 table.
* ``loops`` — run a watch-loop fleet on the unified runtime over a
  simulated shift and print per-loop stats, fused-query serving
  counters, and the loops' own self-telemetry queried back out.
* ``bench-loops`` — run the E15 loop-fleet benchmark (fused monitoring
  vs per-loop ad-hoc scans + runtime hosting overhead), optionally
  writing a JSON artifact.
* ``bench-shard`` — run the E16 sharded-store benchmark (per-place
  scatter-gather queries + ingest vs a plain store), optionally
  writing a JSON artifact; ``--smoke`` runs a small exactness-only
  configuration for CI.
* ``supervise`` — run a fleet with injected stuck/frozen loops under
  the meta-loop supervisors and print the healing timeline (healthy →
  degraded → restored staleness, audited restarts).
* ``bench-supervise`` — run the E17 fleet-supervision benchmark
  (self-healing staleness restoration + shared hub serving vs the
  uncached engine), optionally writing a JSON artifact.
* ``bench-parallel`` — run the E18 process-parallel shard benchmark
  (worker-pool scatter speedup, shared-memory layout overhead, and the
  E15/E17 fleet reruns on the parallel engine), optionally writing a
  JSON artifact; ``--smoke`` runs a small exactness-only configuration
  for CI.  ``bench-shard --parallel W`` runs just the two storage
  halves at E16 sizing.
* ``bench-standing`` — run the E19 standing-query benchmark (hub
  serving from maintained partial aggregates vs PR 5 fused re-scans,
  plus the per-commit ingest-listener overhead), optionally writing a
  JSON artifact; ``--smoke`` runs a small exactness-only configuration
  for CI.
* ``trace`` — run a watch-loop fleet with span tracing enabled and
  export the span ring as Chrome-trace JSON (loads in Perfetto /
  ``chrome://tracing``); ``--shards``/``--parallel`` exercise the
  federated and worker-process paths, whose worker-side spans arrive
  parented under the dispatching scatter span.
* ``bench-obs`` — run the E20 observability-overhead benchmark
  (disabled-mode and enabled-mode tracing costs on the columnar ingest and
  E19 standing-serving paths, priced ≤2% / ≤5%), optionally writing a
  JSON artifact; ``--smoke`` runs a small exactness-only configuration
  for CI.
* ``bench-serve`` — run the E21 multi-tenant serving benchmark
  (sustained mixed load with admission/degrade/shed accounting and
  exactness gates, plus quota isolation of a quiet tenant under a
  greedy flood), optionally writing a JSON artifact; ``--smoke`` runs a
  small exactness-and-accounting-only configuration for CI.
* ``bench-diff OLD NEW`` — compare two benchmark JSON artifacts
  (typically merged ``BENCH_all.json`` files from two runs) and report
  throughput metrics (``*_per_s``, ``*speedup*``) that regressed beyond
  ``--threshold`` (default 20%); ``--fail`` turns regressions into a
  non-zero exit.
* ``bench-trend ARTIFACT...`` — fold two or more merged artifacts
  (oldest first) into a per-metric throughput trend table, written as
  markdown to ``--out`` (default ``BENCH_trend.md``) — the slow-drift
  complement of the pairwise diff, warn-only by design.
* ``version`` — print the package version.

Every ``bench-*`` JSON artifact is stamped with the producing commit's
git SHA and a UTC timestamp so CI rows are comparable across runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

EXPERIMENT_INDEX = [
    ("E1", "Fig. 1", "holistic monitoring + ODA pipeline"),
    ("E2", "Fig. 2", "MAPE-K pattern scalability/stability/robustness"),
    ("E3", "Fig. 3 / §III", "Scheduler case vs baselines"),
    ("E4", "§III case 1", "Maintenance: job continuity via checkpoints"),
    ("E5", "§III case 2", "I/O QoS adaptation"),
    ("E6", "§III case 3", "OST failover"),
    ("E7", "§III case 4", "Misconfiguration detect/advise/fix"),
    ("E8", "§I", "value of response vs human latency"),
    ("E9", "§IV", "small continual vs large batch models"),
    ("E10", "§IV", "TSDB + model-metadata storage paths"),
    ("E11", "§III.iv", "trust/guard budget sweep"),
    ("E12", "§II i–ii", "component interchange matrix"),
    ("E13", "§IV", "query engine: tiered rollups + cache vs raw scans"),
    ("E14", "§IV", "columnar vs per-object ingest (frozen row in README; path deleted)"),
    ("E15", "§II/§IV", "loop runtime: fused fleet monitoring vs ad-hoc scans"),
    ("E16", "§IV", "sharded store: per-place scatter-gather vs a plain store"),
    ("E17", "§II/§IV", "fleet supervision: meta-loops over loop self-telemetry"),
    ("E18", "§IV", "process-parallel shards: shared-memory columns + worker pool"),
    ("E19", "§IV", "standing queries: O(new samples) incremental monitor serving"),
    ("E20", "§IV", "observability: span tracing + metrics priced on the hot paths"),
    ("E21", "§IV", "serving front door: multi-tenant admission, degrade, shed"),
]


def cmd_list() -> int:
    width = max(len(anchor) for _, anchor, _ in EXPERIMENT_INDEX)
    for exp_id, anchor, title in EXPERIMENT_INDEX:
        print(f"{exp_id:4s} {anchor:{width}s}  {title}")
    return 0


def cmd_version() -> int:
    from repro import __version__

    print(__version__)
    return 0


def cmd_experiments(quick: bool, seeds: List[int]) -> int:
    from repro.experiments.runner import run_all

    run_all(quick=quick, seeds=seeds)
    return 0


def _shift_client(
    *,
    nodes: int,
    horizon: float,
    seed: int,
    shards: int = 1,
    parallel: int = 0,
    tenants=(),
    rollup_resolutions=(60.0, 600.0),
):
    """One served cluster + workload shift — the shared construction every
    serving command uses (this replaced per-command engine wiring)."""
    from repro.api import Client, ClusterConfig
    from repro.sim import Engine, RngRegistry
    from repro.workloads import WorkloadGenerator, WorkloadSpec

    sim = Engine()
    client = Client.from_config(
        ClusterConfig(
            n_nodes=nodes, telemetry_period_s=10.0, seed=seed,
            shards=shards, parallel=parallel,
        ),
        sim=sim,
        tenants=tenants,
        rollup_resolutions=rollup_resolutions,
    )
    generator = WorkloadGenerator(
        sim,
        client.cluster.scheduler,
        RngRegistry(seed=seed).stream("workload"),
        WorkloadSpec(n_jobs=max(4, nodes // 2), arrival_rate_per_s=1 / 120.0),
    )
    generator.start()
    client.run(until=horizon)
    return client


#: the parallel store's ingest-side degradation counters (``shard_stats()``)
_PARALLEL_INGEST_KEYS = (
    "cols_forwarded_rows", "cols_dropped_rows", "cols_flushes", "serial_appends",
)


def cmd_query(
    expr: str,
    nodes: int,
    horizon: float,
    seed: int,
    shards: int,
    parallel: int,
    show_stats: bool,
    tenant: str = "default",
    qps: float = 1000.0,
    deadline_ms: Optional[float] = None,
) -> int:
    """Simulate a short shift, then serve ``expr`` through the front door."""
    from repro.api import TenantSpec

    client = _shift_client(
        nodes=nodes, horizon=horizon, seed=seed, shards=shards, parallel=parallel,
        tenants=[TenantSpec(tenant, qps=qps, max_inflight=8, queue_depth=256)],
    )
    with client:
        fd = client.front_door
        if fd.standing is not None:
            # a one-shot CLI query never crosses the promotion threshold:
            # register eligible shapes up front so the invocation
            # demonstrates the standing serving path (parse errors are
            # surfaced by the serving path below, not here)
            try:
                with fd.write_gate():
                    fd.standing.register(client.engine.parse(expr))
            except Exception:
                pass
        result = client.query(expr, tenant=tenant, deadline_ms=deadline_ms)
        if result.status == "error":
            print(result.reason, file=sys.stderr)
            return 2
        if not result.ok:
            print(f"{result.status}: {result.reason} (tenant={result.tenant})",
                  file=sys.stderr)
            return 2
        er = result.engine_result
        print(f"# {er.query.to_expr()}")
        print(f"# window=[{er.t0:g}, {er.t1:g}]s source={result.source} "
              f"tenant={result.tenant} latency={result.latency_ms:.2f}ms "
              f"series={len(result.series)}")
        for series in result.series:
            if series.values.size == 1:
                print(f"{series!s:30s} {series.values[0]:.4f}")
                continue
            head = ", ".join(f"{v:.3f}" for v in series.values[:8])
            tail = ", …" if series.values.size > 8 else ""
            print(f"{series!s:30s} n={series.values.size:4d} [{head}{tail}]")
        if not result.series:
            print("(no matching data — try `mean(node_cpu_util[600s] by 60s)`)")
        stats = client.engine.stats()
        print(f"# engine: raw={stats['served_raw']:.0f} rollup={stats['served_rollup']:.0f} "
              f"cache_hit_rate={stats.get('cache_hit_rate', 0.0):.0%} "
              f"store_series={client.cluster.store.cardinality()}")
        if show_stats:
            from repro.obs import MetricsRegistry, absorb_stats

            reg = client.metrics(MetricsRegistry())
            if "parallel_scatters" in stats:
                shard_stats = client.cluster.store.shard_stats()
                absorb_stats(reg, {key: shard_stats[key] for key in _PARALLEL_INGEST_KEYS},
                             "engine")
            print("# stats:")
            for line in reg.render():
                print(f"  {line}")
            if "shards" in stats:
                print(f"  # shard series: {client.cluster.store.shard_cardinalities()}")
    return 0


def cmd_serve(
    nodes: int,
    horizon: float,
    seed: int,
    duration: float,
    drivers: int,
    tenant: str,
    qps: float,
    deadline_ms: Optional[float],
    show_stats: bool,
) -> int:
    """Serve a sustained multi-tenant load; print the admission story."""
    from repro.api import TenantSpec
    from repro.experiments.serve_exp import build_client, run_mixed_load

    tenants = [
        TenantSpec(tenant, qps=qps, max_inflight=8, queue_depth=256, priority=2),
        TenantSpec("batch", qps=qps / 2.0, max_inflight=4, queue_depth=64,
                   priority=1),
        TenantSpec("besteffort", qps=qps / 2.0, max_inflight=2, queue_depth=16,
                   priority=0),
    ]
    client = build_client(seed=seed, n_nodes=nodes, horizon_s=horizon,
                          tenants=tenants)
    with client:
        plan = [
            (tenant, drivers, 0.0, deadline_ms),
            ("batch", max(1, drivers // 2), 0.0,
             deadline_ms * 2.0 if deadline_ms is not None else None),
            ("besteffort", max(1, drivers // 2), 0.0, deadline_ms),
        ]
        run_mixed_load(client, plan, duration_s=duration)
        stats = client.front_door.stats()
        print(f"served {stats['served']:.0f}/{stats['submitted']:.0f} requests "
              f"in {duration:.1f}s wall "
              f"(hot {stats['hot_hits']:.0f}, standing {stats['standing_served']:.0f}, "
              f"degraded {stats['degraded']:.0f}); rejected: "
              f"quota {stats['rejected_quota']:.0f}, "
              f"queue_full {stats['rejected_queue_full']:.0f}, "
              f"shed {stats['shed']:.0f}, expired {stats['expired']:.0f}")
        print(f"{'tenant':12s} {'prio':>4s} {'submitted':>9s} {'served':>7s} "
              f"{'degraded':>8s} {'shed':>5s} {'rejected':>8s} {'expired':>7s} "
              f"{'p99_ms':>8s}")
        for key in sorted(k for k in stats if k.startswith("tenant_")):
            t = stats[key]
            rejected = t["rejected_quota"] + t["rejected_queue_full"]
            print(f"{key[len('tenant_'):]:12s} {t['priority']:4.0f} "
                  f"{t['submitted']:9.0f} {t['served']:7.0f} {t['degraded']:8.0f} "
                  f"{t['shed']:5.0f} {rejected:8.0f} {t['expired']:7.0f} "
                  f"{t['p99_ms']:8.2f}")
        if show_stats:
            from repro.obs import MetricsRegistry

            reg = client.metrics(MetricsRegistry())
            print("# stats:")
            for line in reg.render():
                print(f"  {line}")
    return 0


def cmd_bench_serve(
    nodes: int,
    duration: float,
    drivers: int,
    json_path: Optional[str],
    smoke: bool,
    tenant: str = "default",
    qps: float = 4000.0,
    deadline_ms: float = 250.0,
    show_stats: bool = False,
) -> int:
    """Run the E21 serving benchmark and print (optionally dump) rows.

    ``--smoke`` shrinks both halves and checks only exactness and
    admission accounting, not the QPS/p99/isolation gates — the CI
    wiring check.  The full run additionally gates served p99 at the
    request deadline, quiet-tenant p99 inflation at 2x under a greedy
    flood, and (multi-core hosts only) aggregate throughput at
    2000 QPS.
    """
    import json
    import os

    from repro.experiments.provenance import stamp
    from repro.experiments.report import render_table
    from repro.experiments.serve_exp import run_serve_benchmark

    if smoke:
        nodes, duration, drivers = min(nodes, 16), min(duration, 0.8), min(drivers, 2)
    rows = run_serve_benchmark(
        seed=0, n_nodes=nodes, duration_s=duration, n_drivers=drivers,
        tenant=tenant, qps_quota=qps,
        deadline_ms=deadline_ms if deadline_ms is not None else 250.0,
    )
    load, isolation = rows["load"], rows["isolation"]
    print(render_table([load], title="E21 — sustained mixed multi-tenant serving"))
    print(render_table([isolation], title="E21b — quota isolation under a greedy flood"))
    if load["match"] != 1.0:
        print("ERROR: non-degraded served answers diverged from direct engine execution",
              file=sys.stderr)
        return 1
    if load["accounting_ok"] != 1.0 or isolation["accounting_ok"] != 1.0:
        print("ERROR: per-tenant admission accounting does not add up", file=sys.stderr)
        return 1
    if not smoke:
        if load["p99_ms"] > load["deadline_ms"]:
            print("ERROR: served p99 above the request deadline", file=sys.stderr)
            return 1
        if isolation["isolation_ok"] != 1.0:
            print("ERROR: greedy tenant inflated the quiet tenant's p99 beyond 2x",
                  file=sys.stderr)
            return 1
        if (os.cpu_count() or 1) >= 4 and load["qps"] < 2000.0:
            print("ERROR: aggregate serving throughput below the 2000 QPS gate",
                  file=sys.stderr)
            return 1
    if show_stats:
        from repro.obs import MetricsRegistry, absorb_stats

        reg = MetricsRegistry()
        absorb_stats(reg, load, "serve")
        print("# stats:")
        for line in reg.render():
            print(f"  {line}")
    print(
        f"served {load['qps']:.0f} QPS aggregate, p99 {load['p99_ms']:.2f}ms "
        f"(deadline {load['deadline_ms']:.0f}ms, "
        f"hot {load['hot_hits']:.0f} / standing {load['standing_served']:.0f} / "
        f"degraded {load['degraded']:.0f} / shed {load['shed']:.0f}); "
        f"quiet-tenant p99 {isolation['quiet_solo_p99_ms']:.2f}ms solo -> "
        f"{isolation['quiet_contended_p99_ms']:.2f}ms contended "
        f"({isolation['greedy_rejected']:.0f} greedy rejections)"
    )
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(stamp(rows), fh, indent=2, sort_keys=True)
        print(f"wrote {json_path}")
    return 0


def cmd_loops(n_loops: int, nodes: int, horizon: float, seed: int) -> int:
    """Host a watch-loop fleet on the runtime over a simulated cluster shift."""
    from repro.cluster import Cluster, ClusterConfig
    from repro.experiments.loops_exp import watch_fleet_specs
    from repro.experiments.report import render_table
    from repro.sim import Engine, RngRegistry
    from repro.workloads import WorkloadGenerator, WorkloadSpec

    engine = Engine()
    cluster = Cluster(engine, ClusterConfig(n_nodes=nodes, telemetry_period_s=10.0, seed=seed))
    generator = WorkloadGenerator(
        engine,
        cluster.scheduler,
        RngRegistry(seed=seed).stream("workload"),
        WorkloadSpec(n_jobs=max(4, nodes // 2), arrival_rate_per_s=1 / 120.0),
    )
    generator.start()
    runtime = cluster.loop_runtime()
    specs = watch_fleet_specs(
        "node_cpu_util",
        cluster.node_ids(),
        n_loops,
        period_s=60.0,
        window_s=300.0,
        threshold=0.5,
    )
    for spec in specs:
        spec.start_at = 300.0
    runtime.add_many(specs, start=True)
    engine.run(until=horizon)
    runtime.stop()

    print(render_table(runtime.loop_stats()[: min(n_loops, 12)],
                       title=f"repro loops — {n_loops} watch loops over {nodes} nodes"))
    print()
    stats = runtime.stats()
    print(f"fleet: {stats['iterations_total']:.0f} iterations, "
          f"{stats['hub_fused_served']:.0f} fused reads, "
          f"{stats['hub_engine_served_raw'] + stats['hub_engine_served_rollup']:.0f} "
          f"query executions, cache hit rate "
          f"{stats.get('hub_engine_cache_hit_rate', 0.0):.0%}")
    # the loops are themselves monitorable: query their self-telemetry back
    mean_ms = runtime.query_engine.scalar("mean(loop_iteration_ms)", at=engine.now)
    if mean_ms is not None:
        print(f"self-telemetry: mean loop_iteration_ms = {mean_ms:.3f}")
    return 0


def cmd_bench_loops(n_loops: int, ticks: int, json_path: Optional[str]) -> int:
    """Run the E15 loop-fleet benchmark and print (optionally dump) the rows."""
    import json

    from repro.experiments.loops_exp import run_loop_fleet_benchmark, run_runtime_overhead
    from repro.experiments.provenance import stamp
    from repro.experiments.report import render_table

    fleet = run_loop_fleet_benchmark(n_loops=n_loops, ticks=ticks)
    overhead = run_runtime_overhead()
    print(render_table([fleet], title="E15 — fused fleet monitoring vs per-loop ad-hoc scans"))
    print(render_table([overhead], title="E15b — runtime hosting overhead"))
    if fleet["match"] != 1.0:
        print("ERROR: fused and ad-hoc fleets disagreed on analyzer verdicts", file=sys.stderr)
        return 1
    print(
        f"monitor speedup: {fleet['monitor_speedup']:.2f}x "
        f"({fleet['adhoc_queries']:.0f} -> {fleet['fused_queries']:.0f} query executions); "
        f"hosting overhead {overhead['overhead_ratio']:.2f}x"
    )
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(
                stamp({"fleet": fleet, "overhead": overhead}), fh, indent=2, sort_keys=True
            )
        print(f"wrote {json_path}")
    return 0


def cmd_supervise(n_loops: int, seed: int) -> int:
    """Run a supervised fleet with injected faults; print the healing story."""
    from repro.experiments.report import render_table
    from repro.experiments.supervise_exp import run_supervision_scenario

    row = run_supervision_scenario(seed=seed, n_loops=n_loops, supervise=True)
    trace = row.pop("trace")
    print(render_table([row], title=f"repro supervise — {n_loops} loops, injected faults"))
    print()
    print(f"healthy p95 staleness {row['healthy_p95_s']:.1f}s; after injecting "
          f"{row['frozen']:.0f} frozen + {row['stuck']:.0f} stuck loops and "
          f"{row['restarts']:.0f} supervised restarts, final p95 "
          f"{row['final_p95_s']:.1f}s")
    print("supervisor actions (audited):")
    for t, actor, op, target in trace[:20]:
        print(f"  t={t:8.1f}s {actor}: {op} {target}")
    if len(trace) > 20:
        print(f"  … {len(trace) - 20} more")
    return 0


def cmd_bench_supervise(
    n_loops: int, ticks: int, json_path: Optional[str], smoke: bool
) -> int:
    """Run the E17 supervision benchmark and print (optionally dump) rows.

    ``--smoke`` shrinks the fleet and skips the perf gate on shared
    serving (exactness and healing are still asserted) — the CI wiring
    check, fast enough for every push.
    """
    import json

    from repro.experiments.provenance import stamp
    from repro.experiments.report import render_table
    from repro.experiments.supervise_exp import (
        run_shared_serving_benchmark,
        run_supervision_benchmark,
    )

    if smoke:
        n_loops, ticks = min(n_loops, 64), min(ticks, 12)
    heal = run_supervision_benchmark(seed=0, n_loops=n_loops)
    shared = run_shared_serving_benchmark(seed=0, n_loops=n_loops, ticks=ticks)
    print(render_table([heal], title="E17 — supervised vs unsupervised fleet under faults"))
    print(render_table([shared], title="E17b — shared hub serving vs the uncached engine"))
    if heal["restores_within_2x"] != 1.0 or heal["control_degrades"] != 1.0:
        print("ERROR: supervision did not restore fleet staleness within bound",
              file=sys.stderr)
        return 1
    if shared["match"] != 1.0:
        print("ERROR: shared and direct fleets disagreed on analyzer verdicts",
              file=sys.stderr)
        return 1
    if not smoke and shared["monitor_speedup"] < 2.0:
        print("ERROR: shared serving below the 2x gate", file=sys.stderr)
        return 1
    print(
        f"healing: p95 staleness {heal['healthy_p95_s']:.1f}s healthy -> "
        f"{heal['unsupervised_p95_s']:.1f}s unsupervised vs "
        f"{heal['supervised_p95_s']:.1f}s supervised "
        f"({heal['restarts']:.0f} audited restarts); "
        f"shared serving {shared['monitor_speedup']:.2f}x over direct"
    )
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(stamp({"heal": heal, "shared": shared}), fh, indent=2, sort_keys=True)
        print(f"wrote {json_path}")
    return 0


def cmd_bench_shard(
    series: int,
    shards: int,
    ticks: int,
    json_path: Optional[str],
    smoke: bool,
    parallel: int = 0,
    show_stats: bool = False,
) -> int:
    """Run the E16 sharded-store benchmark and print (optionally dump) rows.

    ``--smoke`` shrinks the workload and checks only exactness (bitwise
    partition invariance + store equality), not the perf thresholds —
    the CI wiring check, fast enough for every push.  ``--parallel W``
    runs the same storage measurements through the process-parallel
    tier instead (the E18 scatter/ingest halves at this sizing).
    """
    import json

    from repro.experiments.provenance import stamp
    from repro.experiments.report import render_table
    from repro.experiments.shard_exp import run_shard_benchmark

    if parallel > 0:
        return _bench_parallel_storage(
            series=series, shards=shards, workers=parallel, ticks=ticks,
            json_path=json_path, smoke=smoke, show_stats=show_stats,
        )
    if smoke:
        series, ticks, repeats = min(series, 256), min(ticks, 16), 1
    else:
        repeats = 3
    rows = run_shard_benchmark(
        n_series=series, n_shards=shards, ticks=ticks, repeats=repeats
    )
    query, ingest = rows["query"], rows["ingest"]
    print(render_table([query], title="E16 — per-place vs plain-store group_by queries"))
    print(render_table([ingest], title="E16 — per-place vs plain-store columnar ingest"))
    if query["bit_identical"] != 1.0:
        print("ERROR: federated results diverged from the single-store oracle", file=sys.stderr)
        return 1
    if query["standing_match"] != 1.0:
        print("ERROR: standing-query results diverged from the batch engine", file=sys.stderr)
        return 1
    if ingest["match"] != 1.0:
        print("ERROR: sharded and single-store ingest diverged", file=sys.stderr)
        return 1
    if show_stats:
        from repro.obs import MetricsRegistry, absorb_stats

        reg = MetricsRegistry()
        absorb_stats(reg, {
            "shards": query["n_shards"],
            "fanout_mean": query["fanout_mean"],
            "result_series": query["result_series"],
            "standing_registered_shapes": query["standing_registered_shapes"],
            "standing_updates_applied": query["standing_updates_applied"],
            "standing_scan_fallbacks": query["standing_scan_fallbacks"],
            "standing_speedup": query["standing_speedup"],
        }, "engine")
        print("# stats:")
        for line in reg.render():
            print(f"  {line}")
    print(
        f"query speedup: {query['query_speedup']:.2f}x "
        f"({query['single_queries_per_s']:.1f} -> {query['federated_queries_per_s']:.1f} queries/s, "
        f"fanout {query['fanout_mean']:.1f}); "
        f"ingest {ingest['ingest_speedup']:.2f}x "
        f"({ingest['single_samples_per_s']:.0f} -> {ingest['sharded_samples_per_s']:.0f} samples/s)"
    )
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(stamp(rows), fh, indent=2, sort_keys=True)
        print(f"wrote {json_path}")
    return 0


def _shm_ingest_gates_failed(ingest: Dict[str, float]) -> bool:
    """The E18 ingest row's wall-ratio gates; prints the ones missed."""
    missed = [what for what, ok in (
        ("shared-memory ingest overhead above 1.2x", ingest["shm_overhead"] <= 1.2),
        ("pool-live commits below 0.9x of pool-off", ingest["parallel_ingest_speedup"] >= 0.9),
        ("pool-live commits + folds below 0.8x of pool-off",
         ingest["parallel_delivery_speedup"] >= 0.8),
    ) if not ok]
    for what in missed:
        print(f"ERROR: {what}", file=sys.stderr)
    return bool(missed)


def _bench_parallel_storage(
    *, series: int, shards: int, workers: int, ticks: int,
    json_path: Optional[str], smoke: bool, show_stats: bool = False,
) -> int:
    """The two E18 storage halves (scatter + ingest) at E16-style sizing."""
    import json

    from repro.experiments.parallel_exp import (
        run_parallel_ingest_benchmark,
        run_parallel_scatter_benchmark,
    )
    from repro.experiments.provenance import stamp
    from repro.experiments.report import render_table

    if smoke:
        series, ticks, repeats = min(series, 256), min(ticks, 16), 1
        workers = min(workers, 2)
    else:
        repeats = 3
    scatter = run_parallel_scatter_benchmark(
        n_series=series, n_shards=shards, workers=workers, ticks=ticks, repeats=repeats
    )
    ingest = run_parallel_ingest_benchmark(
        n_series=series, n_shards=shards, workers=min(workers, 2),
        ticks=ticks, repeats=repeats,
    )
    print(render_table([scatter], title="E18 — parallel vs serial federated scatter"))
    print(render_table([ingest], title="E18 — shared-memory vs plain sharded ingest"))
    if scatter["bit_identical"] != 1.0 or ingest["match"] != 1.0:
        print("ERROR: parallel execution diverged from the serial engine", file=sys.stderr)
        return 1
    if not smoke and scatter["scatter_speedup"] < 2.5:
        print("ERROR: parallel scatter below the 2.5x gate", file=sys.stderr)
        return 1
    if not smoke and _shm_ingest_gates_failed(ingest):
        return 1
    if show_stats:
        from repro.obs import MetricsRegistry, absorb_stats

        reg = MetricsRegistry()
        absorb_stats(reg, {
            "pool_workers": scatter["workers"],
            "parallel_scatters": scatter["parallel_scatters"],
            "parallel_folds": ingest["parallel_folds"],
            "serial_fallbacks": ingest["serial_fallbacks"],
            **{key: ingest[key] for key in _PARALLEL_INGEST_KEYS},
        }, "engine")
        print("# stats:")
        for line in reg.render():
            print(f"  {line}")
    print(
        f"scatter speedup: {scatter['scatter_speedup']:.2f}x "
        f"({scatter['serial_queries_per_s']:.1f} -> "
        f"{scatter['parallel_queries_per_s']:.1f} queries/s, "
        f"{scatter['workers']:.0f} workers x {scatter['n_shards']:.0f} shards); "
        f"shm ingest overhead {ingest['shm_overhead']:.2f}x"
    )
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(
                stamp({"scatter": scatter, "ingest": ingest}), fh, indent=2, sort_keys=True
            )
        print(f"wrote {json_path}")
    return 0


def cmd_bench_parallel(
    series: int,
    shards: int,
    workers: int,
    ticks: int,
    json_path: Optional[str],
    smoke: bool,
) -> int:
    """Run the E18 process-parallel benchmark and print (optionally dump) rows.

    ``--smoke`` shrinks every section and skips the perf gates (bitwise
    identicality, store equality, verdict/trace parity are still
    asserted) — the CI wiring check, fast enough for every push and for
    single-core runners.
    """
    import json

    from repro.experiments.parallel_exp import run_parallel_benchmark
    from repro.experiments.provenance import stamp
    from repro.experiments.report import render_table

    if smoke:
        series, ticks, repeats = min(series, 256), min(ticks, 16), 1
        workers = min(workers, 2)
        fleet_loops, supervise_loops = 16, 16
    else:
        repeats, fleet_loops, supervise_loops = 3, 64, 32
    rows = run_parallel_benchmark(
        n_series=series, n_shards=shards, workers=workers, ticks=ticks,
        repeats=repeats, fleet_loops=fleet_loops, supervise_loops=supervise_loops,
    )
    scatter, ingest = rows["scatter"], rows["ingest"]
    fleet, supervise, tax = rows["fleet"], rows["supervise"], rows["small_pass_tax"]
    print(render_table([scatter], title="E18 — parallel vs serial federated scatter"))
    print(render_table([ingest], title="E18 — shared-memory vs plain sharded ingest"))
    print(render_table([fleet], title="E18 — E15 watch fleet rerun on the parallel engine"))
    print(render_table([supervise], title="E18 — E17 supervision rerun on the parallel engine"))
    print(render_table([tax], title="E18 — pool round trip ÷ in-process wall of one scatter pass"))
    if scatter["bit_identical"] != 1.0 or ingest["match"] != 1.0:
        print("ERROR: parallel execution diverged from the serial engine", file=sys.stderr)
        return 1
    if fleet["match"] != 1.0:
        print("ERROR: fleet verdicts differ between serial and parallel engines",
              file=sys.stderr)
        return 1
    if supervise["trace_match"] != 1.0 or supervise["restores_within_2x"] != 1.0:
        print("ERROR: supervision diverged on the parallel engine", file=sys.stderr)
        return 1
    if tax["bit_identical"] != 1.0 or tax["tax_8"] <= 1.0:
        print("ERROR: an 8-series scatter was not cheaper in process (or diverged)",
              file=sys.stderr)
        return 1
    if not smoke and scatter["scatter_speedup"] < 2.5:
        print("ERROR: parallel scatter below the 2.5x gate", file=sys.stderr)
        return 1
    if not smoke and _shm_ingest_gates_failed(ingest):
        return 1
    print(
        f"scatter speedup: {scatter['scatter_speedup']:.2f}x "
        f"({scatter['workers']:.0f} workers x {scatter['n_shards']:.0f} shards); "
        f"shm ingest overhead {ingest['shm_overhead']:.2f}x; "
        f"fleet + supervision reruns exact on the parallel engine"
    )
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(stamp(rows), fh, indent=2, sort_keys=True)
        print(f"wrote {json_path}")
    return 0


def cmd_bench_standing(
    n_loops: int,
    nodes_per_loop: int,
    ticks: int,
    json_path: Optional[str],
    smoke: bool,
    show_stats: bool = False,
) -> int:
    """Run the E19 standing-query benchmark and print (optionally dump) rows.

    ``--smoke`` shrinks the fleet and checks only exactness (standing
    results vs the uncached batch engine on sampled ticks), not the
    perf gates — the CI wiring check.  The full run gates hub serving
    at ≥10 k standing queries/s and ≥1.5× fused throughput, and the
    per-commit partial-aggregate update at ≤1.1× plain columnar ingest.
    """
    import json

    from repro.experiments.provenance import stamp
    from repro.experiments.report import render_table
    from repro.experiments.standing_exp import run_standing_benchmark

    if smoke:
        n_loops = min(n_loops, 32)
        nodes_per_loop = min(nodes_per_loop, 8)
        ticks = min(ticks, 8)
    rows = run_standing_benchmark(
        n_loops=n_loops, nodes_per_loop=nodes_per_loop, ticks=ticks
    )
    hub, ingest = rows["hub"], rows["ingest"]
    print(render_table([hub], title="E19 — standing vs fused hub serving"))
    print(render_table([ingest], title="E19 — standing-update overhead on columnar ingest"))
    if hub["match"] != 1.0:
        print("ERROR: standing results diverged from the uncached batch engine",
              file=sys.stderr)
        return 1
    if hub["auto_registered_shapes"] < 1.0:
        print("ERROR: the hub never auto-registered the hot shape", file=sys.stderr)
        return 1
    if not smoke and (hub["standing_queries_per_s"] < 10_000.0 or hub["hub_speedup"] < 1.5):
        print("ERROR: standing hub serving below the 10k/s, 1.5x gate", file=sys.stderr)
        return 1
    if not smoke and ingest["standing_overhead"] > 1.1:
        print("ERROR: standing ingest overhead above the 1.1x gate", file=sys.stderr)
        return 1
    if show_stats:
        from repro.obs import MetricsRegistry, absorb_stats

        reg = MetricsRegistry()
        absorb_stats(reg, {
            "standing_registered_shapes": hub["auto_registered_shapes"],
            "standing_served": hub["standing_served"],
            "standing_updates_applied": hub["standing_updates"],
            "standing_scan_fallbacks": hub["standing_fallbacks"],
        }, "engine")
        print("# stats:")
        for line in reg.render():
            print(f"  {line}")
    print(
        f"hub speedup: {hub['hub_speedup']:.2f}x "
        f"({hub['fused_queries_per_s']:.0f} -> {hub['standing_queries_per_s']:.0f} queries/s); "
        f"ingest overhead {ingest['standing_overhead']:.2f}x "
        f"({ingest['plain_samples_per_s']:.0f} -> {ingest['standing_samples_per_s']:.0f} samples/s)"
    )
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(stamp(rows), fh, indent=2, sort_keys=True)
        print(f"wrote {json_path}")
    return 0


def cmd_trace(
    n_loops: int,
    nodes: int,
    horizon: float,
    seed: int,
    shards: int,
    parallel: int,
    out: str,
) -> int:
    """Run a traced fleet shift and export the span ring as Chrome JSON."""
    import json

    from repro.cluster import Cluster, ClusterConfig
    from repro.experiments.loops_exp import watch_fleet_specs
    from repro.obs.trace import TRACER
    from repro.sim import Engine, RngRegistry
    from repro.workloads import WorkloadGenerator, WorkloadSpec

    engine = Engine()
    with Cluster(
        engine,
        ClusterConfig(
            n_nodes=nodes, telemetry_period_s=10.0, seed=seed,
            shards=shards, parallel=parallel,
        ),
    ) as cluster:
        generator = WorkloadGenerator(
            engine,
            cluster.scheduler,
            RngRegistry(seed=seed).stream("workload"),
            WorkloadSpec(n_jobs=max(4, nodes // 2), arrival_rate_per_s=1 / 120.0),
        )
        generator.start()
        runtime = cluster.loop_runtime()
        specs = watch_fleet_specs(
            "node_cpu_util", cluster.node_ids(), n_loops,
            period_s=60.0, window_s=300.0, threshold=0.5,
        )
        for spec in specs:
            spec.start_at = 300.0
        runtime.add_many(specs, start=True)
        TRACER.enable()
        TRACER.reset()
        try:
            engine.run(until=horizon)
            runtime.stop()
            doc = TRACER.export_chrome()
        finally:
            TRACER.disable()
            TRACER.reset()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    events = doc["traceEvents"]
    main_pid = doc["otherData"]["main_pid"]
    worker_events = sum(1 for e in events if e["pid"] != main_pid)
    names: dict = {}
    for e in events:
        names[e["name"]] = names.get(e["name"], 0) + 1
    print(f"traced {len(events)} spans across "
          f"{len({e['pid'] for e in events})} process(es) "
          f"({worker_events} worker-side); wrote {out}")
    for name in sorted(names):
        print(f"  {name:20s} x{names[name]}")
    return 0


def cmd_bench_obs(
    series: int,
    n_loops: int,
    ticks: int,
    json_path: Optional[str],
    smoke: bool,
) -> int:
    """Run the E20 observability-overhead benchmark and print (dump) rows.

    ``--smoke`` shrinks both halves and checks only exactness (traced
    and untraced sweeps must return identical results), not the
    overhead gates — the CI wiring check.  The full run gates disabled
    tracing at ≤1.02× and enabled tracing at ≤1.05× on both the ingest
    and standing-serving paths.
    """
    import json

    from repro.experiments.obs_exp import run_obs_benchmark
    from repro.experiments.provenance import stamp
    from repro.experiments.report import render_table

    if smoke:
        series, n_loops, ticks = min(series, 256), min(n_loops, 16), min(ticks, 6)
    rows = run_obs_benchmark(n_series=series, n_loops=n_loops, ticks=ticks)
    ingest, standing = rows["ingest"], rows["standing"]
    print(render_table([ingest], title="E20 — tracing overhead on columnar ingest"))
    print(render_table([standing], title="E20 — tracing overhead on standing hub serving"))
    if standing["match"] != 1.0:
        print("ERROR: traced and untraced sweeps returned different results",
              file=sys.stderr)
        return 1
    if not smoke:
        for half, row in (("ingest", ingest), ("standing", standing)):
            if row["disabled_overhead"] > 1.02:
                print(f"ERROR: disabled tracing above the 2% gate on {half}",
                      file=sys.stderr)
                return 1
            if row["enabled_overhead"] > 1.05:
                print(f"ERROR: enabled tracing above the 5% gate on {half}",
                      file=sys.stderr)
                return 1
    print(
        f"ingest: disabled {ingest['disabled_overhead']:.3f}x "
        f"enabled {ingest['enabled_overhead']:.3f}x; "
        f"standing: disabled {standing['disabled_overhead']:.3f}x "
        f"enabled {standing['enabled_overhead']:.3f}x "
        f"({standing['spans_recorded']:.0f} spans recorded)"
    )
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(stamp(rows), fh, indent=2, sort_keys=True)
        print(f"wrote {json_path}")
    return 0


def cmd_bench_diff(old_path: str, new_path: str, threshold: float, fail: bool) -> int:
    """Diff two benchmark artifacts; warn (or fail) on throughput drops."""
    from repro.experiments.benchdiff import (
        artifact_shas,
        diff_artifacts,
        load_artifact,
        render_diff,
    )

    try:
        old = load_artifact(old_path)
        new = load_artifact(new_path)
    except (OSError, ValueError) as exc:
        print(f"bench-diff: cannot load artifact: {exc}", file=sys.stderr)
        return 2
    try:
        rows = diff_artifacts(old, new, threshold=threshold)
    except ValueError as exc:
        print(f"bench-diff: {exc}", file=sys.stderr)
        return 2
    old_shas, new_shas = artifact_shas(old), artifact_shas(new)
    if old_shas or new_shas:
        print(f"# old: {', '.join(old_shas) or 'unstamped'}")
        print(f"# new: {', '.join(new_shas) or 'unstamped'}")
    print(render_diff(rows, threshold=threshold))
    regressed = [r for r in rows if r["regressed"]]
    if regressed and fail:
        return 1
    return 0


def cmd_bench_trend(paths: List[str], out: str, threshold: float) -> int:
    """Fold merged artifacts (oldest first) into a markdown trend table."""
    from repro.experiments.benchdiff import (
        artifact_label,
        load_artifact,
        render_trend,
        trend_artifacts,
    )

    artifacts = []
    labels = []
    for idx, path in enumerate(paths):
        try:
            artifact = load_artifact(path)
        except (OSError, ValueError) as exc:
            print(f"bench-trend: cannot load artifact: {exc}", file=sys.stderr)
            return 2
        artifacts.append(artifact)
        labels.append(artifact_label(artifact, fallback=f"run{idx}"))
    try:
        rows = trend_artifacts(artifacts, threshold=threshold)
    except ValueError as exc:
        print(f"bench-trend: {exc}", file=sys.stderr)
        return 2
    report = render_trend(rows, labels, threshold=threshold)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(report)
    regressed = [r for r in rows if r["regressed"]]
    print(f"bench-trend: {len(rows)} metric(s) across {len(paths)} run(s), "
          f"{len(regressed)} drifted beyond {threshold:.0%}; wrote {out}")
    for r in regressed:
        print(f"  DRIFTED {r['key']} ({r['ratio']:.2f}x over the window)")
    return 0


def _add_serving_args(parser, *, deadline_default: Optional[float] = None,
                      qps_default: float = 1000.0) -> None:
    """The one shared serving flag group (``query`` / ``serve`` /
    ``bench-serve``) — every serving command bills requests to a tenant
    on the front door instead of constructing its own engine."""
    grp = parser.add_argument_group("serving", "multi-tenant front-door options")
    grp.add_argument("--tenant", default="default",
                     help="tenant name requests are billed to")
    grp.add_argument("--qps", type=float, default=qps_default,
                     help="tenant token-bucket quota in queries/s")
    grp.add_argument("--deadline-ms", dest="deadline_ms", type=float,
                     default=deadline_default,
                     help="per-request deadline; expired requests are rejected")
    grp.add_argument("--stats", action="store_true",
                     help="print the unified metrics registry (serve.* included)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MAPE-K autonomy loops for HPC MODA (CLUSTER 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command")
    exp = sub.add_parser("experiments", help="regenerate every experiment table")
    exp.add_argument("--quick", action="store_true", help="reduced problem sizes")
    exp.add_argument("--seeds", type=int, nargs="*", default=[0, 1, 2])
    sub.add_parser("list", help="list experiments and their paper anchors")
    qry = sub.add_parser("query", help="evaluate a metric query over a simulated shift")
    qry.add_argument("expr", help='e.g. \'mean(node_cpu_util[600s] by 60s) group by (node)\'')
    qry.add_argument("--nodes", type=int, default=16)
    qry.add_argument("--horizon", type=float, default=1800.0, help="simulated seconds")
    qry.add_argument("--seed", type=int, default=7)
    qry.add_argument("--shards", type=int, default=1,
                     help="partition the store and serve through the federated engine")
    qry.add_argument("--parallel", type=int, default=0,
                     help="worker processes for the shared-memory parallel tier "
                          "(requires --shards > 1)")
    _add_serving_args(qry)
    srv = sub.add_parser("serve",
                         help="serve a sustained multi-tenant load over a shift")
    srv.add_argument("--nodes", type=int, default=32)
    srv.add_argument("--horizon", type=float, default=1800.0, help="simulated seconds")
    srv.add_argument("--seed", type=int, default=7)
    srv.add_argument("--duration", type=float, default=2.0,
                     help="wall-clock serving seconds")
    srv.add_argument("--drivers", type=int, default=4,
                     help="driver threads for the primary tenant")
    _add_serving_args(srv, deadline_default=250.0, qps_default=4000.0)
    loops = sub.add_parser("loops", help="host a watch-loop fleet on the unified runtime")
    loops.add_argument("--loops", dest="n_loops", type=int, default=8)
    loops.add_argument("--nodes", type=int, default=32)
    loops.add_argument("--horizon", type=float, default=1800.0, help="simulated seconds")
    loops.add_argument("--seed", type=int, default=7)
    bloops = sub.add_parser("bench-loops", help="run the E15 loop-fleet benchmark")
    bloops.add_argument("--loops", dest="n_loops", type=int, default=256)
    bloops.add_argument("--ticks", type=int, default=10)
    bloops.add_argument("--json", dest="json_path", default=None, help="write rows as JSON")
    bshard = sub.add_parser("bench-shard", help="run the E16 sharded-store benchmark")
    bshard.add_argument("--series", type=int, default=4096)
    bshard.add_argument("--shards", type=int, default=8)
    bshard.add_argument("--ticks", type=int, default=64, help="commits per store")
    bshard.add_argument("--json", dest="json_path", default=None, help="write rows as JSON")
    bshard.add_argument("--smoke", action="store_true",
                        help="small exactness-only run (CI wiring check)")
    bshard.add_argument("--parallel", type=int, default=0,
                        help="run the storage measurements through the "
                             "process-parallel tier with this many workers")
    bshard.add_argument("--stats", action="store_true",
                        help="print standing-query / federation / pool counters")
    sup = sub.add_parser("supervise", help="run a supervised fleet with injected faults")
    sup.add_argument("--loops", dest="n_loops", type=int, default=64)
    sup.add_argument("--seed", type=int, default=0)
    bsup = sub.add_parser("bench-supervise", help="run the E17 fleet-supervision benchmark")
    bsup.add_argument("--loops", dest="n_loops", type=int, default=256)
    bsup.add_argument("--ticks", type=int, default=20, help="shared-serving fleet ticks")
    bsup.add_argument("--json", dest="json_path", default=None, help="write rows as JSON")
    bsup.add_argument("--smoke", action="store_true",
                      help="small run without the shared-serving perf gate (CI wiring check)")
    bpar = sub.add_parser("bench-parallel", help="run the E18 process-parallel benchmark")
    bpar.add_argument("--series", type=int, default=4096)
    bpar.add_argument("--shards", type=int, default=8)
    bpar.add_argument("--workers", type=int, default=4, help="worker processes")
    bpar.add_argument("--ticks", type=int, default=64, help="commits per store")
    bpar.add_argument("--json", dest="json_path", default=None, help="write rows as JSON")
    bpar.add_argument("--smoke", action="store_true",
                      help="small exactness-only run (CI wiring check)")
    bstand = sub.add_parser("bench-standing",
                            help="run the E19 standing-query benchmark")
    bstand.add_argument("--loops", dest="n_loops", type=int, default=256)
    bstand.add_argument("--nodes-per-loop", dest="nodes_per_loop", type=int, default=16)
    bstand.add_argument("--ticks", type=int, default=60, help="hub serving ticks")
    bstand.add_argument("--json", dest="json_path", default=None, help="write rows as JSON")
    bstand.add_argument("--smoke", action="store_true",
                        help="small exactness-only run (CI wiring check)")
    bstand.add_argument("--stats", action="store_true",
                        help="print standing-query engine counters")
    trc = sub.add_parser("trace",
                         help="run a traced fleet and export Chrome-trace JSON")
    trc.add_argument("--loops", dest="n_loops", type=int, default=256)
    trc.add_argument("--nodes", type=int, default=32)
    trc.add_argument("--horizon", type=float, default=900.0, help="simulated seconds")
    trc.add_argument("--seed", type=int, default=7)
    trc.add_argument("--shards", type=int, default=1,
                     help="partition the store and trace the federated scatter path")
    trc.add_argument("--parallel", type=int, default=0,
                     help="worker processes (traces cross-process shard spans)")
    trc.add_argument("--out", default="trace.json",
                     help="Chrome-trace JSON output path (default trace.json)")
    bobs = sub.add_parser("bench-obs",
                          help="run the E20 observability-overhead benchmark")
    bobs.add_argument("--series", type=int, default=4096)
    bobs.add_argument("--loops", dest="n_loops", type=int, default=64)
    bobs.add_argument("--ticks", type=int, default=30)
    bobs.add_argument("--json", dest="json_path", default=None, help="write rows as JSON")
    bobs.add_argument("--smoke", action="store_true",
                      help="small exactness-only run (CI wiring check)")
    bsrv = sub.add_parser("bench-serve",
                          help="run the E21 multi-tenant serving benchmark")
    bsrv.add_argument("--nodes", type=int, default=64)
    bsrv.add_argument("--duration", type=float, default=3.0,
                      help="wall-clock seconds for the mixed-load phase")
    bsrv.add_argument("--drivers", type=int, default=4,
                      help="unpaced driver threads per greedy traffic class")
    bsrv.add_argument("--json", dest="json_path", default=None, help="write rows as JSON")
    bsrv.add_argument("--smoke", action="store_true",
                      help="small exactness-and-accounting-only run (CI wiring check)")
    _add_serving_args(bsrv, deadline_default=250.0, qps_default=4000.0)
    bdiff = sub.add_parser("bench-diff",
                           help="diff two benchmark artifacts for throughput regressions")
    bdiff.add_argument("old", help="baseline artifact (e.g. previous BENCH_all.json)")
    bdiff.add_argument("new", help="candidate artifact")
    bdiff.add_argument("--threshold", type=float, default=0.2,
                       help="regression threshold as a fraction (default 0.2 = 20%%)")
    bdiff.add_argument("--fail", action="store_true",
                       help="exit non-zero when any metric regressed beyond the threshold")
    btrend = sub.add_parser("bench-trend",
                            help="fold merged artifacts into a throughput trend table")
    btrend.add_argument("artifacts", nargs="+",
                        help="two or more merged BENCH_all.json files, oldest first")
    btrend.add_argument("--out", default="BENCH_trend.md",
                        help="markdown output path (default BENCH_trend.md)")
    btrend.add_argument("--threshold", type=float, default=0.2,
                        help="drift threshold as a fraction (default 0.2 = 20%%)")
    sub.add_parser("version", help="print the package version")
    args = parser.parse_args(argv)

    if args.command == "experiments":
        return cmd_experiments(args.quick, args.seeds)
    if args.command == "query":
        return cmd_query(
            args.expr, args.nodes, args.horizon, args.seed, args.shards,
            args.parallel, args.stats, args.tenant, args.qps, args.deadline_ms,
        )
    if args.command == "serve":
        return cmd_serve(
            args.nodes, args.horizon, args.seed, args.duration, args.drivers,
            args.tenant, args.qps, args.deadline_ms, args.stats,
        )
    if args.command == "bench-serve":
        return cmd_bench_serve(
            args.nodes, args.duration, args.drivers, args.json_path, args.smoke,
            args.tenant, args.qps, args.deadline_ms, args.stats,
        )
    if args.command == "loops":
        return cmd_loops(args.n_loops, args.nodes, args.horizon, args.seed)
    if args.command == "bench-loops":
        return cmd_bench_loops(args.n_loops, args.ticks, args.json_path)
    if args.command == "bench-shard":
        return cmd_bench_shard(
            args.series, args.shards, args.ticks, args.json_path, args.smoke,
            args.parallel, args.stats,
        )
    if args.command == "supervise":
        return cmd_supervise(args.n_loops, args.seed)
    if args.command == "bench-supervise":
        return cmd_bench_supervise(args.n_loops, args.ticks, args.json_path, args.smoke)
    if args.command == "bench-parallel":
        return cmd_bench_parallel(
            args.series, args.shards, args.workers, args.ticks, args.json_path,
            args.smoke,
        )
    if args.command == "bench-standing":
        return cmd_bench_standing(
            args.n_loops, args.nodes_per_loop, args.ticks, args.json_path,
            args.smoke, args.stats,
        )
    if args.command == "trace":
        return cmd_trace(
            args.n_loops, args.nodes, args.horizon, args.seed, args.shards,
            args.parallel, args.out,
        )
    if args.command == "bench-obs":
        return cmd_bench_obs(
            args.series, args.n_loops, args.ticks, args.json_path, args.smoke,
        )
    if args.command == "bench-diff":
        return cmd_bench_diff(args.old, args.new, args.threshold, args.fail)
    if args.command == "bench-trend":
        return cmd_bench_trend(args.artifacts, args.out, args.threshold)
    if args.command == "list":
        return cmd_list()
    if args.command == "version":
        return cmd_version()
    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

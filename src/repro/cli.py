"""Command-line interface.

``python -m repro <command>``:

* ``experiments [ID ...] [--quick] [--seeds ...] [--json PATH]`` — run
  the rows of the given experiments (every experiment when given none)
  from the table in :mod:`repro.experiments.runner`, print each row as
  a table, optionally write them as one provenance-stamped JSON
  artifact, and exit 1 when a row's exactness flag is not 1.0.
  ``--quick`` runs the smaller CI sizes.
* ``list`` — enumerate experiments with their paper anchors.
* ``query "<expr>"`` — run a short simulated shift and serve a metric
  query expression (e.g. ``mean(node_cpu_util[600s] by 60s)``) through
  the multi-tenant front door over the vectorized query engine with
  tiered rollups.  ``--shards N`` splits the telemetry store's series
  into N places; ``--parallel W`` additionally backs the store with
  shared-memory columns and executes the per-place scatter/standing/fold
  passes on W worker processes.  ``query`` and ``serve`` share one
  serving flag group: ``--tenant`` / ``--qps`` / ``--deadline-ms`` /
  ``--stats`` (the unified metrics registry, ``serve.*`` included).
* ``serve`` — run a sustained multi-tenant serving demo: driver threads
  for an interactive, a batch, and a best-effort tenant hammer the
  front door while ingest keeps committing under the write gate; prints
  the per-tenant admission/degrade/shed/p99 table.
* ``loops`` — run a watch-loop fleet on the unified runtime over a
  simulated shift and print per-loop stats, fused-query serving
  counters, and the loops' own self-telemetry queried back out.
* ``supervise`` — run a fleet with injected stuck/frozen loops under
  the meta-loop supervisors and print the healing timeline (healthy →
  degraded → restored staleness, audited restarts).
* ``trace`` — run a watch-loop fleet with span tracing enabled and
  export the span ring as Chrome-trace JSON (loads in Perfetto /
  ``chrome://tracing``); ``--shards``/``--parallel`` exercise the
  federated and worker-process paths, whose worker-side spans arrive
  parented under the dispatching scatter span.
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
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def cmd_list() -> int:
    from repro.experiments.runner import EXPERIMENTS

    width = max(len(exp.anchor) for exp in EXPERIMENTS.values())
    for exp_id, exp in EXPERIMENTS.items():
        print(f"{exp_id:4s} {exp.anchor:{width}s}  {exp.title}")
    return 0


def cmd_version() -> int:
    from repro import __version__

    print(__version__)
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
    """The one shared serving flag group (``query`` / ``serve``) — every
    serving command bills requests to a tenant on the front door instead
    of constructing its own engine."""
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MAPE-K autonomy loops for HPC MODA (CLUSTER 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command")
    exp = sub.add_parser("experiments", help="run experiment rows (every experiment "
                                             "when no id is given)")
    exp.add_argument("ids", nargs="*", metavar="ID", help="experiment ids, e.g. E15")
    exp.add_argument("--quick", action="store_true", help="reduced problem sizes")
    exp.add_argument("--seeds", type=int, nargs="+", default=None,
                     help="replication seeds of the seeded rows (E3: 0 1 2)")
    exp.add_argument("--json", dest="json_path", default=None,
                     help="write the rows as one stamped JSON artifact")
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
    sup = sub.add_parser("supervise", help="run a supervised fleet with injected faults")
    sup.add_argument("--loops", dest="n_loops", type=int, default=64)
    sup.add_argument("--seed", type=int, default=0)
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
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "experiments":
        from repro.experiments.runner import run_experiments

        return run_experiments(args.ids, quick=args.quick, seeds=args.seeds,
                               json_path=args.json_path)
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
    if args.command == "loops":
        return cmd_loops(args.n_loops, args.nodes, args.horizon, args.seed)
    if args.command == "supervise":
        return cmd_supervise(args.n_loops, args.seed)
    if args.command == "trace":
        return cmd_trace(
            args.n_loops, args.nodes, args.horizon, args.seed, args.shards,
            args.parallel, args.out,
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

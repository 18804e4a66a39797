"""Tests for the CLI."""


from repro.cli import EXPERIMENT_INDEX, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out and "E13" in out
    assert "Scheduler case" in out


def test_version_command(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1.0.0"


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "experiments" in capsys.readouterr().out


def test_index_covers_all_experiments():
    ids = [e[0] for e in EXPERIMENT_INDEX]
    assert ids == [f"E{i}" for i in range(1, 22)]


def test_loops_command(capsys):
    assert main(["loops", "--loops", "4", "--nodes", "8", "--horizon", "900"]) == 0
    out = capsys.readouterr().out
    assert "watch-0000" in out
    assert "fused reads" in out
    assert "loop_iteration_ms" in out


def test_bench_loops_command(tmp_path, capsys):
    out_path = tmp_path / "BENCH_loops.json"
    assert main(["bench-loops", "--loops", "8", "--ticks", "2", "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "monitor speedup" in out
    assert "hosting overhead" in out
    import json

    data = json.loads(out_path.read_text())
    assert data["fleet"]["match"] == 1.0
    assert data["overhead"]["iterations_match"] == 1.0


def test_bench_ingest_command(tmp_path, capsys):
    out_path = tmp_path / "BENCH_ingest.json"
    assert main([
        "bench-ingest", "--nodes", "64", "--metrics", "4",
        "--horizon", "30", "--json", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    import json

    row = json.loads(out_path.read_text())
    assert row["match"] == 1.0
    assert row["n_nodes"] == 64.0


def test_query_command(capsys):
    assert main([
        "query", "mean(node_cpu_util[600s] by 60s)", "--nodes", "4", "--horizon", "900",
    ]) == 0
    out = capsys.readouterr().out
    assert "source=" in out
    assert "# engine:" in out


def test_query_command_group_by(capsys):
    assert main([
        "query",
        'max(node_power_watts{node=~"n00.*"}[600s]) group by (node)',
        "--nodes", "4", "--horizon", "900",
    ]) == 0
    out = capsys.readouterr().out
    assert "node=" in out


def test_query_command_parse_error(capsys):
    assert main(["query", "not a query", "--nodes", "2", "--horizon", "60"]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_query_command_sharded_with_stats(capsys):
    assert main([
        "query", "mean(node_cpu_util[600s] by 60s) group by (node)",
        "--nodes", "4", "--horizon", "900", "--shards", "4", "--stats",
    ]) == 0
    out = capsys.readouterr().out
    assert "source=standing" in out  # eligible shape served from standing state
    assert "federation.shards = 4" in out
    assert "cache.hits = " in out
    assert "federation.fanout_mean = " in out
    assert "standing.registered_shapes = 1" in out
    assert "standing.scan_fallbacks = 0" in out
    # legacy flat names survive as aliases next to the canonical ones
    assert "[cache_hits]" in out


def test_query_command_stats_unsharded(capsys):
    assert main([
        "query", "mean(node_cpu_util[600s] by 60s)",
        "--nodes", "4", "--horizon", "600", "--stats",
    ]) == 0
    out = capsys.readouterr().out
    assert "cache.hits = " in out
    assert "federation." not in out  # no federation counters on one store


def test_supervise_command(capsys):
    assert main(["supervise", "--loops", "16"]) == 0
    out = capsys.readouterr().out
    assert "supervisor actions (audited):" in out
    assert "restart act-" in out
    assert "final p95" in out


def test_bench_supervise_smoke_command(tmp_path, capsys):
    out_path = tmp_path / "BENCH_supervise.json"
    assert main([
        "bench-supervise", "--loops", "32", "--ticks", "8",
        "--smoke", "--json", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "healing:" in out
    assert "adaptive fusion" in out
    import json

    rows = json.loads(out_path.read_text())
    assert rows["heal"]["restores_within_2x"] == 1.0
    assert rows["fusion"]["match"] == 1.0
    # bench artifacts are stamped for cross-run comparability
    assert rows["git_sha"] and rows["generated_at"]


def test_bench_loops_artifact_carries_provenance(tmp_path, capsys):
    out_path = tmp_path / "BENCH_loops.json"
    assert main(["bench-loops", "--loops", "4", "--ticks", "2", "--json", str(out_path)]) == 0
    capsys.readouterr()
    import json

    data = json.loads(out_path.read_text())
    assert data["git_sha"] and data["generated_at"]


def test_bench_shard_smoke_command(tmp_path, capsys):
    out_path = tmp_path / "BENCH_shard.json"
    assert main([
        "bench-shard", "--series", "64", "--shards", "4", "--ticks", "8",
        "--smoke", "--json", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "query speedup" in out
    import json

    rows = json.loads(out_path.read_text())
    assert rows["query"]["bit_identical"] == 1.0
    assert rows["query"]["standing_match"] == 1.0
    assert rows["ingest"]["match"] == 1.0
    assert rows["query"]["n_shards"] == 4.0


def test_bench_obs_smoke_command(tmp_path, capsys):
    out_path = tmp_path / "BENCH_obs.json"
    assert main(["bench-obs", "--smoke", "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "ingest: disabled" in out
    assert "spans recorded" in out
    import json

    rows = json.loads(out_path.read_text())
    assert rows["standing"]["match"] == 1.0  # spans never perturb results
    assert rows["standing"]["spans_recorded"] > 0
    assert rows["ingest"]["commits"] > 0
    assert rows["git_sha"] and rows["generated_at"]


def test_query_command_parallel_with_stats(capsys):
    assert main([
        "query", "mean(node_cpu_util[600s] by 60s) group by (node)",
        "--nodes", "4", "--horizon", "900", "--shards", "4", "--parallel", "2", "--stats",
    ]) == 0
    out = capsys.readouterr().out
    assert "source=standing" in out  # eligible shape served from standing state
    assert "federation.shards = 4" in out
    assert "pool.workers = 2" in out
    assert "standing.registered_shapes = 1" in out


def test_bench_shard_parallel_smoke_command(tmp_path, capsys):
    out_path = tmp_path / "BENCH_parallel_storage.json"
    assert main([
        "bench-shard", "--series", "64", "--shards", "4", "--ticks", "8",
        "--parallel", "2", "--smoke", "--json", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "scatter speedup" in out
    assert "shm ingest overhead" in out
    import json

    rows = json.loads(out_path.read_text())
    assert rows["scatter"]["bit_identical"] == 1.0
    assert rows["ingest"]["match"] == 1.0
    assert rows["git_sha"] and rows["generated_at"]


def test_bench_parallel_smoke_command(tmp_path, capsys):
    out_path = tmp_path / "BENCH_parallel.json"
    assert main([
        "bench-parallel", "--series", "64", "--shards", "4", "--workers", "2",
        "--ticks", "8", "--smoke", "--json", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "scatter speedup" in out
    assert "fleet + supervision reruns exact" in out
    import json

    rows = json.loads(out_path.read_text())
    assert rows["scatter"]["bit_identical"] == 1.0
    assert rows["ingest"]["match"] == 1.0
    assert rows["fleet"]["match"] == 1.0
    assert rows["supervise"]["trace_match"] == 1.0
    assert rows["supervise"]["restores_within_2x"] == 1.0
    assert rows["git_sha"] and rows["generated_at"]


def test_bench_diff_command(tmp_path, capsys):
    import json

    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    old_path.write_text(json.dumps(
        {"ingest": {"samples_per_s": 1000.0, "git_sha": "aaa111"}, "wall_ms": 5.0}
    ))
    new_path.write_text(json.dumps(
        {"ingest": {"samples_per_s": 700.0, "git_sha": "bbb222"}, "wall_ms": 9.0}
    ))
    # default: warn only, exit 0
    assert main(["bench-diff", str(old_path), str(new_path)]) == 0
    out = capsys.readouterr().out
    assert "# old: aaa111" in out and "# new: bbb222" in out
    assert "1 regressed beyond 20%" in out
    assert "REGRESSED" in out
    # --fail upgrades regressions to exit 1
    assert main(["bench-diff", str(old_path), str(new_path), "--fail"]) == 1
    capsys.readouterr()
    # within threshold: no regression even with --fail
    assert main([
        "bench-diff", str(old_path), str(new_path), "--threshold", "0.5", "--fail",
    ]) == 0
    assert "0 regressed" in capsys.readouterr().out


def test_bench_diff_command_errors(tmp_path, capsys):
    import json

    good = tmp_path / "good.json"
    good.write_text(json.dumps({"x_per_s": 1.0}))
    assert main(["bench-diff", str(tmp_path / "missing.json"), str(good)]) == 2
    assert "cannot load artifact" in capsys.readouterr().err
    assert main(["bench-diff", str(good), str(good), "--threshold", "1.5"]) == 2
    assert "threshold" in capsys.readouterr().err


def test_query_command_serving_flags(capsys):
    assert main([
        "query", "mean(node_cpu_util[600s] by 60s)",
        "--nodes", "4", "--horizon", "900",
        "--tenant", "dashboards", "--qps", "50", "--deadline-ms", "60000",
    ]) == 0
    out = capsys.readouterr().out
    assert "tenant=dashboards" in out
    assert "latency=" in out


def test_query_command_stats_include_serving(capsys):
    assert main([
        "query", "mean(node_cpu_util[600s] by 60s)",
        "--nodes", "4", "--horizon", "600", "--stats",
    ]) == 0
    out = capsys.readouterr().out
    assert "serve.submitted = " in out
    assert "serve.tenant_default.served = " in out


def test_serve_command(capsys):
    assert main([
        "serve", "--nodes", "8", "--horizon", "900",
        "--duration", "0.3", "--drivers", "2", "--qps", "500",
    ]) == 0
    out = capsys.readouterr().out
    assert "tenant" in out and "p99_ms" in out
    assert "besteffort" in out  # the three-tenant demo mix


def test_bench_serve_smoke_command(tmp_path, capsys):
    out_path = tmp_path / "BENCH_serve.json"
    assert main([
        "bench-serve", "--nodes", "8", "--duration", "0.4", "--drivers", "2",
        "--smoke", "--json", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "E21" in out
    import json

    rows = json.loads(out_path.read_text())
    assert rows["load"]["match"] == 1.0
    assert rows["load"]["accounting_ok"] == 1.0
    assert rows["isolation"]["accounting_ok"] == 1.0

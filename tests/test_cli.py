"""Tests for the CLI."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import EXACTNESS_FLAGS, EXPERIMENTS

CI_WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def run_rows(tmp_path, capsys, *argv):
    """``repro experiments <argv> --json``: (exit code, output, artifact)."""
    out_path = tmp_path / "BENCH.json"
    code = main(["experiments", *argv, "--json", str(out_path)])
    return code, capsys.readouterr(), json.loads(out_path.read_text())


def with_row(monkeypatch, exp_id, name, result):
    """Swap the row function of one table row for one returning ``result``."""
    exp = EXPERIMENTS[exp_id]
    rows = tuple(
        dataclasses.replace(row, run=lambda **_: dict(result)) if row.name == name else row
        for row in exp.rows
    )
    monkeypatch.setitem(EXPERIMENTS, exp_id, dataclasses.replace(exp, rows=rows))


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


def test_table_covers_all_experiments():
    assert list(EXPERIMENTS) == [f"E{i}" for i in range(1, 22)]
    # E14 is a frozen README row: listed, nothing to run
    assert [e for e, exp in EXPERIMENTS.items() if not exp.rows] == ["E14"]
    for exp in EXPERIMENTS.values():
        names = [row.name for row in exp.rows]
        assert len(names) == len(set(names))


def test_loops_command(capsys):
    assert main(["loops", "--loops", "4", "--nodes", "8", "--horizon", "900"]) == 0
    out = capsys.readouterr().out
    assert "watch-0000" in out
    assert "fused reads" in out
    assert "loop_iteration_ms" in out


def test_experiments_e15_rows(tmp_path, capsys):
    code, cap, data = run_rows(tmp_path, capsys, "E15", "--quick")
    assert code == 0
    assert "E15 — fused fleet monitoring" in cap.out
    assert "E15b — runtime hosting overhead" in cap.out
    assert data["fleet"]["match"] == 1.0
    assert data["overhead"]["iterations_match"] == 1.0
    # artifacts are stamped for cross-run comparability
    assert data["git_sha"] and data["generated_at"]


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


def test_experiments_e17_rows(tmp_path, capsys):
    code, cap, rows = run_rows(tmp_path, capsys, "E17", "--quick")
    assert code == 0
    assert "E17b — shared hub serving" in cap.out
    assert rows["heal"]["restores_within_2x"] == 1.0
    assert rows["shared"]["match"] == 1.0
    assert rows["git_sha"] and rows["generated_at"]


def test_experiments_e16_rows(tmp_path, capsys):
    code, cap, rows = run_rows(tmp_path, capsys, "E16", "--quick")
    assert code == 0
    assert "query_speedup" in cap.out
    assert rows["query"]["bit_identical"] == 1.0
    assert rows["query"]["standing_match"] == 1.0
    assert rows["ingest"]["match"] == 1.0
    assert rows["query"]["n_shards"] == 8.0
    assert rows["git_sha"] and rows["generated_at"]


def test_experiments_e20_rows(tmp_path, capsys):
    code, cap, rows = run_rows(tmp_path, capsys, "E20", "--quick")
    assert code == 0
    assert "disabled_overhead" in cap.out
    assert "spans_recorded" in cap.out
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


def test_experiments_e18_rows(tmp_path, capsys):
    code, cap, rows = run_rows(tmp_path, capsys, "E18", "--quick")
    assert code == 0
    assert "scatter_speedup" in cap.out
    assert "shm_overhead" in cap.out
    assert rows["scatter"]["bit_identical"] == 1.0
    assert rows["ingest"]["match"] == 1.0
    assert rows["fleet"]["match"] == 1.0
    assert rows["supervise"]["trace_match"] == 1.0
    assert rows["supervise"]["restarts_match"] == 1.0
    assert rows["supervise"]["restores_within_2x"] == 1.0
    assert rows["small_pass_tax"]["bit_identical"] == 1.0
    assert rows["git_sha"] and rows["generated_at"]


def test_experiments_e19_rows(tmp_path, capsys):
    code, cap, rows = run_rows(tmp_path, capsys, "E19", "--quick")
    assert code == 0
    assert "E19 — standing vs fused hub serving" in cap.out
    assert rows["hub"]["match"] == 1.0
    assert rows["hub"]["auto_registered_shapes"] >= 1.0
    assert rows["ingest"]["commits"] > 0
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


def test_experiments_e21_rows(tmp_path, capsys):
    code, cap, rows = run_rows(tmp_path, capsys, "E21", "--quick")
    assert code == 0
    assert "E21" in cap.out
    assert rows["load"]["match"] == 1.0
    assert rows["load"]["accounting_ok"] == 1.0
    assert rows["isolation"]["accounting_ok"] == 1.0
    assert rows["git_sha"] and rows["generated_at"]


def test_inexact_row_fails_the_run_and_names_it(tmp_path, capsys, monkeypatch):
    with_row(monkeypatch, "E16", "ingest", {"match": 0.0})
    with_row(monkeypatch, "E16", "query", {"bit_identical": 1.0, "standing_match": 1.0})
    code, cap, rows = run_rows(tmp_path, capsys, "E16", "--quick")
    assert code == 1
    assert "E16 row 'ingest': match = 0.0" in cap.err
    assert rows["ingest"]["match"] == 0.0  # the artifact is still written


@pytest.mark.parametrize("exp_id, name, flag", [
    ("E15", "overhead", "iterations_match"),
    ("E18", "supervise", "restarts_match"),
])
def test_iterations_and_restarts_match_fail_the_run(capsys, monkeypatch, exp_id, name, flag):
    assert flag in EXACTNESS_FLAGS
    for row in EXPERIMENTS[exp_id].rows:
        with_row(monkeypatch, exp_id, row.name, {flag: 0.0 if row.name == name else 1.0})
    assert main(["experiments", exp_id, "--quick"]) == 1
    err = capsys.readouterr().err
    assert f"{exp_id} row {name!r}: {flag} = 0.0" in err
    assert err.count("ERROR") == 1


def test_unknown_experiment_id(capsys):
    assert main(["experiments", "E15", "E99"]) == 2
    assert "E99" in capsys.readouterr().err


def test_ci_rows_name_table_ids():
    """Every ``row:`` of the CI benchmark matrix parses as a command and
    names experiments of the table (read as text: no YAML dependency)."""
    rows = re.findall(r"^\s*row:\s*(.+?)\s*$", CI_WORKFLOW.read_text(), re.MULTILINE)
    assert rows
    parser = build_parser()
    for row in rows:
        args = parser.parse_args(row.split())
        assert args.command == "experiments", row
        assert args.ids and set(args.ids) <= set(EXPERIMENTS), row
        assert all(EXPERIMENTS[exp_id].rows for exp_id in args.ids), row
        assert args.json_path and args.json_path.startswith("benchmarks/BENCH_"), row
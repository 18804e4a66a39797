"""Smoke test of the benchmark itself (collected by tier-1).

Runs ``bench/run.py --smoke`` — every workload, untraced and traced, at
tiny sizes — and checks that the ruler still works: every declared
workload and metric is present with its unit, the correctness checks
ran and passed, the traced and untraced action digests agree, the budget
components sum to the total, and nothing outlives a workload.  No timing
is asserted.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out) as fh:
        return json.load(fh), proc.stdout


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_every_workload_and_metric_is_reported_with_its_unit(smoke, spec):
    result, stdout = smoke
    printed = {tuple(line.split()[:2]): line.split()[3] for line in stdout.splitlines()
               if len(line.split()) == 4}
    assert result["failed"] == []
    for workload in (w["name"] for w in spec["workloads"]):
        row = result["workloads"][workload]
        assert row["correct"] and row["checks_failed"] == []
        assert row["attempted"] >= 1 and row["failed"] == 0
        for kind in ("end_to_end", "per_layer"):
            for metric in spec[kind]:
                assert metric["name"] in row[kind], (workload, metric["name"])
                assert printed[(workload, metric["name"])] == metric["unit"]
        for metric in spec["end_to_end"]:
            assert row["end_to_end"][metric["name"]] > 0.0, (workload, metric["name"])
        assert row["obs.trace_overhead_ratio"] > 0.0
        assert row["per_layer"]["obs.spans_recorded"] > 0


def test_action_digest_is_the_same_traced_and_untraced(smoke):
    untraced, traced = smoke[0]["workloads"]["fleet_act"]["action_digest"]
    assert untraced is not None and untraced == traced


def test_budget_components_sum_to_the_total(smoke):
    layers = smoke[0]["workloads"]["fleet_act"]["per_layer"]
    parts = sum(layers[f"budget.{p}_sim_s"]
                for p in ("sample_to_commit", "commit_to_observe", "observe_to_execute"))
    assert parts == pytest.approx(layers["s2a_sim_s_p50"], rel=0.05)
    # the host-time budget is checked inside the traced run (it owns the
    # total it must sum to); a miss would have failed ``correct`` above
    assert all(layers[f"budget.{p}_wall_ms"] > 0.0
               for p in ("sample_to_commit", "commit_to_observe", "observe_to_execute"))


def test_each_workload_exercises_its_own_layers(smoke):
    rows = smoke[0]["workloads"]
    assert rows["fleet_act"]["per_layer"]["core.loop_iterations"] > 0
    assert rows["fleet_act"]["per_layer"]["query.fold_busy_s"] == 0.0
    assert rows["ingest_stream"]["per_layer"]["query.fold_calls"] > 0
    assert rows["ingest_stream"]["per_layer"]["core.loop_iterations"] == 0.0
    assert rows["serve_dash"]["per_layer"]["shard.pool_dispatches"] > 0
    assert rows["serve_dash"]["per_layer"]["telemetry.commits"] == 0.0
    assert rows["serve_mixed"]["per_layer"]["telemetry.commits"] > 0
    assert rows["serve_mixed"]["per_layer"]["serve.write_lag_ms_p90"] > 0.0


def test_leak_checks_ran_in_every_workload(smoke):
    # each run checks its own process after closing what it built; a leak
    # would have failed ``correct`` above — here: the checks did run
    for workload, row in smoke[0]["workloads"].items():
        for check in ("no_shm_leak", "no_thread_leak", "no_process_leak"):
            assert check in row["checks_run"], (workload, check)


def test_a_single_run_leaves_no_process_behind():
    # the pool workload in its own session: once the run has exited, no
    # process of that session may be left (the resource tracker used to be)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "ingest_stream",
         "--smoke", "--seed", "3", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr[-2000:]
    assert json.loads(stdout.splitlines()[-1])["correct"]
    left = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == proc.pid:  # session id
            left.append((entry, fields[0]))
    assert left == []

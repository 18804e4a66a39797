#!/usr/bin/env python3
"""The repo's benchmark: sample -> action, layer by layer.

Two ways to run it, both from the repository root::

    python3 bench/run.py [--seed N] [--workload NAME] [--smoke] [--out FILE]

runs every workload (or the named one) in a fresh subprocess — once
untraced for the end-to-end metrics, once traced for the per-layer
metrics — checks answers, prints every metric as ``workload metric value
unit``, writes one JSON and exits non-zero on any failed check.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

is one run of one workload in this process (what the orchestrating form
above spawns, and what an external driver calls): it prints the same
metric lines and, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) that
``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = ("fleet_act", "ingest_stream", "serve_dash", "serve_mixed")
SMOKE_SECONDS = 1.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    if name == "fleet_act":
        import wl_fleet_act

        return wl_fleet_act.run(seed, seconds, trace, smoke)
    if name == "ingest_stream":
        import wl_ingest_stream

        return wl_ingest_stream.run(seed, seconds, trace, smoke)
    import wl_serve

    return wl_serve.run(seed, seconds, trace, smoke, mixed=name == "serve_mixed")


def result_path(name: str, trace: bool) -> str:
    return os.path.join(HERE, "out", f"result-{name}-t{int(trace)}.json")


def print_metrics(name: str, metrics: dict) -> None:
    for metric, entry in metrics.items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")


# ------------------------------------------------------------------ one run


def single(args, spec: dict) -> int:
    import bench_common

    name, trace = args.workload, bool(args.trace)
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    )
    provenance = bench_common.host_provenance(args.seed)
    t0 = time.perf_counter()
    result = run_workload(name, args.seed, seconds, trace, args.smoke)
    checks = result.pop("checks")
    recorder = result.pop("recorder", None)

    values = dict(result["end_to_end"])
    listed = spec["end_to_end"]
    if trace:
        listed = spec["per_layer"]
        values = dict(result["per_layer"])
        values.update(bench_common.code_size())
        values["obs.spans_recorded"] = float(len(recorder.rows))
        values["proc.cpu_s"] = bench_common.cpu_s()
        values["host.speed_factor"] = result["host_speed_factor"]
        values["failed_share"] = result["failed"] / max(1, result["attempted"])
    # a layer that does no work on this workload reports zero
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in listed}
    unknown = sorted(set(values) - set(metrics))
    checks.check("every_measured_metric_is_declared", not unknown, f"{unknown[:5]}")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    if recorder is not None:
        recorder.dump(os.path.join(HERE, "out", f"trace-{name}.json"),
                      {"workload": name, "seed": args.seed, "clock": "time.perf_counter"})
    result.update(
        workload=name, traced=trace, smoke=args.smoke, seconds=seconds,
        correct=checks.ok, checks_run=checks.run, checks_failed=checks.failed,
        metrics=metrics, provenance=provenance, run_wall_s=time.perf_counter() - t0,
    )
    with open(result_path(name, trace), "w") as fh:
        json.dump(result, fh, indent=1)

    for failure in checks.failed:
        print(f"CHECK FAILED {name}: {failure}", file=sys.stderr)
    print_metrics(name, metrics)
    print(json.dumps({"correct": checks.ok, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0 if checks.ok else 1


# ------------------------------------------------------- every workload


def orchestrate(args, spec: dict) -> int:
    import bench_common

    names = [args.workload] if args.workload else list(WORKLOADS)
    out = {"provenance": bench_common.host_provenance(args.seed), "smoke": args.smoke,
           "workloads": {}}
    failed = []
    for name in names:
        runs = {}
        procs = []
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--trace", str(trace)]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            if args.smoke:
                cmd.append("--smoke")
            procs.append(subprocess.Popen(cmd, stdout=subprocess.DEVNULL))
            if not args.smoke:  # timing runs never share the host
                procs[-1].wait()
        for trace, proc in zip((0, 1), procs):
            if proc.wait() != 0:
                failed.append(f"{name} --trace {trace}: exit {proc.returncode}")
            try:
                with open(result_path(name, bool(trace))) as fh:
                    runs[trace] = json.load(fh)
            except OSError:
                failed.append(f"{name} --trace {trace}: no result")
        if len(runs) < 2:
            continue
        untraced, traced = runs[0], runs[1]
        print_metrics(name, untraced["metrics"])
        print_metrics(name, traced["metrics"])
        # traced over untraced wall for the same work (fixed-work
        # workloads) or untraced over traced throughput (timed ones)
        if name.startswith("serve"):
            overhead = (untraced["end_to_end"]["throughput_per_s"]
                        / max(traced["end_to_end"]["throughput_per_s"], 1e-9))
        else:
            overhead = traced["wall_s"] / untraced["wall_s"]
        print(f"{name} obs.trace_overhead_ratio {overhead:.6g} ratio")
        if "action_digest" in untraced and untraced["action_digest"] != traced["action_digest"]:
            failed.append(f"{name}: traced and untraced action digests differ")
        out["workloads"][name] = {
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"], "failed": untraced["failed"],
            "end_to_end": {k: v["value"] for k, v in untraced["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "named": untraced["named"],
            "obs.trace_overhead_ratio": overhead,
            "action_digest": [untraced.get("action_digest"), traced.get("action_digest")],
            "samples": untraced["samples"],
            "wall_s": {"untraced": untraced["run_wall_s"], "traced": traced["run_wall_s"]},
            "checks_run": sorted(set(untraced["checks_run"]) | set(traced["checks_run"])),
            "checks_failed": untraced["checks_failed"] + traced["checks_failed"],
        }
    out["failed"] = failed
    path = args.out or os.path.join(HERE, "out", "bench.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
    for failure in failed:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"wrote {path}")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed section (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one workload once in this process, untraced (0) or traced (1)")
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for the smoke test")
    parser.add_argument("--out", help="where the orchestrating form writes its JSON")
    args = parser.parse_args()
    spec = load_spec()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        try:
            return single(args, spec)
        finally:
            # on every way out: pool workers and multiprocessing's resource
            # tracker are stopped and waited for before this process ends
            import bench_common

            bench_common.stop_children()
    return orchestrate(args, spec)


if __name__ == "__main__":
    sys.exit(main())

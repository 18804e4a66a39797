#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``bench/compare.py A... -- B...``.

Each argument is a JSON written by ``bench/run.py --out``.  For every
pairing of workload and end-to-end metric the tool prints both sides'
median and quartiles and applies the metric's bound from
``BENCHMARK.json``:

* ``REGRESSED`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — a side's own spread (distance between its quartiles
  over its median) exceeds the bound, so the pairing proves nothing;
* ``ok`` — otherwise.

One summary row per workload follows.  The exit code is non-zero on any
regression (or, with ``--strict``, on anything unresolved).  With the
same code on both sides this is the A/A check; with parent runs as A and
a change's runs as B it is the no-regression check.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths: List[str]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> one value per run."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        with open(path) as fh:
            run = json.load(fh)
        for workload, row in run["workloads"].items():
            if not row["correct"]:
                print(f"warning: {path}: {workload} failed its checks", file=sys.stderr)
            for metric, value in row["end_to_end"].items():
                out.setdefault(workload, {}).setdefault(metric, []).append(value)
    return out


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    argv = [arg for arg in sys.argv[1:] if arg != "--strict"]
    strict = len(argv) != len(sys.argv) - 1
    if "--" not in argv or "-h" in argv or "--help" in argv:
        print(__doc__)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("both sets need at least one run", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    a, b = load(a_paths), load(b_paths)

    regressed = unresolved = 0
    print(f"A: {len(a_paths)} run(s)   B: {len(b_paths)} run(s)")
    print(f"{'workload':14s} {'metric':18s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for workload in sorted(set(a) & set(b)):
        verdicts = []
        for metric, m in spec.items():
            if metric not in a[workload] or metric not in b[workload]:
                continue
            a1, am, a3 = quartiles(a[workload][metric])
            b1, bm, b3 = quartiles(b[workload][metric])
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (bm - am) / am  # > 0: B is worse
            spread = max((a3 - a1) / am, (b3 - b1) / bm)
            if worse > m["bound"]:
                verdict = "REGRESSED"
                regressed += 1
            elif spread > m["bound"]:
                verdict = "unresolved"
                unresolved += 1
            else:
                verdict = "ok"
            verdicts.append(verdict)
            print(f"{workload:14s} {metric:18s} "
                  f"{am:12.5g} [{a1:9.4g},{a3:9.4g}] {bm:12.5g} [{b1:9.4g},{b3:9.4g}] "
                  f"{worse * sign * 100:+7.1f}% {m['bound'] * 100:5.0f}%  {verdict}"
                  f"  (spread {spread * 100:.1f}%)")
        worst = next((v for v in ("REGRESSED", "unresolved") if v in verdicts), "ok")
        print(f"{workload:14s} {'== workload ==':18s} {worst}: "
              + ", ".join(f"{v} x{verdicts.count(v)}" for v in sorted(set(verdicts))))
    print(f"regressed {regressed}, unresolved {unresolved}")
    return 1 if regressed or (strict and unresolved) else 0


if __name__ == "__main__":
    sys.exit(main())

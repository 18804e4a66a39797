"""Multi-tenant serving benchmark (E21, Section IV).

The PR-10 front door (:mod:`repro.serve`) puts admission control, a
degrade ladder, and priority shedding between external callers and the
query engines.  This experiment prices and gates that layer under the
regime it exists for — sustained mixed traffic — using only the public
:mod:`repro.api` surface:

* **Sustained mixed load** — several tenants of different priorities
  hammer one :class:`~repro.api.Client` closed-loop from driver threads
  while an ingest pump keeps committing telemetry under the serving
  write gate (the coupled two-traffics picture).  Gates: multi-thousand
  aggregate QPS (full mode, multi-core hosts), served p99 bounded by
  the request deadline, per-tenant accounting that adds up exactly
  (``submitted == admitted + rejected + shed``, and every admitted
  request is served, expired, or errored), and **exactness** — answers
  served for a tenant that forbids degradation are bit-identical to
  direct engine execution.

* **Quota isolation** — a quiet, paced tenant is measured alone, then
  again while a greedy tenant floods the door from unpaced drivers.
  Round-robin dispatch + per-tenant in-flight caps must keep the quiet
  tenant's p99 within 2x of its solo baseline (with a small absolute
  floor: sub-millisecond p99s are scheduler noise, not signal), while
  the greedy tenant's excess bounces off its token bucket.

Wall-clock numbers here are host-dependent by design; the exactness and
accounting flags are what ``repro experiments E21`` checks at any size.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import Client, ClusterConfig, TenantSpec

#: the rotating query mix every driver cycles through — range shapes at
#: several grains (rollup-servable and raw), a grouped fleet scan, and a
#: standing-eligible shape that the front door auto-promotes
QUERY_EXPRS: Tuple[str, ...] = (
    "mean(node_cpu_util[600s] by 60s)",
    "max(node_cpu_util[600s] by 60s)",
    "mean(node_cpu_util[300s] by 30s)",
    "sum(node_cpu_util[120s] by 10s)",
    "mean(node_cpu_util[600s] by 600s)",
    "mean(node_cpu_util[600s] by 60s) group by (node)",
)

#: (tenant, n_drivers, pace_s, deadline_ms) — one entry per traffic class
LoadPlan = Sequence[Tuple[str, int, float, Optional[float]]]


def build_client(
    *,
    seed: int = 0,
    n_nodes: int = 64,
    horizon_s: float = 1800.0,
    tenants: Sequence[TenantSpec] = (),
    n_workers: int = 2,
) -> Client:
    """A served cluster with ``horizon_s`` of telemetry already committed."""
    client = Client.from_config(
        ClusterConfig(n_nodes=n_nodes, telemetry_period_s=10.0, seed=seed),
        tenants=tenants,
        n_workers=n_workers,
    )
    client.run(until=horizon_s)
    return client


def run_mixed_load(
    client: Client,
    plan: LoadPlan,
    *,
    duration_s: float,
    exprs: Sequence[str] = QUERY_EXPRS,
    ats: Optional[Sequence[float]] = None,
    ingest_period_s: float = 10.0,
    ingest_sleep_s: float = 0.02,
) -> Dict[str, Dict[str, object]]:
    """Drive closed-loop tenant traffic plus a concurrent ingest pump.

    Every driver thread submits synchronously (at most one outstanding
    request each), rotating through ``exprs`` x ``ats``; the pump keeps
    advancing the simulation under the write gate, which both sustains
    ingest pressure and invalidates the epoch-keyed hot cache so the
    engines keep doing real work.  Returns per-tenant observed counts
    and served latencies (phase-local — unlike the front door's rings).
    """
    if ats is None:
        now = client.now
        ats = tuple(now - off for off in (0.0, 60.0, 120.0, 180.0))
    stop = threading.Event()

    def pump() -> None:
        while not stop.is_set():
            client.run(until=client.now + ingest_period_s)
            stop.wait(ingest_sleep_s)

    def drive(name: str, pace_s: float, deadline_ms: Optional[float],
              t_end: float, sink: Dict[str, object]) -> None:
        status: Dict[str, int] = sink["status"]  # type: ignore[assignment]
        latencies: List[float] = sink["latencies"]  # type: ignore[assignment]
        i = 0
        while time.perf_counter() < t_end:
            expr = exprs[i % len(exprs)]
            at = ats[(i // len(exprs)) % len(ats)]
            r = client.query(expr, tenant=name, at=at, deadline_ms=deadline_ms)
            status[r.status] = status.get(r.status, 0) + 1
            if r.ok:
                latencies.append(r.latency_ms)
                if r.degraded:
                    sink["degraded"] = int(sink["degraded"]) + 1  # type: ignore[arg-type]
            if pace_s:
                time.sleep(pace_s)
            i += 1

    sinks: List[Dict[str, object]] = []
    threads: List[threading.Thread] = []
    t_end = time.perf_counter() + duration_s
    for name, n_drivers, pace_s, deadline_ms in plan:
        for _ in range(n_drivers):
            sink: Dict[str, object] = {
                "tenant": name, "status": {}, "latencies": [], "degraded": 0,
            }
            sinks.append(sink)
            threads.append(threading.Thread(
                target=drive, args=(name, pace_s, deadline_ms, t_end, sink),
                daemon=True,
            ))
    pump_thread = threading.Thread(target=pump, daemon=True)
    pump_thread.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    pump_thread.join(timeout=10.0)

    merged: Dict[str, Dict[str, object]] = {}
    for sink in sinks:
        out = merged.setdefault(str(sink["tenant"]), {
            "ok": 0, "rejected": 0, "expired": 0, "error": 0,
            "degraded": 0, "latencies_ms": [],
        })
        for status, count in sink["status"].items():  # type: ignore[union-attr]
            out[status] = int(out.get(status, 0)) + count
        out["degraded"] = int(out["degraded"]) + int(sink["degraded"])  # type: ignore[arg-type]
        out["latencies_ms"].extend(sink["latencies"])  # type: ignore[union-attr]
    for out in merged.values():
        out["latencies_ms"] = np.asarray(out["latencies_ms"], dtype=np.float64)
    return merged


def _p99(latencies: np.ndarray) -> float:
    return float(np.percentile(latencies, 99)) if latencies.size else 0.0


def _accounting_ok(stats: Dict[str, object]) -> bool:
    """Per-tenant conservation: every request lands in exactly one bin."""
    for key, value in stats.items():
        if not (isinstance(key, str) and key.startswith("tenant_")):
            continue
        t = value  # type: Dict[str, float]
        arrived = (t["admitted"] + t["rejected_quota"]
                   + t["rejected_queue_full"] + t["shed"])
        if t["submitted"] != arrived:
            return False
        settled = t["served"] + t["expired"] + t["errors"]
        if t["admitted"] != settled + t["queue_depth"] + t["inflight"]:
            return False
    return True


def run_serve_load_benchmark(
    *,
    seed: int = 0,
    n_nodes: int = 64,
    horizon_s: float = 1800.0,
    duration_s: float = 3.0,
    n_drivers: int = 4,
    tenant: str = "interactive",
    qps_quota: float = 4000.0,
    deadline_ms: float = 250.0,
    check_queries: int = 8,
) -> Dict[str, float]:
    """E21: sustained mixed multi-tenant load over one front door."""
    tenants = [
        TenantSpec(tenant, qps=qps_quota, max_inflight=8, queue_depth=256,
                   priority=2),
        TenantSpec("batch", qps=qps_quota / 2.0, max_inflight=4, queue_depth=64,
                   priority=1),
        TenantSpec("besteffort", qps=qps_quota / 2.0, max_inflight=2,
                   queue_depth=16, priority=0),
        # the exactness probe: degradation forbidden, so its answers must
        # match direct engine execution bit for bit
        TenantSpec("checker", qps=qps_quota, max_inflight=2, queue_depth=32,
                   priority=2, allow_degraded=False),
    ]
    client = build_client(seed=seed, n_nodes=n_nodes, horizon_s=horizon_s,
                          tenants=tenants)
    with client:
        plan: LoadPlan = [
            (tenant, n_drivers, 0.0, deadline_ms),
            ("batch", max(1, n_drivers // 2), 0.0, deadline_ms * 2),
            ("besteffort", max(1, n_drivers // 2), 0.0, deadline_ms),
        ]
        wall_t0 = time.perf_counter()
        observed = run_mixed_load(client, plan, duration_s=duration_s)
        wall = time.perf_counter() - wall_t0

        # exactness: the no-degrade tenant vs direct engine execution at
        # pinned times, after the burst (queues drained by run_mixed_load)
        at = client.now
        mismatches = 0
        for i in range(check_queries):
            expr = QUERY_EXPRS[i % len(QUERY_EXPRS)]
            r = client.query(expr, tenant="checker", at=at)
            if not r.ok or r.degraded:
                mismatches += 1
                continue
            with client.front_door.write_gate():
                want = client.engine.query(client.engine.parse(expr), at=at)
            same = len(r.series) == len(want.series) and all(
                a.labels == b.labels
                and np.array_equal(a.times, b.times)
                and np.array_equal(a.values, b.values)
                for a, b in zip(r.series, want.series)
            )
            mismatches += 0 if same else 1

        stats = client.front_door.stats()
        served_lat = np.concatenate(
            [o["latencies_ms"] for o in observed.values()]
        ) if observed else np.empty(0)
        served = float(stats["served"])
        row = {
            "seed": float(seed),
            "n_nodes": float(n_nodes),
            "duration_s": float(duration_s),
            "n_drivers": float(n_drivers),
            "submitted": float(stats["submitted"]),
            "served": served,
            "qps": served / wall if wall > 0 else 0.0,
            "p99_ms": _p99(served_lat),
            "deadline_ms": float(deadline_ms),
            "hot_hits": float(stats["hot_hits"]),
            "standing_served": float(stats["standing_served"]),
            "degraded": float(stats["degraded"]),
            "shed": float(stats["shed"]),
            "rejected_quota": float(stats["rejected_quota"]),
            "rejected_queue_full": float(stats["rejected_queue_full"]),
            "expired": float(stats["expired"]),
            "errors": float(stats["errors"]),
            "accounting_ok": 1.0 if _accounting_ok(stats) else 0.0,
            "match": 1.0 if mismatches == 0 else 0.0,
        }
    return row


def run_quota_isolation_benchmark(
    *,
    seed: int = 0,
    n_nodes: int = 64,
    horizon_s: float = 1800.0,
    duration_s: float = 2.0,
    greedy_drivers: int = 4,
    deadline_ms: float = 250.0,
) -> Dict[str, float]:
    """E21b: a greedy tenant must not wreck a quiet tenant's p99.

    The quiet tenant runs paced (one driver, ~2 ms think time) alone for
    its baseline, then again under a greedy flood.  The contended p99 is
    gated at 2x the solo baseline with a 5 ms absolute floor — at these
    service times, anything below the floor is scheduler jitter.
    """
    tenants = [
        TenantSpec("quiet", qps=600.0, max_inflight=2, queue_depth=64,
                   priority=2),
        TenantSpec("greedy", qps=800.0, max_inflight=4, queue_depth=32,
                   priority=1),
    ]
    client = build_client(seed=seed, n_nodes=n_nodes, horizon_s=horizon_s,
                          tenants=tenants)
    with client:
        quiet_plan: LoadPlan = [("quiet", 1, 0.002, deadline_ms)]
        solo = run_mixed_load(client, quiet_plan, duration_s=duration_s)
        contended = run_mixed_load(
            client,
            list(quiet_plan) + [("greedy", greedy_drivers, 0.0, deadline_ms)],
            duration_s=duration_s,
        )
        stats = client.front_door.stats()
        solo_p99 = _p99(solo["quiet"]["latencies_ms"])
        cont_p99 = _p99(contended["quiet"]["latencies_ms"])
        greedy = contended.get("greedy", {"ok": 0, "rejected": 0})
        row = {
            "seed": float(seed),
            "duration_s": float(duration_s),
            "greedy_drivers": float(greedy_drivers),
            "quiet_solo_p99_ms": solo_p99,
            "quiet_contended_p99_ms": cont_p99,
            "p99_ratio": cont_p99 / max(solo_p99, 2.5),
            "quiet_served": float(int(solo["quiet"]["ok"])
                                  + int(contended["quiet"]["ok"])),
            "greedy_served": float(int(greedy["ok"])),
            "greedy_rejected": float(int(greedy["rejected"])),
            "accounting_ok": 1.0 if _accounting_ok(stats) else 0.0,
            "isolation_ok": 1.0 if cont_p99 <= max(2.0 * solo_p99, 5.0) else 0.0,
        }
    return row

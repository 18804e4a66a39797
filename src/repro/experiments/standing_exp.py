"""Standing-query serving benchmark (E19, Section IV).

PR 8 turns hot fused monitor shapes into **standing queries**: per-series
partial-aggregate state maintained O(new samples) from ingest-listener
callbacks, so a hub tick reads maintained state instead of re-scanning
its full window (see :mod:`repro.query.standing`).  This experiment
measures the bargain at fleet scale on a *streamed* commit sequence —
the regime the engine is built for, where each tick only adds
``fleet x (period / sample_period)`` new samples to a
``fleet x window`` standing window:

* **Hub serving** — 256 watch loops over 4096 series (the E17b adaptive
  -fusion sizing), each issuing its partition's grouped range query
  every tick through the shared :class:`~repro.core.runtime.QueryHub`.
  The baseline is PR 5's steady state: fused serving, the widened scan
  computed once per tick and shared via the cache.  The standing side
  runs the same hub with a :class:`StandingQueryEngine` attached and
  must *auto-register* the hot shape from tick-sharing statistics (the
  burn-in ticks before registration count against it), then serve at
  ≥10 k queries/s and ahead of the fused side.  Exactness is checked
  against an uncached batch engine on sampled ticks, outside the timed
  sections.

* **Ingest overhead** — the identical columnar commit stream into a
  plain store vs one feeding a registered standing provider; the
  per-commit partial-aggregate update must cost ≤1.1× plain ingest.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

from repro.core.runtime import QueryHub
from repro.query import LabelMatcher, MetricQuery, QueryEngine
from repro.query.standing import StandingQueryEngine
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore

METRIC = "node_cpu_util"


def _node_ids(n_nodes: int) -> List[str]:
    return [f"n{i:05d}" for i in range(n_nodes)]


def _loop_queries(
    node_ids: Sequence[str], n_loops: int, window_s: float, step_s: float
) -> List[MetricQuery]:
    """One grouped range query per node partition — the watch-fleet
    shape (matcher ⊆ group_by, so every loop shares one widened form)."""
    parts = np.array_split(np.asarray(node_ids, dtype=object), n_loops)
    queries = []
    for part in parts:
        alternation = "|".join(str(n) for n in part)
        queries.append(
            MetricQuery(
                METRIC,
                agg="mean",
                matchers=(LabelMatcher("node", "=~", alternation),),
                range_s=window_s,
                step_s=step_s,
                group_by=("node",),
            )
        )
    return queries


def _values_at(base: np.ndarray, t: float) -> np.ndarray:
    return np.clip(base + 0.1 * np.sin(t / 150.0 + base * 7.0), 0.0, 1.0)


def _prefill(store: TimeSeriesStore, sids: np.ndarray, base: np.ndarray,
             window_s: float, sample_period_s: float) -> None:
    n = sids.size
    for t in np.arange(sample_period_s, window_s + sample_period_s / 2, sample_period_s):
        store.append_batch(sids, np.full(n, float(t)), _values_at(base, float(t)))


def _intern(store: TimeSeriesStore, node_ids: Sequence[str]) -> np.ndarray:
    return np.fromiter(
        (store.registry.id_for(SeriesKey.of(METRIC, node=n)) for n in node_ids),
        dtype=np.int64,
        count=len(node_ids),
    )


def run_standing_hub_benchmark(
    *,
    seed: int = 0,
    n_loops: int = 256,
    nodes_per_loop: int = 16,
    ticks: int = 60,
    period_s: float = 60.0,
    window_s: float = 600.0,
    step_s: float = 60.0,
    sample_period_s: float = 10.0,
    check_every: int = 4,
    check_loops: int = 8,
) -> Dict[str, float]:
    """E19: standing vs fused hub serving on a streamed commit sequence."""
    n_nodes = n_loops * nodes_per_loop
    node_ids = _node_ids(n_nodes)
    rng = np.random.default_rng(seed)
    base = np.clip(rng.normal(0.5, 0.2, size=n_nodes), 0.05, 0.95)
    capacity = int((window_s + ticks * period_s) / sample_period_s) + 16
    queries = _loop_queries(node_ids, n_loops, window_s, step_s)
    commits_per_tick = int(round(period_s / sample_period_s))

    def run_side(standing: bool) -> Dict[str, float]:
        store = TimeSeriesStore(default_capacity=capacity)
        engine = QueryEngine(store)  # cached: the fused-serving economics
        st = StandingQueryEngine(engine) if standing else None
        hub = QueryHub(engine, standing=st)
        reference = QueryEngine(store, enable_cache=False)
        sids = _intern(store, node_ids)
        _prefill(store, sids, base, window_s, sample_period_s)
        serve_wall = 0.0
        mismatches = 0
        for tick in range(1, ticks + 1):
            t_tick = window_s + tick * period_s
            for j in range(commits_per_tick):
                t = t_tick - period_s + (j + 1) * sample_period_s
                store.append_batch(sids, np.full(n_nodes, float(t)), _values_at(base, t))
            wall_t0 = time.perf_counter()
            results = [hub.query(q, at=t_tick) for q in queries]
            serve_wall += time.perf_counter() - wall_t0
            if tick % check_every == 0:  # exactness spot-check, untimed
                for idx in range(0, n_loops, max(1, n_loops // check_loops)):
                    got, want = results[idx], reference.query(queries[idx], at=t_tick)
                    ok = len(got.series) == len(want.series) and all(
                        a.labels == b.labels
                        and np.allclose(a.times, b.times, rtol=0, atol=1e-9)
                        and np.allclose(a.values, b.values, rtol=1e-9, atol=1e-9)
                        for a, b in zip(got.series, want.series)
                    )
                    mismatches += 0 if ok else 1
        out = {
            "serve_wall_s": serve_wall,
            "queries_per_s": (n_loops * ticks) / serve_wall,
            "mismatches": float(mismatches),
            "fused_served": float(hub.fused_served),
            "standing_served": float(hub.standing_served),
        }
        if st is not None:
            stats = st.stats()
            out["standing_shapes"] = stats["registered_shapes"]
            out["standing_updates"] = stats["updates_applied"]
            out["standing_fallbacks"] = stats["scan_fallbacks"]
        return out

    fused = run_side(standing=False)
    standing = run_side(standing=True)
    return {
        "seed": float(seed),
        "n_loops": float(n_loops),
        "n_series": float(n_nodes),
        "ticks": float(ticks),
        "fused_queries_per_s": fused["queries_per_s"],
        "standing_queries_per_s": standing["queries_per_s"],
        "hub_speedup": standing["queries_per_s"] / fused["queries_per_s"],
        "fused_served": fused["fused_served"],
        "standing_served": standing["standing_served"],
        "auto_registered_shapes": standing["standing_shapes"],
        "standing_updates": standing["standing_updates"],
        "standing_fallbacks": standing["standing_fallbacks"],
        "match": 1.0 if fused["mismatches"] + standing["mismatches"] == 0 else 0.0,
    }


def run_standing_ingest_overhead(
    *,
    seed: int = 0,
    n_series: int = 4096,
    ticks: int = 30,
    rounds: int = 8,
    sample_period_s: float = 10.0,
    window_s: float = 600.0,
    step_s: float = 60.0,
) -> Dict[str, float]:
    """E19b: per-commit standing-update cost over plain columnar ingest.

    Identical commit streams into two persistent stores, one carrying a
    registered grid (the hub's hot shape) fed by the ingest listener.
    The listener's true cost is a few percent of a columnar commit, so
    independent best-of runs — which compare two different draws of
    scheduler noise — can't resolve it.  Instead each commit is timed
    *paired*: the same columns land on both stores back to back, the
    order alternating per commit, and commits where either side hit a
    stall (wall above 1.5× its side's median — GC pause, scheduler
    preemption) are excluded pairwise before the walls are summed.
    """
    node_ids = _node_ids(n_series)
    rng = np.random.default_rng(seed)
    base = np.clip(rng.normal(0.5, 0.2, size=n_series), 0.05, 0.95)
    n_commits = ticks * rounds
    capacity = n_commits + ticks + 16

    plain = TimeSeriesStore(default_capacity=capacity)
    standing_store = TimeSeriesStore(default_capacity=capacity)
    st = StandingQueryEngine(QueryEngine(standing_store, enable_cache=False))
    assert st.register(
        MetricQuery(METRIC, agg="mean", range_s=window_s, step_s=step_s,
                    group_by=("node",))
    )
    plain_ids = _intern(plain, node_ids)
    standing_ids = _intern(standing_store, node_ids)

    def commit(store: TimeSeriesStore, ids: np.ndarray, t: float,
               values: np.ndarray) -> float:
        wall_t0 = time.perf_counter()
        store.append_batch(ids, np.full(n_series, t), values)
        return time.perf_counter() - wall_t0

    # untimed warm-up commits on both sides (allocator, ring/grid growth)
    for tick in range(ticks):
        t = (tick + 1) * sample_period_s
        values = _values_at(base, t)
        commit(plain, plain_ids, t, values)
        commit(standing_store, standing_ids, t, values)
    p_walls = np.empty(n_commits)
    s_walls = np.empty(n_commits)
    for i in range(n_commits):
        t = (ticks + i + 1) * sample_period_s
        values = _values_at(base, t)
        if i % 2:
            p_walls[i] = commit(plain, plain_ids, t, values)
            s_walls[i] = commit(standing_store, standing_ids, t, values)
        else:
            s_walls[i] = commit(standing_store, standing_ids, t, values)
            p_walls[i] = commit(plain, plain_ids, t, values)
    keep = (p_walls < 1.5 * np.median(p_walls)) & (s_walls < 1.5 * np.median(s_walls))
    plain_wall = float(p_walls[keep].sum())
    standing_wall = float(s_walls[keep].sum())
    samples = float(n_series * int(keep.sum()))
    return {
        "seed": float(seed),
        "n_series": float(n_series),
        "commits": float(keep.sum()),
        "samples": samples,
        "plain_samples_per_s": samples / plain_wall,
        "standing_samples_per_s": samples / standing_wall,
        "standing_overhead": standing_wall / plain_wall,
    }


def run_standing_benchmark(
    *,
    seed: int = 0,
    n_loops: int = 256,
    nodes_per_loop: int = 16,
    ticks: int = 60,
) -> Dict[str, Dict[str, float]]:
    """Both E19 halves with shared sizing (the CLI/CI entry)."""
    return {
        "hub": run_standing_hub_benchmark(
            seed=seed, n_loops=n_loops, nodes_per_loop=nodes_per_loop, ticks=ticks
        ),
        "ingest": run_standing_ingest_overhead(
            seed=seed, n_series=n_loops * nodes_per_loop
        ),
    }

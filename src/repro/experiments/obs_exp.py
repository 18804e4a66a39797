"""Observability overhead benchmark (E20, Section IV).

PR 9 threads span tracing (:mod:`repro.obs.trace`) through the autonomy
hot paths — hub serving, standing reads, engine execution, federated
scatter, columnar ingest.  The bargain is only honest if the
instrumentation is priced: **disabled tracing must cost ≤2%** on the
columnar ingest and E19 standing-serving paths (one attribute load + branch
per guarded site), and **enabled tracing ≤5%** (one ring append per
span).  E20 measures both, with the same paired/interleaved wall-clock
discipline E19b established:

* **Ingest overhead** — the identical columnar commit stream (with a
  registered standing grid, so the E19 per-commit listener path is in
  the loop) into three stores: a baseline pass and a second
  tracer-disabled pass (the A/A control that prices the guard branches
  *and* the methodology's noise floor together), plus a tracer-enabled
  pass.  Commits rotate store order and stalled commits (wall above
  1.5× that side's median) are excluded pairwise.

* **Standing serving** — an E19-style hub tick loop (standing engine
  registered, every read served from maintained state through the
  ``hub.query`` → ``standing.read`` span pair) where each tick's query
  sweep runs three times — baseline-disabled, again-disabled (A/A), and
  enabled — in rotating order with standing snapshots cleared before
  every sweep so each does identical work.  Result equality between the
  disabled and enabled sweeps is asserted on sampled ticks (spans must
  never perturb values).

Gates (full run only; ``--smoke`` checks wiring + exactness):
``disabled_overhead ≤ 1.02`` and ``enabled_overhead ≤ 1.05`` on both
halves.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.core.runtime import QueryHub
from repro.experiments.standing_exp import (
    METRIC,
    _intern,
    _loop_queries,
    _node_ids,
    _prefill,
    _values_at,
)
from repro.obs.trace import TRACER
from repro.query import MetricQuery, QueryEngine
from repro.query.fuse import widen
from repro.query.standing import StandingQueryEngine
from repro.telemetry.tsdb import TimeSeriesStore

#: (mode name, tracer enabled?) — "base" and "off" are both disabled;
#: their ratio is the A/A control that prices the guard branch at the
#: methodology's own noise floor.
_MODES = (("base", False), ("off", False), ("on", True))


def _set_tracer(enabled: bool) -> None:
    if enabled:
        TRACER.enable()
    else:
        TRACER.disable()


def _keep_mask(walls: Dict[str, np.ndarray]) -> np.ndarray:
    """Pairwise stall exclusion: drop rounds where any side stalled."""
    keep = np.ones(next(iter(walls.values())).shape, dtype=bool)
    for w in walls.values():
        keep &= w < 1.5 * np.median(w)
    return keep


def run_obs_ingest_overhead(
    *,
    seed: int = 0,
    n_series: int = 4096,
    ticks: int = 30,
    rounds: int = 8,
    sample_period_s: float = 10.0,
    window_s: float = 600.0,
    step_s: float = 60.0,
) -> Dict[str, float]:
    """E20a: tracing overhead on the columnar ingest + standing-update path."""
    node_ids = _node_ids(n_series)
    rng = np.random.default_rng(seed)
    base = np.clip(rng.normal(0.5, 0.2, size=n_series), 0.05, 0.95)
    n_commits = ticks * rounds
    capacity = n_commits + ticks + 16

    shape = MetricQuery(METRIC, agg="mean", range_s=window_s, step_s=step_s,
                        group_by=("node",))
    # Three identical stores all receiving every commit, but the tracer
    # *state* rotates over the store slots per commit — each state visits
    # each store equally often, so store-identity effects (allocation
    # order, page locality) cancel out of the state-vs-state ratios.
    stores: List[TimeSeriesStore] = []
    ids: List[np.ndarray] = []
    for _ in _MODES:
        store = TimeSeriesStore(default_capacity=capacity)
        st = StandingQueryEngine(QueryEngine(store, enable_cache=False))
        assert st.register(shape)
        stores.append(store)
        ids.append(_intern(store, node_ids))

    def commit(slot: int, t: float, values: np.ndarray) -> float:
        wall_t0 = time.perf_counter()
        stores[slot].append_batch(ids[slot], np.full(n_series, t), values)
        return time.perf_counter() - wall_t0

    was_enabled = TRACER.enabled
    try:
        TRACER.disable()
        for tick in range(ticks):  # untimed warm-up on every side
            t = (tick + 1) * sample_period_s
            values = _values_at(base, t)
            for slot in range(len(_MODES)):
                commit(slot, t, values)
        walls = {mode: np.empty(n_commits) for mode, _ in _MODES}
        for i in range(n_commits):
            t = (ticks + i + 1) * sample_period_s
            values = _values_at(base, t)
            for slot in range(len(_MODES)):
                mode, enabled = _MODES[(i + slot) % len(_MODES)]
                _set_tracer(enabled)
                walls[mode][i] = commit(slot, t, values)
            TRACER.disable()
    finally:
        _set_tracer(was_enabled)

    keep = _keep_mask(walls)
    sums = {mode: float(w[keep].sum()) for mode, w in walls.items()}
    samples = float(n_series * int(keep.sum()))
    return {
        "seed": float(seed),
        "n_series": float(n_series),
        "commits": float(keep.sum()),
        "base_samples_per_s": samples / sums["base"],
        "disabled_samples_per_s": samples / sums["off"],
        "enabled_samples_per_s": samples / sums["on"],
        "disabled_overhead": sums["off"] / sums["base"],
        "enabled_overhead": sums["on"] / sums["base"],
    }


def run_obs_standing_overhead(
    *,
    seed: int = 0,
    n_loops: int = 64,
    nodes_per_loop: int = 8,
    ticks: int = 30,
    period_s: float = 60.0,
    window_s: float = 600.0,
    step_s: float = 60.0,
    sample_period_s: float = 10.0,
    check_every: int = 5,
    repeats: int = 3,
) -> Dict[str, float]:
    """E20b: tracing overhead on the E19 standing hub-serving path."""
    n_nodes = n_loops * nodes_per_loop
    node_ids = _node_ids(n_nodes)
    rng = np.random.default_rng(seed)
    base = np.clip(rng.normal(0.5, 0.2, size=n_nodes), 0.05, 0.95)
    capacity = int((window_s + ticks * period_s) / sample_period_s) + 16
    queries = _loop_queries(node_ids, n_loops, window_s, step_s)
    commits_per_tick = int(round(period_s / sample_period_s))

    store = TimeSeriesStore(default_capacity=capacity)
    engine = QueryEngine(store, enable_cache=False)
    st = StandingQueryEngine(engine)
    hub = QueryHub(engine, standing=st)
    # the loops' narrow reads all widen to one shared shape; registering
    # it up front means every hub read runs hub.query -> standing.read
    # (the instrumented pair being priced) from the first tick
    assert st.register(widen(queries[0]))
    sids = _intern(store, node_ids)
    _prefill(store, sids, base, window_s, sample_period_s)

    walls = {mode: np.empty(ticks) for mode, _ in _MODES}
    mismatches = 0
    standing_reads_before = st.stats()["reads_served"]
    was_enabled = TRACER.enabled
    spans_recorded = 0
    try:
        TRACER.disable()
        TRACER.reset()
        for tick in range(ticks):
            t_tick = window_s + (tick + 1) * period_s
            for j in range(commits_per_tick):
                t = t_tick - period_s + (j + 1) * sample_period_s
                store.append_batch(sids, np.full(n_nodes, float(t)),
                                   _values_at(base, t))
            results: Dict[str, List] = {}
            # min over `repeats` sweeps per mode filters scheduler noise
            # (the overhead being priced is a few percent; a single
            # preemption mid-sweep is bigger than that)
            for rep in range(repeats):
                for j in range(len(_MODES)):
                    mode, enabled = _MODES[(tick + rep + j) % len(_MODES)]
                    st.clear_snapshots()  # identical work per sweep
                    _set_tracer(enabled)
                    wall_t0 = time.perf_counter()
                    results[mode] = [hub.query(q, at=t_tick) for q in queries]
                    wall = time.perf_counter() - wall_t0
                    TRACER.disable()
                    if rep == 0 or wall < walls[mode][tick]:
                        walls[mode][tick] = wall
            if tick % check_every == 0:  # spans must not perturb values
                for got, want in zip(results["on"], results["base"]):
                    ok = len(got.series) == len(want.series) and all(
                        a.labels == b.labels
                        and np.array_equal(a.values, b.values)
                        for a, b in zip(got.series, want.series)
                    )
                    mismatches += 0 if ok else 1
        spans_recorded = len(TRACER)
    finally:
        TRACER.reset()
        _set_tracer(was_enabled)

    keep = _keep_mask(walls)
    sums = {mode: float(w[keep].sum()) for mode, w in walls.items()}
    served = (st.stats()["reads_served"] - standing_reads_before)
    queries_counted = float(n_loops * int(keep.sum()))
    return {
        "seed": float(seed),
        "n_loops": float(n_loops),
        "n_series": float(n_nodes),
        "ticks": float(keep.sum()),
        "base_queries_per_s": queries_counted / sums["base"],
        "disabled_queries_per_s": queries_counted / sums["off"],
        "enabled_queries_per_s": queries_counted / sums["on"],
        "disabled_overhead": sums["off"] / sums["base"],
        "enabled_overhead": sums["on"] / sums["base"],
        "standing_served": float(served),
        "spans_recorded": float(spans_recorded),
        "match": 1.0 if mismatches == 0 else 0.0,
    }


def run_obs_benchmark(
    *,
    seed: int = 0,
    n_series: int = 4096,
    n_loops: int = 64,
    ticks: int = 30,
) -> Dict[str, Dict[str, float]]:
    """Both E20 halves with shared sizing (the CLI/CI entry)."""
    return {
        "ingest": run_obs_ingest_overhead(seed=seed, n_series=n_series, ticks=ticks),
        "standing": run_obs_standing_overhead(
            seed=seed, n_loops=n_loops,
            nodes_per_loop=max(1, n_series // n_loops), ticks=ticks,
        ),
    }

"""Storage-design experiment (E10, Section IV).

Measures the raw-data path (time-series insert rates, window/downsample
query latency, cardinality scaling) and the model-metadata path
(knowledge-base model registry and plan-record operations) that
Section IV says MODA storage designs must now balance.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from repro.core.knowledge import KnowledgeBase, ModelEntry
from repro.core.types import Action, ExecutionResult, Plan
from repro.query.engine import QueryEngine
from repro.query.model import LabelMatcher, MetricQuery
from repro.sim import RngRegistry
from repro.telemetry.metric import SeriesKey
from repro.telemetry.tsdb import TimeSeriesStore


def run_tsdb_ingest(
    *,
    seed: int = 0,
    n_series: int = 256,
    points_per_series: int = 2000,
    batch_size: int = 1,
) -> Dict[str, float]:
    """Insert throughput for point vs. batch writes at a given cardinality."""
    rng = RngRegistry(seed=seed).stream("tsdb")
    store = TimeSeriesStore(default_capacity=points_per_series)
    keys = [SeriesKey.of("m", series=str(i)) for i in range(n_series)]
    values = rng.normal(100.0, 10.0, size=points_per_series)
    times = np.arange(points_per_series, dtype=float)

    t0 = time.perf_counter()
    if batch_size <= 1:
        for key in keys:
            for t, v in zip(times, values):
                store.insert(key, float(t), float(v))
    else:
        for key in keys:
            for start in range(0, points_per_series, batch_size):
                end = start + batch_size
                store.insert_batch(key, times[start:end], values[start:end])
    elapsed = time.perf_counter() - t0
    total = n_series * points_per_series
    return {
        "n_series": float(n_series),
        "batch_size": float(batch_size),
        "points": float(total),
        "ingest_s": elapsed,
        "inserts_per_s": total / elapsed,
        "cardinality": float(store.cardinality()),
    }


def run_tsdb_queries(
    *,
    seed: int = 0,
    n_series: int = 256,
    points_per_series: int = 2000,
    n_queries: int = 500,
) -> Dict[str, float]:
    """Window-query and downsample latency on a populated store."""
    rng = RngRegistry(seed=seed).stream("tsdb-q")
    store = TimeSeriesStore(default_capacity=points_per_series)
    keys = [SeriesKey.of("m", series=str(i)) for i in range(n_series)]
    times = np.arange(points_per_series, dtype=float)
    for key in keys:
        store.insert_batch(key, times, rng.normal(100.0, 10.0, size=points_per_series))

    t0 = time.perf_counter()
    for i in range(n_queries):
        key = keys[i % n_series]
        store.query(key, points_per_series * 0.25, points_per_series * 0.75)
    query_us = (time.perf_counter() - t0) / n_queries * 1e6

    engine = QueryEngine(store, enable_cache=False)
    panels = [
        MetricQuery(
            "m", agg="mean", matchers=(LabelMatcher("series", "=", str(i)),),
            range_s=float(points_per_series), step_s=60.0,
        )
        for i in range(n_series)
    ]
    t0 = time.perf_counter()
    for i in range(n_queries):
        engine.query(panels[i % n_series], at=float(points_per_series))
    downsample_us = (time.perf_counter() - t0) / n_queries * 1e6
    return {
        "n_series": float(n_series),
        "query_us": query_us,
        "downsample_us": downsample_us,
    }


def run_knowledge_ops(*, n_models: int = 500, n_plans: int = 2000) -> Dict[str, float]:
    """Model-registry and plan-record throughput (metadata path)."""
    knowledge = KnowledgeBase()
    t0 = time.perf_counter()
    for i in range(n_models):
        knowledge.register_model(
            ModelEntry(
                f"model-{i}",
                model=object(),
                kind="forecaster",
                trained_at=float(i),
                metadata={"mae": 0.1, "n": 100.0},
            )
        )
    model_us = (time.perf_counter() - t0) / n_models * 1e6

    action = Action("extend", "j1", params={"extra_s": 100.0})
    t0 = time.perf_counter()
    for i in range(n_plans):
        plan = Plan(float(i), "p", actions=(action,))
        outcome = knowledge.record_plan(
            plan, [ExecutionResult(action, float(i), honored=True)]
        )
        knowledge.assess_outcome(outcome, 0.8, float(i))
    plan_us = (time.perf_counter() - t0) / n_plans * 1e6
    return {
        "n_models": float(n_models),
        "model_register_us": model_us,
        "n_plans": float(n_plans),
        "plan_record_assess_us": plan_us,
        "effectiveness": knowledge.effectiveness() or 0.0,
    }

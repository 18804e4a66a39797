"""Metric query engine (the serving layer between telemetry and analytics).

A declarative query model with a compact string syntax::

    mean(node_cpu_util{node=~"n0.*"}[300s] by 30s) group by (node)

executed by one vectorized planner/executor (:class:`QueryEngine`:
plan → one pass of :mod:`repro.query.passes` per place → canonical
gather) over the raw :class:`~repro.telemetry.tsdb.TimeSeriesStore`,
continuously folded rollup tiers (:class:`RollupManager`), and one
result memo keyed by expression, window and write version.  See :mod:`repro.query.model` for
the exact semantics and :mod:`repro.query.reference` for the
brute-force oracle.
"""

from repro.query.engine import QueryEngine, QueryResult, ResultSeries
from repro.query.kernels import (
    ALL_AGGS,
    PARTIAL_AGGS,
    SAMPLE_ONLY_AGGS,
    PartialBins,
    counter_increase,
    grouped_aggregate,
)
from repro.query.model import LabelMatcher, MetricQuery, QUERY_AGGS
from repro.query.parser import QueryParseError, parse_duration, parse_query
from repro.query.reference import evaluate_naive
from repro.query.rollup import RollupManager

__all__ = [
    "ALL_AGGS",
    "LabelMatcher",
    "MetricQuery",
    "PARTIAL_AGGS",
    "PartialBins",
    "QUERY_AGGS",
    "QueryEngine",
    "QueryParseError",
    "QueryResult",
    "ResultSeries",
    "RollupManager",
    "SAMPLE_ONLY_AGGS",
    "counter_increase",
    "evaluate_naive",
    "grouped_aggregate",
    "parse_duration",
    "parse_query",
]

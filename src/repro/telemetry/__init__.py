"""Holistic monitoring substrate (the "Monitor" layer of Fig. 1).

This package models a site telemetry stack of the LDMS / DCDB / Examon
class: vectorized sensor banks exposing facility, hardware,
system-software, and application metrics; periodic sampling groups with
jitter, dropout, and overhead; a collector/aggregation tree with per-hop
transport latency that moves every sample as a columnar
:class:`SampleBatch`; and a NumPy-backed in-memory time-series store that
the analytics layer queries.

The stack deliberately reproduces the *operational* properties that gate
autonomy-loop reaction time: finite sampling rates, collection latency,
and metric cardinality.
"""

from repro.telemetry.metric import MetricCatalog, MetricKind, MetricSpec, SeriesKey
from repro.telemetry.batch import SampleBatch, SeriesRegistry
from repro.telemetry.tsdb import TimeSeriesStore
from repro.telemetry.sensor import SensorBank
from repro.telemetry.sampler import SamplingGroup
from repro.telemetry.collector import (
    AdaptiveCommitConfig,
    Aggregator,
    Collector,
    CollectionPipeline,
)
from repro.telemetry.markers import ProgressMarker, ProgressMarkerChannel
from repro.telemetry.synthetic import SyntheticSeriesSpec, render_series
from repro.telemetry.derived import (
    DerivedMetricSpec,
    DerivedMetricsService,
    standard_cluster_aggregates,
)

__all__ = [
    "AdaptiveCommitConfig",
    "Aggregator",
    "CollectionPipeline",
    "Collector",
    "DerivedMetricSpec",
    "DerivedMetricsService",
    "MetricCatalog",
    "MetricKind",
    "MetricSpec",
    "ProgressMarker",
    "ProgressMarkerChannel",
    "SampleBatch",
    "SamplingGroup",
    "SensorBank",
    "SeriesKey",
    "SeriesRegistry",
    "SyntheticSeriesSpec",
    "TimeSeriesStore",
    "render_series",
    "standard_cluster_aggregates",
]

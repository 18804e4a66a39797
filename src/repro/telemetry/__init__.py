"""Holistic monitoring substrate (the "Monitor" layer of Fig. 1).

This package models a site telemetry stack of the LDMS / DCDB / Examon
class: sensors exposing facility, hardware, system-software, and
application metrics; periodic samplers with jitter, dropout, and overhead;
a collector/aggregation tree with per-hop transport latency; and a
NumPy-backed in-memory time-series store that the analytics layer queries.

The stack deliberately reproduces the *operational* properties that gate
autonomy-loop reaction time: finite sampling rates, collection latency,
and metric cardinality.
"""

from repro.telemetry.metric import MetricCatalog, MetricKind, MetricSpec, SeriesKey
from repro.telemetry.batch import Sample, SampleBatch, SeriesRegistry
from repro.telemetry.tsdb import TimeSeriesStore
from repro.telemetry.sensor import CallableSensor, Sensor, SensorBank
from repro.telemetry.sampler import Sampler, SamplingGroup
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
from repro.telemetry.overhead import MonitoringOverheadModel

__all__ = [
    "AdaptiveCommitConfig",
    "Aggregator",
    "CallableSensor",
    "CollectionPipeline",
    "Collector",
    "DerivedMetricSpec",
    "DerivedMetricsService",
    "MetricCatalog",
    "MetricKind",
    "MetricSpec",
    "MonitoringOverheadModel",
    "ProgressMarker",
    "ProgressMarkerChannel",
    "Sample",
    "SampleBatch",
    "Sampler",
    "SamplingGroup",
    "Sensor",
    "SensorBank",
    "SeriesKey",
    "SeriesRegistry",
    "SyntheticSeriesSpec",
    "TimeSeriesStore",
    "render_series",
    "standard_cluster_aggregates",
]

"""Tests for synthetic telemetry generation and overhead accounting."""

import numpy as np
import pytest

from repro.sim import Engine, RngRegistry
from repro.telemetry.collector import CollectionPipeline
from repro.telemetry.metric import SeriesKey
from repro.telemetry.sampler import SamplingGroup
from repro.telemetry.sensor import SensorBank
from repro.telemetry.synthetic import (
    DAY_S,
    LevelShiftSpec,
    SpikeSpec,
    SyntheticSeriesSpec,
    node_power_spec,
    node_temperature_spec,
    render_series,
)
from repro.telemetry.tsdb import TimeSeriesStore


@pytest.fixture
def rng():
    return RngRegistry(seed=11).stream("synthetic")


def test_base_only(rng):
    spec = SyntheticSeriesSpec(base=50.0, noise_std=0.0)
    values = render_series(np.arange(10.0), spec, rng)
    np.testing.assert_array_equal(values, np.full(10, 50.0))


def test_diurnal_period(rng):
    spec = SyntheticSeriesSpec(base=0.0, diurnal_amplitude=10.0, noise_std=0.0)
    t = np.array([0.0, DAY_S / 4, DAY_S / 2])
    v = render_series(t, spec, rng)
    assert v[0] == pytest.approx(0.0, abs=1e-9)
    assert v[1] == pytest.approx(10.0)
    assert v[2] == pytest.approx(0.0, abs=1e-9)


def test_drift(rng):
    spec = SyntheticSeriesSpec(base=0.0, drift_per_day=24.0, noise_std=0.0)
    v = render_series(np.array([0.0, DAY_S / 2, DAY_S]), spec, rng)
    np.testing.assert_allclose(v, [0.0, 12.0, 24.0])


def test_spike_window(rng):
    spec = SyntheticSeriesSpec(
        base=0.0, noise_std=0.0, spikes=[SpikeSpec(time=100.0, magnitude=50.0, duration=10.0)]
    )
    t = np.array([99.0, 100.0, 105.0, 110.0])
    v = render_series(t, spec, rng)
    np.testing.assert_allclose(v, [0.0, 50.0, 50.0, 0.0])


def test_level_shift(rng):
    spec = SyntheticSeriesSpec(
        base=10.0, noise_std=0.0, level_shifts=[LevelShiftSpec(time=50.0, magnitude=5.0)]
    )
    v = render_series(np.array([0.0, 49.0, 50.0, 100.0]), spec, rng)
    np.testing.assert_allclose(v, [10.0, 10.0, 15.0, 15.0])


def test_ar1_noise_is_autocorrelated(rng):
    spec = SyntheticSeriesSpec(base=0.0, noise_std=1.0, ar1_coeff=0.95)
    v = render_series(np.arange(5000.0), spec, rng)
    lag1 = np.corrcoef(v[:-1], v[1:])[0, 1]
    assert lag1 > 0.8


def test_white_noise_not_autocorrelated(rng):
    spec = SyntheticSeriesSpec(base=0.0, noise_std=1.0, ar1_coeff=0.0)
    v = render_series(np.arange(5000.0), spec, rng)
    lag1 = np.corrcoef(v[:-1], v[1:])[0, 1]
    assert abs(lag1) < 0.1


def test_clipping(rng):
    spec = SyntheticSeriesSpec(base=0.0, noise_std=10.0, clip_min=-1.0, clip_max=1.0)
    v = render_series(np.arange(100.0), spec, rng)
    assert np.all(v >= -1.0) and np.all(v <= 1.0)


def test_invalid_ar1_raises():
    with pytest.raises(ValueError):
        SyntheticSeriesSpec(ar1_coeff=1.0)


def test_anomaly_times_sorted(rng):
    spec = SyntheticSeriesSpec(
        spikes=[SpikeSpec(200.0, 1.0)], level_shifts=[LevelShiftSpec(100.0, 1.0)]
    )
    assert spec.anomaly_times() == [100.0, 200.0]


def test_plausible_specs(rng):
    for factory in (node_power_spec, node_temperature_spec):
        spec = factory(rng)
        v = render_series(np.arange(0.0, 3600.0, 10.0), spec, rng)
        assert np.all(np.isfinite(v))


def test_overhead_per_agent_cpu_and_bytes():
    """E1's two overhead numbers: per-agent CPU fraction and wire bytes."""
    eng = Engine()
    store = TimeSeriesStore()
    pipe = CollectionPipeline(eng, store, hop_latency=0.0, ingest_latency=0.0)
    aggs = pipe.build(1)
    group = SamplingGroup(eng, aggs[0], period=1.0, per_sample_cost_s=0.002)
    group.add_bank(
        SensorBank([SeriesKey.of("m", node="a")], lambda now: np.ones(1), registry=pipe.registry)
    )
    group.start()
    eng.run(until=99.0)
    assert group.agent_count == 1
    assert group.overhead_cpu_frac(100.0) == pytest.approx(0.002, rel=0.01)
    assert pipe.total_bytes() == 100 * 64
    assert group.samples_dropped == 0

#!/usr/bin/env python3
"""Seasonal-aware thermal monitoring with derived site aggregates.

Node temperatures swing ±5 °C with the diurnal facility cycle, so plain
thresholding either cries wolf every afternoon or misses real events.
This demo runs eight days of synthetic per-node temperature telemetry
with one injected cooling fault, and shows:

* the DerivedMetricsService maintaining site-level aggregates,
* a plain z-score detector going blind on the trending signal,
* the seasonal detector flagging exactly the faulty node and window.

Run:  python examples/thermal_watch.py
"""

import math

import numpy as np

from repro.analytics.anomaly import MIN_STD, Anomaly, ZScoreDetector
from repro.sim import Engine, RngRegistry
from repro.telemetry import (
    DerivedMetricSpec,
    DerivedMetricsService,
    SeriesKey,
    TimeSeriesStore,
)
from repro.telemetry.synthetic import SpikeSpec, SyntheticSeriesSpec, render_series

DAY_S = 86_400.0
N_BINS = 24  # hour-of-day phases
MIN_SEASONS = 2
MIN_PER_BIN = 3


class PhaseStats:
    """Welford running mean and sample std of one phase bin."""

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, x: float) -> None:
        x = float(x)
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)

    @property
    def std(self) -> float:
        return math.sqrt(self._m2 / (self.n - 1))


def phase_bin(t: float) -> int:
    """Hour-of-day bin of time ``t``."""
    return min(N_BINS - 1, int((t % DAY_S) / DAY_S * N_BINS))


class SeasonalAnomalyDetector:
    """Z-score against the sample's hour-of-day baseline.

    Each hour-of-day bin learns its own running mean/std.  Detection in
    a bin waits until it holds ``MIN_PER_BIN`` samples from at least
    ``MIN_SEASONS`` distinct days: one pass through the day only trains,
    because within-bin statistics from one pass reflect the signal's
    local trend, not its cross-day variability.  Like the plain
    ``ZScoreDetector``, flagged samples stay out of the baseline.
    """

    name = "seasonal-zscore"

    def __init__(self, threshold: float) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self._bins = [PhaseStats() for _ in range(N_BINS)]
        self._days = [set() for _ in range(N_BINS)]

    def update(self, t: float, value: float):
        idx = phase_bin(t)
        stats = self._bins[idx]
        if stats.n < MIN_PER_BIN or len(self._days[idx]) < MIN_SEASONS:
            stats.update(value)
            self._days[idx].add(int(t // DAY_S))
            return None
        std = max(stats.std, MIN_STD)
        z = (value - stats.mean) / std
        if abs(z) >= self.threshold:
            return Anomaly(t, value, abs(z), self.name,
                           f"z={z:.2f} vs phase baseline {stats.mean:.3g}±{std:.3g} (bin {idx})")
        stats.update(value)
        self._days[idx].add(int(t // DAY_S))
        return None

N_NODES = 12
STEP_S = 600.0
DAYS = 8
FAULT_NODE = 7
FAULT_AT = 6 * DAY_S + 2.5 * 3600.0  # 02:30 on day 7 — off the daily peak


def main() -> None:
    engine = Engine()
    rngs = RngRegistry(seed=23)
    store = TimeSeriesStore(default_capacity=int(DAYS * DAY_S / STEP_S) + 8)
    grid = np.arange(0.0, DAYS * DAY_S, STEP_S)

    for node in range(N_NODES):
        spec = SyntheticSeriesSpec(
            base=float(rngs.fork("base", node).uniform(58, 66)),
            diurnal_amplitude=5.0,
            noise_std=0.5,
            ar1_coeff=0.4,
            spikes=[SpikeSpec(FAULT_AT, magnitude=6.0, duration=3 * 3600.0)]
            if node == FAULT_NODE
            else [],
            clip_max=95.0,
        )
        series = render_series(grid, spec, rngs.fork("temp", node))
        store.insert_batch(
            SeriesKey.of("node_temp_celsius", node=f"n{node:02d}"), grid, series
        )

    # site aggregates, recomputed once per simulated hour
    service = DerivedMetricsService(
        engine,
        store,
        [DerivedMetricSpec("node_temp_celsius", "max", SeriesKey.of("cluster_temp_max"),
                           window_s=3600.0),
         DerivedMetricSpec("node_temp_celsius", "mean", SeriesKey.of("cluster_temp_mean"),
                           window_s=3600.0)],
        period_s=3600.0,
    )
    service.start(start_at=3600.0)
    engine.run(until=DAYS * DAY_S)

    _, maxima = store.query(SeriesKey.of("cluster_temp_max"), 0, DAYS * DAY_S)
    print(f"site aggregates: {service.samples_written} samples; "
          f"hottest hour peaked at {maxima.max():.1f} °C")

    print("\nper-node diagnosis (plain 6 h z-score vs seasonal baseline):")
    any_seasonal = []
    for node in range(N_NODES):
        key = SeriesKey.of("node_temp_celsius", node=f"n{node:02d}")
        times, values = store.query(key, 0, DAYS * DAY_S)
        plain = ZScoreDetector(window=36, threshold=4.0)
        seasonal = SeasonalAnomalyDetector(threshold=5.5)
        plain_hits, seasonal_hits = [], []
        for t, v in zip(times, values):
            if plain.update(t, v) is not None:
                plain_hits.append(t)
            if seasonal.update(t, v) is not None:
                seasonal_hits.append(t)
        if plain_hits or seasonal_hits:
            print(f"  n{node:02d}: plain={len(plain_hits):2d} hits, "
                  f"seasonal={len(seasonal_hits):2d} hits "
                  + (f"(first at day {seasonal_hits[0]/DAY_S:.2f})" if seasonal_hits else ""))
        any_seasonal.extend((node, t) for t in seasonal_hits)

    flagged_nodes = {n for n, _ in any_seasonal}
    in_window = [t for n, t in any_seasonal
                 if n == FAULT_NODE and FAULT_AT <= t <= FAULT_AT + 3.5 * 3600.0]
    print(f"\ninjected fault: node n{FAULT_NODE:02d} at day {FAULT_AT/DAY_S:.2f} (+6 °C, 3 h)")
    print(f"seasonal detector flagged nodes: {sorted(flagged_nodes)}; "
          f"{len(in_window)} detections inside the fault window")
    assert FAULT_NODE in flagged_nodes and in_window


if __name__ == "__main__":
    main()

"""Tests for the seasonal detector of ``examples/thermal_watch.py``.

The detector lives in the example (its only user), so the example is
loaded by path.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.analytics.anomaly import ZScoreDetector
from repro.telemetry.synthetic import SpikeSpec, SyntheticSeriesSpec, render_series

_PATH = Path(__file__).resolve().parents[1] / "examples" / "thermal_watch.py"
_SPEC = importlib.util.spec_from_file_location("thermal_watch", _PATH)
thermal_watch = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(thermal_watch)

DAY_S = thermal_watch.DAY_S
SeasonalAnomalyDetector = thermal_watch.SeasonalAnomalyDetector


def test_phase_bin_wraps_daily():
    assert thermal_watch.phase_bin(0.0) == 0
    assert thermal_watch.phase_bin(3600.0) == 1
    assert thermal_watch.phase_bin(DAY_S) == 0  # next day, same phase
    assert thermal_watch.phase_bin(DAY_S + 3600.0 * 23) == 23


class TestSeasonalAnomalyDetector:
    def test_rejects_non_positive_threshold(self):
        with pytest.raises(ValueError):
            SeasonalAnomalyDetector(threshold=0.0)

    def _diurnal_signal(self, days=6, step_s=600.0, spike_at=None, rng_seed=0):
        rng = np.random.default_rng(rng_seed)
        times = np.arange(0.0, days * DAY_S, step_s)
        spec = SyntheticSeriesSpec(
            base=400.0,
            diurnal_amplitude=80.0,
            noise_std=4.0,
            spikes=[SpikeSpec(spike_at, magnitude=60.0, duration=1200.0)] if spike_at else [],
        )
        return times, render_series(times, spec, rng)

    def test_trains_through_first_days_silently(self):
        det = SeasonalAnomalyDetector(threshold=4.0)
        times, values = self._diurnal_signal(days=3)
        hits = [det.update(t, v) for t, v in zip(times, values)]
        assert sum(1 for h in hits if h) == 0

    def test_detects_off_phase_excursion(self):
        # a +60 W spike is small vs the ±80 W diurnal swing, so a plain
        # z-score over the whole stream would need a huge window to see it;
        # the seasonal detector catches it against the phase baseline
        spike_at = 4 * DAY_S + 3 * 3600.0  # 3 am on day 5
        det = SeasonalAnomalyDetector(threshold=4.0)
        times, values = self._diurnal_signal(days=6, spike_at=spike_at)
        hits = [
            (t, det.update(t, v)) for t, v in zip(times, values)
        ]
        detections = [t for t, h in hits if h is not None]
        assert any(spike_at <= t <= spike_at + 1800.0 for t in detections)

    def test_no_false_alarms_on_clean_diurnal(self):
        det = SeasonalAnomalyDetector(threshold=5.0)
        times, values = self._diurnal_signal(days=8, rng_seed=3)
        false_alarms = sum(1 for t, v in zip(times, values) if det.update(t, v))
        assert false_alarms <= 2  # ≥5σ noise events are vanishingly rare

    def test_plain_zscore_misses_the_off_phase_spike(self):
        """Motivating contrast: a trending window inflates the plain
        detector's own std, so the small off-phase excursion that the
        seasonal detector catches is invisible to it."""
        spike_at = 3 * DAY_S + 3 * 3600.0
        times, values = self._diurnal_signal(days=4, spike_at=spike_at, rng_seed=5)
        det = ZScoreDetector(window=36, threshold=4.0)  # 6 h window
        detections = [
            t for t, v in zip(times, values)
            if det.update(t, v) is not None and spike_at <= t <= spike_at + 1800.0
        ]
        assert detections == []

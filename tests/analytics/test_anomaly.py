"""Tests for the rolling z-score anomaly detector."""

import numpy as np
import pytest

from repro.analytics.anomaly import MIN_STD, ZScoreDetector


def feed(detector, values, t0=0.0, dt=1.0):
    """Feed values; return list of (index, anomaly)."""
    out = []
    for i, v in enumerate(values):
        a = detector.update(t0 + i * dt, float(v))
        if a is not None:
            out.append((i, a))
    return out


def quiet_then_spike(n_quiet=100, spike=50.0, rng=None, noise=1.0):
    rng = rng or np.random.default_rng(0)
    base = rng.normal(10.0, noise, size=n_quiet)
    return np.concatenate([base, [10.0 + spike]])


class TestZScoreDetector:
    def test_detects_spike(self):
        det = ZScoreDetector(window=50, threshold=4.0)
        hits = feed(det, quiet_then_spike())
        assert len(hits) == 1
        idx, anomaly = hits[0]
        assert idx == 100
        assert anomaly.score > 4.0
        assert anomaly.kind == "zscore"

    def test_no_false_positives_on_quiet_signal(self):
        rng = np.random.default_rng(1)
        det = ZScoreDetector(window=50, threshold=5.0)
        hits = feed(det, rng.normal(10, 1, size=1000))
        assert len(hits) <= 2  # ~5-sigma events are vanishingly rare

    def test_cold_start_suppressed(self):
        det = ZScoreDetector(window=50, threshold=3.0)
        # huge jump during warmup must not fire
        hits = feed(det, [1.0] * 10 + [100.0])
        assert hits == []

    def test_level_shift_keeps_firing(self):
        rng = np.random.default_rng(2)
        det = ZScoreDetector(window=20, threshold=4.0)
        values = list(rng.normal(10, 0.5, 30)) + [50.0] * 5
        hits = feed(det, values)
        # anomalous values never enter the window, so every shifted
        # sample keeps firing
        shifted_hits = [i for i, _ in hits if i >= 30]
        assert shifted_hits == [30, 31, 32, 33, 34]

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ZScoreDetector(threshold=0.0)
        with pytest.raises(ValueError):
            ZScoreDetector(threshold=-1.0)

    def test_negative_excursion_detected(self):
        rng = np.random.default_rng(4)
        det = ZScoreDetector(window=50, threshold=4.0)
        values = list(rng.normal(10.0, 1.0, 60)) + [-40.0]
        hits = feed(det, values)
        assert [i for i, _ in hits] == [60]
        anomaly = hits[0][1]
        assert anomaly.score > 4.0  # |z|, not signed
        assert anomaly.detail.startswith("z=-")

    def test_anomaly_records_time_and_value(self):
        det = ZScoreDetector(window=20, threshold=4.0)
        hits = feed(det, [1.0, 2.0] * 10 + [90.0], t0=100.0, dt=5.0)
        (idx, anomaly), = hits
        assert idx == 20
        assert anomaly.time == 100.0 + 20 * 5.0
        assert anomaly.value == 90.0

    def test_constant_window_uses_std_floor(self):
        """A flat window has zero std; the MIN_STD floor makes any change
        an anomaly with a finite score and an unchanged sample none."""
        det = ZScoreDetector(window=10, threshold=4.0)
        feed(det, [5.0] * 10)
        assert det.update(10.0, 5.0) is None
        anomaly = det.update(11.0, 5.0 + 1e-6)
        assert anomaly is not None
        assert anomaly.score == pytest.approx(1e-6 / MIN_STD, rel=1e-3)

    def test_threshold_is_inclusive(self):
        det = ZScoreDetector(window=3, threshold=1.0)
        feed(det, [1.0, 2.0, 3.0])  # mean 2, sample std 1
        assert det.update(3.0, 3.0) is not None  # z == threshold
        assert det.update(4.0, 2.9) is None

    def test_scan_empty_series(self):
        det = ZScoreDetector(window=5, threshold=4.0)
        assert det.scan([], []) == []
        assert len(det.window._buf) == 0

    @pytest.mark.parametrize("window", [2, 5, 20, 50])
    @pytest.mark.parametrize("threshold", [2.0, 3.0, 4.0])
    def test_scan_matches_sequential_updates(self, window, threshold):
        rng = np.random.default_rng(7)
        values = list(rng.normal(10, 1, 300))
        for spike_at in (120, 200):
            values[spike_at] = 100.0
        values[150:160] = [-10.0] * 10  # level shift
        times = [float(i) for i in range(len(values))]
        seq = ZScoreDetector(window=window, threshold=threshold)
        seq_hits = [a for t, v in zip(times, values) if (a := seq.update(t, v))]
        bat = ZScoreDetector(window=window, threshold=threshold)
        bat_hits = bat.scan(times, values)
        assert [a.time for a in bat_hits] == [a.time for a in seq_hits]
        assert [a.score for a in bat_hits] == pytest.approx([a.score for a in seq_hits], rel=1e-9)
        # window state after scan matches the sequential detector's
        assert list(bat.window._buf) == list(seq.window._buf)

    def test_scan_stable_for_large_mean_series(self):
        """Regression: shifted accumulators keep variance precision when
        the series mean dwarfs its spread (counters, byte totals)."""
        rng = np.random.default_rng(11)
        values = list(rng.normal(1e8, 1.0, 500))
        values[300] = 1e8 + 50.0
        times = [float(i) for i in range(len(values))]
        seq = ZScoreDetector(window=50, threshold=5.0)
        seq_hits = [a.time for t, v in zip(times, values) if (a := seq.update(t, v))]
        bat = ZScoreDetector(window=50, threshold=5.0)
        bat_hits = [a.time for a in bat.scan(times, values)]
        assert bat_hits == seq_hits
        assert 300.0 in bat_hits

    def test_scan_window_of_one_never_flags(self):
        det = ZScoreDetector(window=1, threshold=4.0)
        assert det.scan([0.0, 1.0, 2.0], [1.0, 100.0, 1.0]) == []

    def test_scan_resumes_from_prefilled_window(self):
        """Regression: a scan() after earlier updates (non-empty buffer)
        must work and agree with the sequential path."""
        seq = ZScoreDetector(window=10, threshold=4.0)
        bat = ZScoreDetector(window=10, threshold=4.0)
        warm = [float(v) for v in range(12)]
        for i, v in enumerate(warm):
            seq.update(float(i), v)
        bat.scan([float(i) for i in range(12)], warm)
        tail_t = [float(i) for i in range(12, 24)]
        tail_v = [5.0] * 6 + [500.0] + [5.0] * 5
        seq_hits = [a.time for t, v in zip(tail_t, tail_v) if (a := seq.update(t, v))]
        bat_hits = [a.time for a in bat.scan(tail_t, tail_v)]
        assert bat_hits == seq_hits

"""Tests for time-to-completion forecasters."""

import numpy as np
import pytest

from repro.analytics.forecast import (
    ENSEMBLE_MEMBERS,
    OLS_WINDOW,
    THEILSEN_WINDOW,
    EwmaRateForecaster,
    ForecasterEnsemble,
    HoltForecaster,
    OLSForecaster,
    RateForecaster,
    TheilSenForecaster,
    forecaster_names,
    make_forecaster,
)

ALL_NAMES = ["rate", "ewma", "ols", "theilsen", "holt", "ensemble"]


def feed_linear(fc, rate=2.0, n=20, dt=10.0, noise=None, rng=None):
    """Feed markers step = rate * t (+ optional noise)."""
    for i in range(n):
        t = i * dt
        step = rate * t
        if noise is not None:
            step += rng.normal(0, noise)
        fc.update(t, max(0.0, step))
    return (n - 1) * dt  # last marker time


@pytest.mark.parametrize("name", ALL_NAMES)
class TestAllForecasters:
    def test_none_before_enough_data(self, name):
        fc = make_forecaster(name)
        assert fc.forecast(0.0, 100.0) is None
        fc.update(0.0, 0.0)
        assert fc.forecast(0.0, 100.0) is None

    def test_exact_on_noiseless_linear(self, name):
        fc = make_forecaster(name)
        now = feed_linear(fc, rate=2.0, n=20, dt=10.0)
        result = fc.forecast(now, target_step=1000.0)
        assert result is not None
        # step = 2t → target 1000 at t = 500
        assert result.eta == pytest.approx(500.0, rel=0.02)
        assert result.rate == pytest.approx(2.0, rel=0.02)
        assert result.eta_lo <= result.eta <= result.eta_hi

    def test_interval_contains_truth_on_noisy_data(self, name):
        rng = np.random.default_rng(3)
        fc = make_forecaster(name)
        now = feed_linear(fc, rate=1.0, n=50, dt=10.0, noise=2.0, rng=rng)
        result = fc.forecast(now, target_step=2000.0)
        assert result is not None
        assert result.eta_lo <= 2000.0 <= result.eta_hi or abs(result.eta - 2000.0) < 100.0

    def test_no_forecast_for_stalled_progress(self, name):
        fc = make_forecaster(name)
        for i in range(10):
            fc.update(i * 10.0, 5.0)  # constant step → zero rate
        assert fc.forecast(100.0, 100.0) is None

    def test_remaining_clamps_to_zero(self, name):
        fc = make_forecaster(name)
        now = feed_linear(fc, rate=10.0, n=10, dt=10.0)
        result = fc.forecast(now, target_step=10.0)  # already passed
        assert result is not None
        assert result.remaining(now) >= 0.0

    def test_forecast_leaves_state_unchanged(self, name):
        rng = np.random.default_rng(5)
        fc = make_forecaster(name)
        now = feed_linear(fc, rate=1.5, n=30, dt=10.0, noise=1.0, rng=rng)
        first = fc.forecast(now, target_step=1500.0)
        assert fc.forecast(now, target_step=1500.0) == first

    def test_interval_ordered_and_not_before_now(self, name):
        rng = np.random.default_rng(9)
        fc = make_forecaster(name)
        now = feed_linear(fc, rate=1.0, n=40, dt=10.0, noise=3.0, rng=rng)
        result = fc.forecast(now, target_step=1200.0)
        assert result is not None
        assert now <= result.eta_lo <= result.eta <= result.eta_hi
        assert result.interval_width >= 0.0

    def test_n_markers_counts_fed_markers(self, name):
        fc = make_forecaster(name)
        now = feed_linear(fc, rate=2.0, n=20, dt=10.0)
        assert fc.forecast(now, target_step=1000.0).n_markers == 20

    def test_later_target_means_later_eta(self, name):
        fc = make_forecaster(name)
        now = feed_linear(fc, rate=2.0, n=20, dt=10.0)
        near = fc.forecast(now, target_step=1000.0)
        far = fc.forecast(now, target_step=2000.0)
        assert far.eta > near.eta

    def test_instances_do_not_share_state(self, name):
        fed, fresh = make_forecaster(name), make_forecaster(name)
        now = feed_linear(fed, rate=2.0, n=20, dt=10.0)
        assert fed.forecast(now, 1000.0) is not None
        assert fresh.forecast(now, 1000.0) is None


@pytest.mark.parametrize("name", ENSEMBLE_MEMBERS)
class TestEnsembleMembers:
    def test_rate_estimate_none_before_data(self, name):
        assert make_forecaster(name).rate_estimate() is None

    def test_rate_estimate_tracks_linear_rate(self, name):
        fc = make_forecaster(name)
        feed_linear(fc, rate=2.0, n=20, dt=10.0)
        assert fc.rate_estimate() == pytest.approx(2.0, rel=0.01)


class TestRateForecaster:
    def test_band_widens_with_few_markers(self):
        fc3 = RateForecaster()
        feed_linear(fc3, n=3)
        fc30 = RateForecaster()
        feed_linear(fc30, n=30)
        r3 = fc3.forecast(20.0, 1000.0)
        r30 = fc30.forecast(290.0, 1500.0)
        # interval width relative to remaining should shrink with markers
        rel3 = r3.interval_width / max(1e-9, r3.remaining(20.0))
        rel30 = r30.interval_width / max(1e-9, r30.remaining(290.0))
        assert rel30 < rel3



class TestEwmaRateForecaster:
    def test_adapts_to_rate_change(self):
        fc = EwmaRateForecaster()
        # phase 1: rate 1.0 for 20 markers
        step = 0.0
        for i in range(20):
            fc.update(i * 10.0, step)
            step += 10.0
        # phase 2: rate doubles
        for i in range(20, 40):
            fc.update(i * 10.0, step)
            step += 20.0
        result = fc.forecast(390.0, step + 2000.0)
        assert result.rate == pytest.approx(2.0, rel=0.05)

    def test_overall_rate_would_be_wrong(self):
        """Contrast: plain RateForecaster averages over both phases."""
        fc = RateForecaster()
        step = 0.0
        for i in range(20):
            fc.update(i * 10.0, step)
            step += 10.0
        for i in range(20, 40):
            fc.update(i * 10.0, step)
            step += 20.0
        result = fc.forecast(390.0, step + 2000.0)
        assert 1.0 < result.rate < 2.0  # blended, not adapted


class TestOLSForecaster:
    def test_window_bounds_history(self):
        fc = OLSForecaster()
        feed_linear(fc, n=OLS_WINDOW + 36)
        assert len(fc._t) == OLS_WINDOW

    def test_interval_narrows_with_more_data(self):
        rng = np.random.default_rng(11)
        small, large = OLSForecaster(), OLSForecaster()
        feed_linear(small, rate=1.0, n=5, dt=10.0, noise=1.0, rng=rng)
        feed_linear(large, rate=1.0, n=60, dt=10.0, noise=1.0, rng=rng)
        rs = small.forecast(40.0, 5000.0)
        rl = large.forecast(590.0, 5000.0)
        assert rl.interval_width < rs.interval_width


class TestTheilSenForecaster:
    def test_robust_to_outlier_markers(self):
        fc_ts = TheilSenForecaster()
        fc_ols = OLSForecaster()
        for i in range(30):
            t = i * 10.0
            step = 2.0 * t
            if i in (10, 20):  # corrupted markers (e.g. clock skew)
                step += 500.0
            fc_ts.update(t, step)
            fc_ols.update(t, step)
        rts = fc_ts.forecast(290.0, 5000.0)
        rols = fc_ols.forecast(290.0, 5000.0)
        # true eta = 2500; Theil-Sen should be much closer
        assert abs(rts.eta - 2500.0) < abs(rols.eta - 2500.0)
        assert rts.rate == pytest.approx(2.0, rel=0.02)


    def test_window_bounds_history(self):
        fc = TheilSenForecaster()
        feed_linear(fc, n=THEILSEN_WINDOW + 20)
        assert len(fc._t) == THEILSEN_WINDOW
        assert len(fc._s) == THEILSEN_WINDOW


class TestHoltForecaster:
    def test_tracks_trend_changes(self):
        fc = HoltForecaster()
        step = 0.0
        for i in range(15):
            fc.update(i * 10.0, step)
            step += 10.0
        for i in range(15, 60):
            fc.update(i * 10.0, step)
            step += 30.0  # rate tripled
        result = fc.forecast(590.0, step + 3000.0)
        assert result.rate == pytest.approx(3.0, rel=0.10)


class TestForecasterEnsemble:
    def test_best_name_none_before_scoring(self):
        assert ForecasterEnsemble().best_name is None

    def test_prefers_robust_member_on_outlier_stream(self):
        fc = ForecasterEnsemble()
        for i in range(60):
            t = i * 10.0
            step = 2.0 * t
            if i % 7 == 3:  # recurring corrupted markers
                step += 400.0
            fc.update(t, step)
        assert fc.best_name == "theilsen"
        result = fc.forecast(590.0, 5000.0)
        assert result.rate == pytest.approx(2.0, rel=0.05)

    def test_selection_adapts_to_rate_change(self):
        """After a sharp rate change the drift-adaptive member wins."""
        fc = ForecasterEnsemble()
        step = 0.0
        for i in range(20):
            fc.update(i * 10.0, step)
            step += 10.0
        for i in range(20, 60):
            fc.update(i * 10.0, step)
            step += 30.0
        assert fc.best_name == "ewma"
        result = fc.forecast(590.0, step + 3000.0)
        assert result.rate == pytest.approx(3.0, rel=0.1)

    def test_members_are_registered_and_exclude_the_ensemble(self):
        assert set(ENSEMBLE_MEMBERS) <= set(forecaster_names())
        assert "ensemble" not in ENSEMBLE_MEMBERS

    def test_forecast_answers_from_best_member(self):
        rng = np.random.default_rng(4)
        fc = ForecasterEnsemble()
        now = feed_linear(fc, rate=1.0, n=40, dt=10.0, noise=2.0, rng=rng)
        best = fc.best_name
        assert best in ENSEMBLE_MEMBERS
        assert fc.forecast(now, 2000.0) == fc._members[best].forecast(now, 2000.0)


class TestRegistry:
    def test_all_names_constructible(self):
        for name in forecaster_names():
            fc = make_forecaster(name)
            assert fc.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown forecaster"):
            make_forecaster("oracle")

    def test_names_match_expected(self):
        assert set(forecaster_names()) == set(ALL_NAMES)

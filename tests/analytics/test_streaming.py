"""Tests for streaming statistics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analytics.streaming import Ewma, RollingWindow

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
alphas = st.floats(min_value=0.01, max_value=1.0)


class TestEwma:
    def test_first_value_sets_level(self):
        e = Ewma(0.5)
        assert e.update(10.0) == 10.0

    def test_converges_to_constant(self):
        e = Ewma(0.3)
        for _ in range(100):
            e.update(7.0)
        assert e.value == pytest.approx(7.0)
        assert e.std == pytest.approx(0.0, abs=1e-9)

    def test_smoothing_formula(self):
        e = Ewma(0.5)
        e.update(0.0)
        e.update(10.0)
        assert e.value == pytest.approx(5.0)
        e.update(10.0)
        assert e.value == pytest.approx(7.5)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            Ewma(0.0)
        with pytest.raises(ValueError):
            Ewma(1.5)

    def test_empty_value_nan(self):
        assert math.isnan(Ewma(0.5).value)

    def test_variance_tracks_noise(self):
        rng = np.random.default_rng(1)
        e = Ewma(0.1)
        for x in rng.normal(0, 2.0, size=2000):
            e.update(x)
        # EW std should be in the ballpark of the true std
        assert 1.0 < e.std < 3.0

    def test_update_returns_current_value(self):
        e = Ewma(0.25)
        for x in (3.0, -1.0, 8.0):
            assert e.update(x) == e.value

    def test_std_zero_after_first_sample(self):
        e = Ewma(0.5)
        e.update(42.0)
        assert e.std == 0.0
        assert e.n == 1

    def test_alpha_one_tracks_last_sample(self):
        e = Ewma(1.0)
        for x in (1.0, 9.0, -4.0):
            e.update(x)
        assert e.value == -4.0
        assert e.std == 0.0

    @given(alphas, st.lists(floats, min_size=1, max_size=100))
    def test_property_value_within_observed_range(self, alpha, data):
        e = Ewma(alpha)
        for x in data:
            e.update(x)
        slack = 1e-9 * max(1.0, max(abs(x) for x in data))
        assert min(data) - slack <= e.value <= max(data) + slack

    @given(alphas, st.lists(floats, min_size=1, max_size=100))
    def test_property_std_finite_and_nonnegative(self, alpha, data):
        e = Ewma(alpha)
        for x in data:
            e.update(x)
        assert e.std >= 0.0
        assert math.isfinite(e.std)
        assert e.n == len(data)


class TestRollingWindow:
    def test_keeps_last_n(self):
        w = RollingWindow(3)
        for x in [1, 2, 3, 4, 5]:
            w.update(x)
        assert list(w._buf) == [3, 4, 5]
        assert w.full

    def test_stats(self):
        w = RollingWindow(5)
        for x in [1.0, 2.0, 3.0, 4.0]:
            w.update(x)
        assert w.mean == pytest.approx(2.5)
        assert w.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert not w.full

    def test_empty_stats_nan(self):
        w = RollingWindow(3)
        assert math.isnan(w.mean)
        assert math.isnan(w.std)

    def test_single_sample_std_nan(self):
        w = RollingWindow(3)
        w.update(7.0)
        assert w.mean == 7.0
        assert math.isnan(w.std)

    @given(st.integers(min_value=1, max_value=20), st.lists(floats, max_size=60))
    def test_property_keeps_last_size_samples(self, size, data):
        w = RollingWindow(size)
        for x in data:
            w.update(x)
        assert list(w._buf) == data[-size:]
        assert w.full == (len(data) >= size)

    @given(st.integers(min_value=2, max_value=20), st.lists(floats, min_size=2, max_size=60))
    def test_property_stats_match_numpy(self, size, data):
        w = RollingWindow(size)
        for x in data:
            w.update(x)
        tail = data[-size:]
        np.testing.assert_allclose(w.mean, np.mean(tail), rtol=1e-9, atol=1e-6)
        np.testing.assert_allclose(w.std, np.std(tail, ddof=1), rtol=1e-9, atol=1e-6)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            RollingWindow(0)

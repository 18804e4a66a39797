"""Tests for online models (RLS and the heavyweight batch baseline)."""

import numpy as np
import pytest

from repro.analytics import models
from repro.analytics.models import BatchPolynomialModel, RecursiveLeastSquares


class TestRecursiveLeastSquares:
    def test_learns_linear_function(self):
        rls = RecursiveLeastSquares(n_features=2, forgetting=1.0)
        rng = np.random.default_rng(0)
        for _ in range(300):
            x = rng.uniform(-5, 5, size=2)
            y = 3.0 + 2.0 * x[0] - 1.5 * x[1]
            rls.update(x, y)
        pred = rls.predict([1.0, 1.0])
        # the P-prior acts as a tiny ridge penalty, so convergence is
        # near-exact rather than exact
        assert pred == pytest.approx(3.0 + 2.0 - 1.5, abs=1e-3)
        np.testing.assert_allclose(rls.weights, [3.0, 2.0, -1.5], atol=1e-3)

    def test_none_before_two_updates(self):
        rls = RecursiveLeastSquares(n_features=1)
        assert rls.predict([1.0]) is None
        rls.update([1.0], 1.0)
        assert rls.predict([1.0]) is None

    def test_forgetting_tracks_drift(self):
        rng = np.random.default_rng(1)
        adaptive = RecursiveLeastSquares(n_features=1, forgetting=0.95)
        frozen = RecursiveLeastSquares(n_features=1, forgetting=1.0)
        # regime 1: y = x
        for _ in range(200):
            x = rng.uniform(0, 10)
            for m in (adaptive, frozen):
                m.update([x], x)
        # regime 2: y = 3x
        for _ in range(100):
            x = rng.uniform(0, 10)
            for m in (adaptive, frozen):
                m.update([x], 3.0 * x)
        x_test = 5.0
        err_adaptive = abs(adaptive.predict([x_test]) - 15.0)
        err_frozen = abs(frozen.predict([x_test]) - 15.0)
        assert err_adaptive < err_frozen

    def test_noise_robustness(self):
        rng = np.random.default_rng(2)
        rls = RecursiveLeastSquares(n_features=1, forgetting=1.0)
        for _ in range(2000):
            x = rng.uniform(-1, 1)
            rls.update([x], 5.0 * x + rng.normal(0, 0.5))
        assert rls.predict([0.5]) == pytest.approx(2.5, abs=0.1)

    def test_feature_shape_validation(self):
        rls = RecursiveLeastSquares(n_features=2)
        with pytest.raises(ValueError):
            rls.update([1.0], 1.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            RecursiveLeastSquares(n_features=0)
        with pytest.raises(ValueError):
            RecursiveLeastSquares(n_features=1, forgetting=0.0)

    def test_param_count(self):
        assert RecursiveLeastSquares(n_features=3).param_count == 4  # + bias


class TestBatchPolynomialModel:
    def test_fits_polynomial(self):
        model = BatchPolynomialModel()
        for x in np.linspace(0, 10, 50):
            model.update([x], 1.0 + 2.0 * x + 0.5 * x * x)
        assert model.predict([4.0]) == pytest.approx(1.0 + 8.0 + 8.0, rel=1e-4)

    def test_none_before_enough_points(self):
        model = BatchPolynomialModel()
        model.update([1.0], 1.0)
        assert model.predict([1.0]) is None

    def test_history_bound(self, monkeypatch):
        monkeypatch.setattr(models, "POLY_MAX_HISTORY", 10)
        model = BatchPolynomialModel()
        for x in range(50):
            model.update([float(x)], float(x))
        assert len(model._x) == 10

    def test_fit_cost_grows_with_history(self):
        model = BatchPolynomialModel()
        for x in np.linspace(0, 1, 30):
            model.update([x], x)
        cost_30 = model.total_fit_flops
        for x in np.linspace(1, 2, 30):
            model.update([x], x)
        cost_60 = model.total_fit_flops
        # second 30 updates cost more than the first 30 (refit over more data)
        assert cost_60 - cost_30 > cost_30

    def test_multivariate_rejected(self):
        model = BatchPolynomialModel()
        with pytest.raises(ValueError):
            model.update([1.0, 2.0], 1.0)

    def test_param_count(self):
        assert BatchPolynomialModel().param_count == 9

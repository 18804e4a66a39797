"""Time-to-completion (TTC) forecasting from progress markers.

The Scheduler use case (Fig. 3) needs "a few simple measurable quantities
... to forecast time to completion".  A forecaster consumes the stream of
``(time, step)`` progress markers and predicts when the application will
reach its target step, together with a prediction interval — the
confidence measure Section IV requires before autonomous action.

Five implementations with different robustness/cost trade-offs, plus
:class:`ForecasterEnsemble`, which answers from whichever of them has
tracked the stream best:

=================  ==========================================  =========
Forecaster         Method                                      Cost/update
=================  ==========================================  =========
RateForecaster     end-to-end average progress rate            O(1)
EwmaRateForecaster EWMA of incremental rates (drift-adaptive)  O(1)
OLSForecaster      least squares step ~ a + b*t + OLS PI       O(w)
TheilSenForecaster median of pairwise slopes (outlier-robust)  O(w²)
HoltForecaster     double exponential smoothing (level+trend)  O(1)
=================  ==========================================  =========

``w`` is the retained window length (bounded).  All forecasters answer
``None`` until they have enough information, never a wild guess.  Their
tuning is fixed by the module constants below.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analytics.streaming import Ewma

#: Rate forecaster: relative band around the mean rate.
RATE_BAND = 0.15
#: EWMA rate forecaster: smoothing of the incremental rates.
EWMA_ALPHA = 0.3
#: EWMA and Holt forecasters: half-width of the band in sigmas.
BAND_SIGMAS = 2.0
#: OLS forecaster: retained markers and the normal quantile of its interval.
OLS_WINDOW = 64
OLS_Z = 1.96
#: Theil–Sen forecaster: retained markers (bounds the O(w²) slope set).
THEILSEN_WINDOW = 48
#: Holt forecaster: level and trend smoothing.
HOLT_ALPHA = 0.5
HOLT_BETA = 0.2
#: Ensemble: its members and the smoothing of their one-step errors.
ENSEMBLE_MEMBERS = ("rate", "ewma", "ols", "theilsen", "holt")
ENSEMBLE_ERROR_ALPHA = 0.3


@dataclass(frozen=True)
class ForecastResult:
    """Prediction of when the target step count will be reached.

    ``eta`` is an absolute simulation time.  ``eta_lo``/``eta_hi`` bound
    the prediction (central interval at the forecaster's configured
    confidence).  ``rate`` is the estimated progress rate (steps/s).
    """

    eta: float
    eta_lo: float
    eta_hi: float
    rate: float
    n_markers: int

    @property
    def interval_width(self) -> float:
        return self.eta_hi - self.eta_lo

    def remaining(self, now: float) -> float:
        """Predicted seconds until completion from ``now``."""
        return max(0.0, self.eta - now)


class Forecaster(abc.ABC):
    """Streaming TTC forecaster over ``(time, step)`` markers."""

    #: human-readable name used by configs (``make_forecaster``) and reports
    name: str = "forecaster"

    @abc.abstractmethod
    def update(self, t: float, step: float) -> None:
        """Ingest one progress marker."""

    @abc.abstractmethod
    def forecast(self, now: float, target_step: float) -> Optional[ForecastResult]:
        """Predict completion of ``target_step``; ``None`` if not ready."""

    def rate_estimate(self) -> Optional[float]:
        """Current progress-rate estimate (steps/s); ``None`` if not ready.

        Used by the ensemble to score members without a full forecast.
        """
        return None


def _finite_eta(now: float, last_step: float, target_step: float, rate: float) -> Optional[float]:
    """Completion time at constant ``rate``; None when rate is unusable."""
    if rate <= 0 or not math.isfinite(rate):
        return None
    return now + max(0.0, target_step - last_step) / rate


class RateForecaster(Forecaster):
    """Average rate between the first and last marker.

    The simplest "few simple measurable quantities" estimator.  The
    interval is a multiplicative band around the mean rate, widening for
    short histories.
    """

    name = "rate"

    def __init__(self) -> None:
        self._first: Optional[tuple[float, float]] = None
        self._last: Optional[tuple[float, float]] = None
        self.n = 0

    def update(self, t: float, step: float) -> None:
        if self._first is None:
            self._first = (t, step)
        self._last = (t, step)
        self.n += 1

    def rate_estimate(self) -> Optional[float]:
        if self._first is None or self._last is None or self.n < 2:
            return None
        (t0, s0), (t1, s1) = self._first, self._last
        if t1 <= t0 or s1 <= s0:
            return None
        return (s1 - s0) / (t1 - t0)

    def forecast(self, now: float, target_step: float) -> Optional[ForecastResult]:
        rate = self.rate_estimate()
        if rate is None:
            return None
        _, s1 = self._last
        eta = _finite_eta(now, s1, target_step, rate)
        if eta is None:
            return None
        # widen the band when few markers support the estimate
        widen = RATE_BAND * (1.0 + 2.0 / max(1, self.n - 1))
        lo = _finite_eta(now, s1, target_step, rate * (1.0 + widen))
        hi = _finite_eta(now, s1, target_step, rate * max(1e-12, 1.0 - widen))
        return ForecastResult(eta, lo, hi, rate, self.n)


class EwmaRateForecaster(Forecaster):
    """EWMA over incremental rates — adapts to progress-rate drift."""

    name = "ewma"

    def __init__(self) -> None:
        self._ewma = Ewma(EWMA_ALPHA)
        self._last: Optional[tuple[float, float]] = None
        self.n = 0

    def update(self, t: float, step: float) -> None:
        if self._last is not None:
            dt = t - self._last[0]
            ds = step - self._last[1]
            if dt > 0:
                self._ewma.update(ds / dt)
        self._last = (t, step)
        self.n += 1

    def rate_estimate(self) -> Optional[float]:
        if self._last is None or self._ewma.n < 2:
            return None
        return self._ewma.value

    def forecast(self, now: float, target_step: float) -> Optional[ForecastResult]:
        rate = self.rate_estimate()
        if rate is None:
            return None
        eta = _finite_eta(now, self._last[1], target_step, rate)
        if eta is None:
            return None
        sigma = self._ewma.std
        rate_hi = rate + BAND_SIGMAS * sigma
        rate_lo = max(1e-12, rate - BAND_SIGMAS * sigma)
        lo = _finite_eta(now, self._last[1], target_step, rate_hi) or eta
        hi = _finite_eta(now, self._last[1], target_step, rate_lo) or eta
        return ForecastResult(eta, lo, hi, rate, self.n)


class OLSForecaster(Forecaster):
    """Ordinary least squares ``step ~ a + b t`` over a bounded window.

    The prediction interval follows the classical OLS formula for a new
    observation, inverted onto the time axis at the target step via the
    delta method (interval on the predicted step mapped through 1/b).
    """

    name = "ols"

    def __init__(self) -> None:
        self._t: list[float] = []
        self._s: list[float] = []

    def update(self, t: float, step: float) -> None:
        self._t.append(float(t))
        self._s.append(float(step))
        if len(self._t) > OLS_WINDOW:
            self._t.pop(0)
            self._s.pop(0)

    def rate_estimate(self) -> Optional[float]:
        fit = self._fit()
        return fit[1] if fit is not None else None

    def _fit(self) -> Optional[tuple]:
        """OLS fit over the window: ``(a, b, t_mean, sxx, sigma2, n)``."""
        n = len(self._t)
        if n < 3:
            return None
        t = np.asarray(self._t)
        s = np.asarray(self._s)
        t_mean = t.mean()
        s_mean = s.mean()
        sxx = float(np.sum((t - t_mean) ** 2))
        if sxx <= 0:
            return None
        b = float(np.sum((t - t_mean) * (s - s_mean)) / sxx)
        if b <= 0:
            return None
        a = s_mean - b * t_mean
        resid = s - (a + b * t)
        dof = n - 2
        sigma2 = float(np.sum(resid**2) / dof) if dof > 0 else 0.0
        return a, b, float(t_mean), sxx, sigma2, n

    def forecast(self, now: float, target_step: float) -> Optional[ForecastResult]:
        fit = self._fit()
        if fit is None:
            return None
        a, b, t_mean, sxx, sigma2, n = fit
        eta = (target_step - a) / b
        if eta < now:
            eta = now
        # std error of predicted *step* at time eta
        se_step = math.sqrt(sigma2 * (1.0 + 1.0 / n + (eta - t_mean) ** 2 / sxx))
        # delta method: time uncertainty = step uncertainty / slope
        se_time = se_step / b
        return ForecastResult(
            eta=max(now, eta),
            eta_lo=max(now, eta - OLS_Z * se_time),
            eta_hi=eta + OLS_Z * se_time,
            rate=b,
            n_markers=n,
        )


class TheilSenForecaster(Forecaster):
    """Theil–Sen median-slope regression — robust to marker outliers.

    Every pair of retained markers gives a slope, so the bounded window
    (``THEILSEN_WINDOW``) is what bounds the cost on long histories.
    """

    name = "theilsen"

    def __init__(self) -> None:
        self._t: list[float] = []
        self._s: list[float] = []

    def update(self, t: float, step: float) -> None:
        self._t.append(float(t))
        self._s.append(float(step))
        if len(self._t) > THEILSEN_WINDOW:
            self._t.pop(0)
            self._s.pop(0)

    def _slopes(self) -> Optional[np.ndarray]:
        n = len(self._t)
        if n < 3:
            return None
        t = np.asarray(self._t)
        s = np.asarray(self._s)
        # all pairwise slopes via broadcasting on the bounded window
        dt = t[None, :] - t[:, None]
        ds = s[None, :] - s[:, None]
        iu = np.triu_indices(n, k=1)
        valid = dt[iu] > 0
        if not np.any(valid):
            return None
        return ds[iu][valid] / dt[iu][valid]

    def rate_estimate(self) -> Optional[float]:
        slopes = self._slopes()
        if slopes is None:
            return None
        b = float(np.median(slopes))
        return b if b > 0 else None

    def forecast(self, now: float, target_step: float) -> Optional[ForecastResult]:
        slopes = self._slopes()
        if slopes is None:
            return None
        n = len(self._t)
        t = np.asarray(self._t)
        s = np.asarray(self._s)
        b = float(np.median(slopes))
        if b <= 0:
            return None
        a = float(np.median(s - b * t))
        eta = max(now, (target_step - a) / b)
        # interval from the IQR of slopes mapped through the inversion
        lo_slope = float(np.percentile(slopes, 75))
        hi_slope = float(np.percentile(slopes, 25))
        last_step = float(s[-1])
        lo = _finite_eta(now, last_step, target_step, max(lo_slope, 1e-12)) or eta
        hi = _finite_eta(now, last_step, target_step, max(hi_slope, 1e-12)) or eta
        lo, hi = min(lo, eta), max(hi, eta)
        return ForecastResult(eta, lo, hi, b, n)


class HoltForecaster(Forecaster):
    """Holt double exponential smoothing on the step series.

    Maintains a level and trend; forecast inverts the trend line.  The
    interval widens with the smoothed one-step forecast error (an
    EWMA of absolute residuals), following standard practice.
    """

    name = "holt"

    def __init__(self) -> None:
        self._level: Optional[float] = None
        self._trend = 0.0
        self._last_t: Optional[float] = None
        self._err = Ewma(0.2)
        self.n = 0

    def update(self, t: float, step: float) -> None:
        self.n += 1
        if self._level is None:
            self._level = float(step)
            self._last_t = t
            return
        dt = t - self._last_t
        if dt <= 0:
            return
        predicted = self._level + self._trend * dt
        self._err.update(abs(step - predicted))
        new_level = HOLT_ALPHA * step + (1 - HOLT_ALPHA) * predicted
        new_trend = HOLT_BETA * (new_level - self._level) / dt + (1 - HOLT_BETA) * self._trend
        self._level, self._trend, self._last_t = new_level, new_trend, t

    def rate_estimate(self) -> Optional[float]:
        if self._level is None or self.n < 3 or self._trend <= 0:
            return None
        return self._trend

    def forecast(self, now: float, target_step: float) -> Optional[ForecastResult]:
        if self._level is None or self.n < 3 or self._trend <= 0:
            return None
        # project level forward to `now` first
        level_now = self._level + self._trend * max(0.0, now - self._last_t)
        eta = _finite_eta(now, level_now, target_step, self._trend)
        if eta is None:
            return None
        err = self._err.value if self._err.n else 0.0
        half = BAND_SIGMAS * err / self._trend if self._trend > 0 else 0.0
        return ForecastResult(eta, max(now, eta - half), eta + half, self._trend, self.n)


class ForecasterEnsemble(Forecaster):
    """Lifelong-adaptive forecaster: delegates to the current best member.

    Section IV calls for "continual/lifelong AI that can evolve rapidly
    with small overhead".  The ensemble runs several member forecasters
    on the same marker stream, scores each one's one-marker-ahead step
    prediction with an EWMA of absolute error, and answers forecasts
    from the member with the lowest recent error.  Selection adapts
    within a few markers when the stream's character changes (e.g.
    outliers appear and Theil–Sen starts beating OLS).
    """

    name = "ensemble"

    def __init__(self) -> None:
        self._members = {n: make_forecaster(n) for n in ENSEMBLE_MEMBERS}
        self._errors = {n: Ewma(ENSEMBLE_ERROR_ALPHA) for n in ENSEMBLE_MEMBERS}
        self._last: Optional[tuple[float, float]] = None
        self.n = 0

    def update(self, t: float, step: float) -> None:
        # score members on the step they would have predicted for `t`
        if self._last is not None:
            last_t, last_step = self._last
            dt = t - last_t
            if dt > 0:
                for name, fc in self._members.items():
                    # member's rate estimate as of the previous marker
                    rate = fc.rate_estimate()
                    if rate is not None and math.isfinite(rate):
                        predicted = last_step + rate * dt
                        self._errors[name].update(abs(predicted - step))
        for fc in self._members.values():
            fc.update(t, step)
        self._last = (t, step)
        self.n += 1

    @property
    def best_name(self) -> Optional[str]:
        """Member with the lowest recent one-step error; None pre-scoring."""
        scored = {n: e.value for n, e in self._errors.items() if e.n > 0}
        if not scored:
            return None
        return min(sorted(scored), key=lambda n: scored[n])

    def forecast(self, now: float, target_step: float) -> Optional[ForecastResult]:
        order = []
        best = self.best_name
        if best is not None:
            order.append(best)
        order.extend(n for n in self._members if n not in order)
        for name in order:
            result = self._members[name].forecast(now, target_step)
            if result is not None:
                return result
        return None


_FORECASTERS = {
    "rate": RateForecaster,
    "ewma": EwmaRateForecaster,
    "ols": OLSForecaster,
    "theilsen": TheilSenForecaster,
    "holt": HoltForecaster,
    "ensemble": ForecasterEnsemble,
}


def make_forecaster(name: str) -> Forecaster:
    """Construct a forecaster by name (interchangeability hook)."""
    try:
        cls = _FORECASTERS[name]
    except KeyError:
        raise ValueError(f"unknown forecaster {name!r}; choose from {sorted(_FORECASTERS)}") from None
    return cls()


def forecaster_names() -> list[str]:
    return sorted(_FORECASTERS)

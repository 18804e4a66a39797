"""Online learning models (Section IV ablation targets).

The paper argues that "the constantly evolving nature of the environment
requires continual/lifelong AI that can evolve rapidly with small
overhead" and that large models "may not be efficient when complex
optimizations for real-time decisions must be made".

Two model families make that claim testable (experiment E9):

* :class:`RecursiveLeastSquares` — the paper-endorsed approach: a tiny
  linear model updated in O(d²) per sample with a forgetting factor, so
  it tracks drift and never needs a refit.
* :class:`BatchPolynomialModel` — the "large model" stand-in: a
  high-degree polynomial ridge regression refit from scratch on every
  update over the full retained history, representing heavyweight
  offline-style models dropped into an online setting.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

#: RLS: initial inverse covariance ``P = RLS_DELTA * I`` (a weak prior).
RLS_DELTA = 100.0
#: Batch baseline: polynomial degree, ridge penalty and retained history.
POLY_DEGREE = 8
POLY_RIDGE = 1e-6
POLY_MAX_HISTORY = 100_000


class RecursiveLeastSquares:
    """RLS with exponential forgetting.

    Maintains weights ``w`` and inverse covariance ``P`` for the model
    ``y ≈ w·[1, x]``.  ``forgetting`` λ ∈ (0, 1]: 1.0 is ordinary RLS;
    smaller values discount old data (lifelong adaptation).
    """

    def __init__(self, n_features: int, forgetting: float = 0.99) -> None:
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting must be in (0, 1]")
        self.n_features = n_features
        self.forgetting = forgetting
        d = n_features + 1  # bias term
        self._w = np.zeros(d)
        self._P = np.eye(d) * RLS_DELTA
        self.n = 0

    def _phi(self, x: Sequence[float]) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_features,):
            raise ValueError(f"expected {self.n_features} features, got shape {x.shape}")
        return np.concatenate(([1.0], x))

    def update(self, x: Sequence[float], y: float) -> None:
        phi = self._phi(x)
        lam = self.forgetting
        Pphi = self._P @ phi
        gain = Pphi / (lam + phi @ Pphi)
        error = float(y) - float(self._w @ phi)
        self._w = self._w + gain * error
        self._P = (self._P - np.outer(gain, Pphi)) / lam
        # enforce symmetry against numerical drift
        self._P = 0.5 * (self._P + self._P.T)
        self.n += 1

    def predict(self, x: Sequence[float]) -> Optional[float]:
        if self.n < 2:
            return None
        return float(self._w @ self._phi(x))

    @property
    def param_count(self) -> int:
        return self._w.size

    @property
    def weights(self) -> np.ndarray:
        return self._w.copy()


class BatchPolynomialModel:
    """Deliberately heavyweight baseline: full refit per update.

    Fits a degree-``POLY_DEGREE`` polynomial (univariate input) with ridge
    regularization over the entire retained history on *every* update.
    Its per-update cost grows with history length — the inefficiency the
    paper warns about for real-time decision loops.
    """

    def __init__(self) -> None:
        self._x: list[float] = []
        self._y: list[float] = []
        self._coeffs: Optional[np.ndarray] = None
        self._x_scale = 1.0
        self.n = 0
        self.total_fit_flops = 0.0  # rough accounting for cost reports

    def update(self, x: Sequence[float], y: float) -> None:
        x = np.asarray(x, dtype=np.float64)
        if x.size != 1:
            raise ValueError("BatchPolynomialModel is univariate")
        self._x.append(float(x[0]))
        self._y.append(float(y))
        if len(self._x) > POLY_MAX_HISTORY:
            self._x.pop(0)
            self._y.pop(0)
        self.n += 1
        self._refit()

    def _refit(self) -> None:
        n = len(self._x)
        if n < POLY_DEGREE + 1:
            self._coeffs = None
            return
        xs = np.asarray(self._x)
        ys = np.asarray(self._y)
        # scale to [-1, 1] for conditioning
        self._x_scale = max(1e-12, float(np.max(np.abs(xs))))
        xn = xs / self._x_scale
        V = np.vander(xn, POLY_DEGREE + 1, increasing=True)
        A = V.T @ V + POLY_RIDGE * np.eye(POLY_DEGREE + 1)
        b = V.T @ ys
        self._coeffs = np.linalg.solve(A, b)
        self.total_fit_flops += n * (POLY_DEGREE + 1) ** 2

    def predict(self, x: Sequence[float]) -> Optional[float]:
        if self._coeffs is None:
            return None
        xv = float(np.asarray(x, dtype=np.float64).reshape(()))
        xn = xv / self._x_scale
        powers = np.power(xn, np.arange(POLY_DEGREE + 1))
        return float(self._coeffs @ powers)

    @property
    def param_count(self) -> int:
        return POLY_DEGREE + 1

"""Streaming statistics primitives.

:class:`Ewma` is O(1) per update and never stores the raw stream;
:class:`RollingWindow` stores exactly its window.  They are the building
blocks of the forecasters, the z-score detector and the filesystem's
bandwidth tracking.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional

import numpy as np


class Ewma:
    """Exponentially weighted moving average with optional variance.

    ``alpha`` is the smoothing factor in (0, 1]; larger reacts faster.
    The EW variance uses the standard recursive estimator, which the
    forecasters' prediction bands consume.
    """

    __slots__ = ("alpha", "_value", "_variance", "n")

    def __init__(self, alpha: float) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._value: Optional[float] = None
        self._variance = 0.0
        self.n = 0

    def update(self, x: float) -> float:
        x = float(x)
        self.n += 1
        if self._value is None:
            self._value = x
            self._variance = 0.0
        else:
            diff = x - self._value
            incr = self.alpha * diff
            self._value += incr
            self._variance = (1.0 - self.alpha) * (self._variance + self.alpha * diff * diff)
        return self._value

    @property
    def value(self) -> float:
        return self._value if self._value is not None else math.nan

    @property
    def std(self) -> float:
        return math.sqrt(self._variance)


class RollingWindow:
    """The latest ``size`` samples, with their mean and sample std."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        self._buf: Deque[float] = deque(maxlen=size)

    def update(self, x: float) -> None:
        self._buf.append(float(x))

    @property
    def full(self) -> bool:
        return len(self._buf) == self.size

    @property
    def mean(self) -> float:
        return float(np.mean(self._buf)) if self._buf else math.nan

    @property
    def std(self) -> float:
        """Sample std (ddof=1); NaN for fewer than two points."""
        return float(np.std(self._buf, ddof=1)) if len(self._buf) >= 2 else math.nan

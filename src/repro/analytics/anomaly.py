"""Online anomaly detection.

:class:`ZScoreDetector` consumes one sample at a time (or a whole series
through :meth:`~ZScoreDetector.scan`) and reports an :class:`Anomaly`
when a sample is inconsistent with its recent window.  It is
deliberately simple and explainable — the paper's Section IV stresses
interpretability over model size for operational trust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.analytics.streaming import RollingWindow

#: Floor on the window std, so a constant window cannot divide by zero.
MIN_STD = 1e-9


@dataclass(frozen=True)
class Anomaly:
    """One detected anomaly: when, what value, how severe, which rule."""

    time: float
    value: float
    score: float
    kind: str
    detail: str = ""


class ZScoreDetector:
    """Rolling-window z-score thresholding.

    Flags samples more than ``threshold`` sample-standard-deviations from
    the window mean.  The window must be full before detection starts
    (cold-start suppression), and flagged samples are *not* fed into the
    window, so a level shift keeps firing until re-armed.
    """

    name = "zscore"

    def __init__(self, window: int = 60, threshold: float = 4.0) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.window = RollingWindow(window)
        self.threshold = threshold

    def update(self, t: float, value: float) -> Optional[Anomaly]:
        if not self.window.full:
            self.window.update(value)
            return None
        mean = self.window.mean
        std = max(self.window.std, MIN_STD)
        z = (value - mean) / std
        if abs(z) >= self.threshold:
            return Anomaly(t, value, abs(z), self.name, f"z={z:.2f} vs window mean {mean:.3g}")
        self.window.update(value)
        return None

    def scan(self, times, values) -> "list[Anomaly]":
        """Batch-evaluate a whole series with the same semantics as
        repeated :meth:`update` calls, at running-sum speed.

        The per-point path recomputes window mean/std from the buffer on
        every sample (an O(window) NumPy reduction per point), which
        dominates experiment wall-clock when diagnosing thousands of
        nodes.  ``scan`` maintains the rolling sum and sum-of-squares
        incrementally — identical accepted-sample window contents and the
        same flag decisions up to float-summation rounding — so a full
        series costs a tight O(n) pass.  The detector's window state
        after ``scan`` matches the sequential equivalent.
        """
        window = self.window
        size = window.size
        buf = window._buf
        # Accumulate shifted values (v - offset) so the sum-of-squares
        # variance keeps precision for large-mean series (counters,
        # byte totals): the shift cancels in the variance and is added
        # back for the mean.
        if buf:
            offset = buf[0]
        elif len(values):
            offset = float(values[0])
        else:
            return []
        acc_sum = float(sum(v - offset for v in buf))
        acc_sumsq = float(sum((v - offset) ** 2 for v in buf))
        threshold = self.threshold
        min_std = MIN_STD
        out: list[Anomaly] = []
        for t, value in zip(times, values):
            value = float(value)
            n = len(buf)
            if n == size:
                mean = offset + acc_sum / n
                if n >= 2:
                    var = (acc_sumsq - acc_sum * acc_sum / n) / (n - 1)
                    std = max(math.sqrt(var) if var > 0 else 0.0, min_std)
                    z = (value - mean) / std
                else:  # window=1: sample std undefined, never flags
                    z = math.nan
                if abs(z) >= threshold:
                    out.append(
                        Anomaly(t, value, abs(z), self.name,
                                f"z={z:.2f} vs window mean {mean:.3g}")
                    )
                    continue  # flagged samples are not fed into the window
                oldest = buf[0] - offset
                acc_sum -= oldest
                acc_sumsq -= oldest * oldest
            buf.append(value)
            shifted = value - offset
            acc_sum += shifted
            acc_sumsq += shifted * shifted
        return out

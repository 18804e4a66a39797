"""Vectorized sensor banks.

A :class:`SensorBank` binds one node's
:class:`~repro.telemetry.metric.SeriesKey` set to a vectorized readout
function over simulated system state.  Sampling groups poll banks; banks
never push.  Measurement noise and failure (``NaN`` readings) are
modelled here because they are properties of the sensing hardware, while
sampling jitter/dropout are modelled in the sampling group (properties
of the collection agent).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.telemetry.batch import SampleBatch, SeriesRegistry
from repro.telemetry.metric import SeriesKey


class SensorBank:
    """A group of series evaluated in one vectorized call per round.

    A bank produces the whole node's sampling round as a
    :class:`~repro.telemetry.batch.SampleBatch`: ``read_fn(now)`` returns
    an array of length ``len(keys)``, and measurement noise and sensor
    faults are drawn as arrays from the RNG stream.  ``NaN`` entries in
    the readout mark unavailable readings.

    ``noise_std`` and ``fault_prob`` accept either a scalar applied to
    every series or a per-series array.  Per read, fault draws happen
    before noise draws.
    """

    def __init__(
        self,
        keys: Sequence[SeriesKey],
        read_fn: Callable[[float], np.ndarray],
        *,
        registry: SeriesRegistry,
        noise_std: Union[float, np.ndarray] = 0.0,
        fault_prob: Union[float, np.ndarray] = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not keys:
            raise ValueError("a sensor bank needs at least one series")
        self.keys = list(keys)
        self.series_ids = registry.ids_for(self.keys)
        self._read_fn = read_fn
        self.noise_std = np.broadcast_to(
            np.asarray(noise_std, dtype=np.float64), (len(self.keys),)
        )
        self.fault_prob = np.broadcast_to(
            np.asarray(fault_prob, dtype=np.float64), (len(self.keys),)
        )
        if np.any(self.noise_std < 0):
            raise ValueError("noise_std must be >= 0")
        if np.any((self.fault_prob < 0) | (self.fault_prob > 1)):
            raise ValueError("fault_prob must be within [0, 1]")
        self._has_noise = bool(np.any(self.noise_std > 0))
        self._has_faults = bool(np.any(self.fault_prob > 0))
        #: True when readouts pass through untransformed — the sampling
        #: group may then call ``read_fn`` directly after one validated
        #: round (see SamplingGroup._collect_round)
        self.is_plain = not (self._has_noise or self._has_faults)
        if not self.is_plain and rng is None:
            raise ValueError("rng required when noise_std or fault_prob is set")
        self._rng = rng

    @property
    def read_fn(self) -> Callable[[float], np.ndarray]:
        return self._read_fn

    @property
    def size(self) -> int:
        return len(self.keys)

    def read_values(self, now: float, *, copy: bool = True) -> np.ndarray:
        """Raw vectorized readout: float64 array of ``size`` values with
        noise/faults applied; ``NaN`` marks unavailable.

        With ``copy=False`` the readout function's array may be returned
        as-is (when no fault/noise transform forces a copy) — callers
        must consume it before the next read.  The sampling group uses
        this since it immediately copies into its round column.
        """
        if copy or self._has_faults:
            values = np.array(self._read_fn(now), dtype=np.float64)
        else:
            values = np.asarray(self._read_fn(now), dtype=np.float64)
        if values.shape != (len(self.keys),):
            raise ValueError(
                f"read_fn returned shape {values.shape}, expected ({len(self.keys)},)"
            )
        if self._has_faults:
            faulted = self._rng.random(values.size) < self.fault_prob
            values[faulted] = np.nan
        if self._has_noise:
            values = values + self._rng.normal(0.0, 1.0, values.size) * self.noise_std
        return values

    def read(self, now: float) -> SampleBatch:
        """One sampling round as a batch (unavailable readings dropped)."""
        values = self.read_values(now)
        valid = np.isfinite(values)
        if valid.all():
            ids, vals = self.series_ids, values
        else:
            ids, vals = self.series_ids[valid], values[valid]
        return SampleBatch._trusted(ids, np.full(ids.size, now, dtype=np.float64), vals)

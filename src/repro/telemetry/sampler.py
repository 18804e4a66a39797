"""Periodic columnar sampling.

A :class:`SamplingGroup` owns :class:`~repro.telemetry.sensor.SensorBank`
objects for many nodes, fires **one** engine event per tick for the
whole group, and emits a single concatenated
:class:`~repro.telemetry.batch.SampleBatch`: at N nodes × M metrics a
tick costs one event and one batch.

Dropout models agent-side sample loss; it is decided *before* banks are
polled, so a lost round costs no simulated sensor CPU, and the overhead
accounting (Fig. 1 feasibility, E1) charges ``per_sample_cost_s`` only
for sensors actually read.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

import numpy as np

from repro.sim.engine import Engine, PeriodicTask
from repro.telemetry.batch import SampleBatch
from repro.telemetry.sensor import SensorBank

__all__ = ["SamplingGroup"]


class SamplingGroup:
    """Coalesced columnar sampling for a group of nodes.

    One :class:`SamplingGroup` typically mirrors one aggregation subtree
    (e.g. a rack): each member :class:`SensorBank` is one node's sensor
    set.  Per tick the group fires a single engine event, reads every
    bank vectorized, and submits **one** concatenated
    :class:`SampleBatch` to ``sink`` (any object with
    ``submit(batch: SampleBatch)``).

    ``dropout_prob`` is applied per bank per round (agent-side loss is a
    per-node phenomenon) with a single vectorized draw; dropped banks
    are not polled and accrue no overhead.  ``jitter_std`` is the
    std-dev of Gaussian jitter applied to each firing (seconds).
    """

    def __init__(
        self,
        engine: Engine,
        sink,
        *,
        period: float = 1.0,
        jitter_std: float = 0.0,
        dropout_prob: float = 0.0,
        per_sample_cost_s: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        name: str = "sampling-group",
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= dropout_prob <= 1.0:
            raise ValueError("dropout_prob must be within [0, 1]")
        if (jitter_std > 0 or dropout_prob > 0) and rng is None:
            raise ValueError("rng required when jitter_std or dropout_prob is set")
        self.engine = engine
        self.sink = sink
        self.period = period
        self.jitter_std = jitter_std
        self.dropout_prob = dropout_prob
        self.per_sample_cost_s = per_sample_cost_s
        self.rng = rng
        self.name = name
        self._task: Optional[PeriodicTask] = None
        self.samples_emitted = 0
        self.samples_dropped = 0
        self.overhead_cpu_s = 0.0
        self.banks: List[SensorBank] = []
        self.rounds = 0
        self._layout_banks = -1  # bank count the cached layout was built for
        self._all_ids: Optional[np.ndarray] = None
        self._offsets: List[int] = []

    def start(self, *, start_at: Optional[float] = None) -> None:
        if self._task is not None and not self._task.stopped:
            raise RuntimeError(f"{type(self).__name__} {self.name!r} already started")
        jitter_fn = None
        if self.jitter_std > 0:
            def jitter_fn() -> float:
                return float(self.rng.normal(0.0, self.jitter_std))
        self._task = self.engine.every(
            self.period, self._collect_round, start_at=start_at, jitter_fn=jitter_fn, label=self.name
        )

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()

    def add_bank(self, bank: SensorBank) -> None:
        self.banks.append(bank)

    def add_banks(self, banks: Iterable[SensorBank]) -> None:
        for bank in banks:
            self.add_bank(bank)

    @property
    def agent_count(self) -> int:
        """Number of monitored agents (nodes): one per member bank."""
        return len(self.banks)

    @property
    def sensor_count(self) -> int:
        return sum(bank.size for bank in self.banks)

    def overhead_cpu_frac(self, window_s: float) -> float:
        """Fraction of one agent's compute consumed over ``window_s``.

        The explicit accessor experiments should use instead of dividing
        ``overhead_cpu_s`` by hand: it normalizes by the number of agents
        the group stands for, so groups of any size report per node.
        """
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        return self.overhead_cpu_s / (self.agent_count * window_s)

    def _refresh_layout(self) -> None:
        """Precompute the group's concatenated id column and bank slices."""
        offsets = [0]
        for bank in self.banks:
            offsets.append(offsets[-1] + bank.size)
        self._offsets = offsets
        self._all_ids = np.concatenate([bank.series_ids for bank in self.banks])
        self._layout_banks = len(self.banks)
        self._validated = False
        self._readers = []

    def _build_readers(self, now: float, values: np.ndarray) -> None:
        """First round: read every bank through the checked path (shape
        validation), then cache per-bank readers — transform-free banks
        are called through their raw ``read_fn`` on later rounds, which
        skips a wrapper frame per bank per tick."""
        offsets = self._offsets
        readers = []
        for i, bank in enumerate(self.banks):
            values[offsets[i] : offsets[i + 1]] = bank.read_values(now, copy=False)
            fn = bank.read_fn if bank.is_plain else (
                lambda t, _b=bank: _b.read_values(t, copy=False)
            )
            readers.append((fn, offsets[i], offsets[i + 1]))
        self._readers = readers
        self._validated = True

    def _collect_round(self) -> None:
        if not self.banks:
            return
        self.rounds += 1
        now = self.engine.now
        if self.dropout_prob > 0:
            self._collect_round_with_dropout(now)
            return
        # Fast path: every bank reads into one preallocated column, so a
        # round costs one engine event and one batch for the whole group.
        if self._layout_banks != len(self.banks):
            self._refresh_layout()
        total = self._offsets[-1]
        values = np.empty(total, dtype=np.float64)
        if not self._validated:
            self._build_readers(now, values)
        else:
            for fn, lo, hi in self._readers:
                values[lo:hi] = fn(now)
        self.overhead_cpu_s += self.per_sample_cost_s * total
        if math.isfinite(values.sum()):
            batch = SampleBatch._trusted(
                self._all_ids, np.full(total, now, dtype=np.float64), values
            )
        else:  # some readings unavailable: drop the NaN rows
            valid = np.isfinite(values)
            ids = self._all_ids[valid]
            batch = SampleBatch._trusted(
                ids, np.full(ids.size, now, dtype=np.float64), values[valid]
            )
            if not len(batch):
                return
        self.samples_emitted += len(batch)
        self.sink.submit(batch)

    def _collect_round_with_dropout(self, now: float) -> None:
        """Slow path: per-bank agent loss decided before polling."""
        dropped = self.rng.random(len(self.banks)) < self.dropout_prob
        batches: List[SampleBatch] = []
        for i, bank in enumerate(self.banks):
            if dropped[i]:
                self.samples_dropped += bank.size
                continue
            batch = bank.read(now)
            self.overhead_cpu_s += self.per_sample_cost_s * bank.size
            if len(batch):
                batches.append(batch)
        if not batches:
            return
        merged = SampleBatch.concat(batches)
        self.samples_emitted += len(merged)
        self.sink.submit(merged)

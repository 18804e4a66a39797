"""Collection pipeline: aggregation tree with transport latency.

Production monitoring stacks forward samples through one or more
aggregation hops before they land in queryable storage; the end-to-end
delay is a hard floor on autonomy-loop reaction time.  The pipeline here
models each hop as a fixed latency plus optional loss, and counts
messages and bytes so experiment E1/E2 can report transport volume.

The native currency is the columnar
:class:`~repro.telemetry.batch.SampleBatch`: aggregators **coalesce**
every child batch arriving within one forwarding window into a single
concatenated batch per hop, and the root collector commits through
:meth:`~repro.telemetry.tsdb.TimeSeriesStore.append_batch` — one bulk
write per flush instead of one Python call per point.

Topology::

    SensorBank -> SamplingGroup -> Aggregator (level N) -> ... -> Collector (root) -> TimeSeriesStore
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.sim.engine import Engine
from repro.telemetry.batch import SampleBatch
from repro.telemetry.tsdb import TimeSeriesStore

#: Approximate wire size of one encoded sample (metric id, ts, value, labels).
SAMPLE_WIRE_BYTES = 64


@dataclass(frozen=True)
class AdaptiveCommitConfig:
    """Knobs for rate-adaptive commit coalescing at the root collector.

    The collector aims each bulk commit at ``target_batch_samples``
    rows: after every flush it re-estimates the ingest rate (EWMA over
    observed per-interval rows) and sets the next interval to
    ``target / rate``, clamped to ``[min_interval_s, max_interval_s]``.
    A flood of samples narrows the interval (bounded commit latency and
    batch memory); a trickle widens it (fewer, fuller commits) — the
    backpressure half of the PR 2 flow-control follow-up.
    """

    min_interval_s: float = 0.5
    max_interval_s: float = 60.0
    target_batch_samples: int = 4096
    #: EWMA weight of the newest rate observation, in (0, 1]
    smoothing: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.min_interval_s <= self.max_interval_s:
            raise ValueError("need 0 < min_interval_s <= max_interval_s")
        if self.target_batch_samples <= 0:
            raise ValueError("target_batch_samples must be positive")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")


class Collector:
    """Root of the pipeline: writes arriving samples into the store.

    Samples are written ``ingest_latency`` seconds after submission,
    modelling the final commit delay.  With ``commit_interval_s`` set,
    the root additionally coalesces submissions: everything arriving
    within one interval is committed as a single columnar bulk append
    (the LDMS-style store-side batching that makes high-rate ingest
    cheap).  ``latest_arrival_lag`` reports the *maximum* end-to-end lag
    across the most recently committed batch.
    """

    def __init__(
        self,
        engine: Engine,
        store: TimeSeriesStore,
        *,
        ingest_latency: float = 0.0,
        commit_interval_s: Optional[float] = None,
        adaptive_commit: Optional[AdaptiveCommitConfig] = None,
        max_pending_samples: Optional[int] = None,
        name: str = "root-collector",
    ) -> None:
        if ingest_latency < 0:
            raise ValueError("ingest_latency must be >= 0")
        if commit_interval_s is not None and commit_interval_s <= 0:
            raise ValueError("commit_interval_s must be positive when set")
        if max_pending_samples is not None and max_pending_samples <= 0:
            raise ValueError("max_pending_samples must be positive when set")
        self.engine = engine
        self.store = store
        self.ingest_latency = ingest_latency
        self.adaptive = adaptive_commit
        if commit_interval_s is None and adaptive_commit is not None:
            # adaptive coalescing implies coalescing: start conservative
            # (short interval) and let the observed rate widen it
            commit_interval_s = adaptive_commit.min_interval_s
        self.commit_interval_s = commit_interval_s
        #: queue limit (samples) on the coalescing window — the root's
        #: half of the aggregation-tree backpressure story.  ``None``
        #: keeps the historical unbounded behaviour.
        self.max_pending_samples = max_pending_samples
        self.name = name
        self.batches_received = 0
        self.commits = 0
        self.samples_ingested = 0
        self.latest_arrival_lag = 0.0
        self.interval_adjustments = 0
        self.dropped_batches = 0
        self.dropped_samples = 0
        self.dropped_bytes = 0
        self._pending_samples = 0
        self._rate_ewma: Optional[float] = None
        #: the accumulation window of the currently scheduled flush —
        #: max(ingest_latency, interval) at schedule time, which is the
        #: denominator of the rate observation (not the bare interval)
        self._window_s: Optional[float] = None
        self._pending: List[SampleBatch] = []
        self._flush_scheduled = False
        self._flush_seq = 0  # invalidates orphaned scheduled flush events

    def submit(self, samples: SampleBatch) -> None:
        if self.commit_interval_s is not None:
            # Tail-drop backpressure: once the coalescing window holds
            # the cap, arriving submissions bounce whole (a single
            # oversized submission into an empty window still commits —
            # otherwise it could never drain).  Dropping *new* arrivals
            # keeps the oldest data flowing, bounding worst-case lag.
            if (
                self.max_pending_samples is not None
                and self._pending_samples >= self.max_pending_samples
            ):
                n = len(samples)
                self.dropped_batches += 1
                self.dropped_samples += n
                self.dropped_bytes += n * SAMPLE_WIRE_BYTES
                return
            self.batches_received += 1
            self._pending.append(samples)
            self._pending_samples += len(samples)
            if not self._flush_scheduled:
                self._flush_scheduled = True
                self._flush_seq += 1
                delay = max(self.ingest_latency, self.commit_interval_s)
                self._window_s = delay  # actual accumulation window
                self.engine.schedule(
                    delay, self._scheduled_flush, self._flush_seq, label=self.name
                )
            return
        self.batches_received += 1
        if self.ingest_latency > 0:
            self.engine.schedule(self.ingest_latency, self._commit, samples, label=self.name)
        else:
            self._commit(samples)

    def flush(self) -> None:
        """Commit everything pending immediately (end-of-run drain).

        A manual drain is not an interval-length observation window, so
        it never feeds the adaptive rate estimate.
        """
        self._flush_pending(adapt=False)

    def _scheduled_flush(self, seq: int) -> None:
        """Interval-flush event; no-op when superseded.

        A manual :meth:`flush` (or a rescheduling after one) can leave
        this event orphaned in the engine queue — firing it anyway
        would commit a *newer* window early and feed a wrong-window (or
        empty) observation into the adaptive rate estimate.
        """
        if seq != self._flush_seq or not self._flush_scheduled:
            return
        self._flush_pending()

    def _flush_pending(self, adapt: bool = True) -> None:
        self._flush_scheduled = False
        pending, self._pending = self._pending, []
        self._pending_samples = 0
        merged = SampleBatch.concat(pending) if pending else None
        if adapt and self.adaptive is not None and self.commit_interval_s is not None:
            self._adapt_interval(len(merged) if merged is not None else 0)
        if merged is not None:
            self._commit(merged)

    def _adapt_interval(self, n_samples: int) -> None:
        """Retarget the commit interval from the observed ingest rate."""
        cfg = self.adaptive
        window = self._window_s if self._window_s is not None else self.commit_interval_s
        observed = n_samples / window
        if self._rate_ewma is None:
            self._rate_ewma = observed
        else:
            self._rate_ewma += cfg.smoothing * (observed - self._rate_ewma)
        if self._rate_ewma <= 0.0:
            desired = cfg.max_interval_s  # idle pipeline: widest interval
        else:
            desired = cfg.target_batch_samples / self._rate_ewma
        desired = min(max(desired, cfg.min_interval_s), cfg.max_interval_s)
        if desired != self.commit_interval_s:
            self.commit_interval_s = desired
            self.interval_adjustments += 1

    def _commit(self, samples: SampleBatch) -> None:
        n = len(samples)
        if n == 0:
            return
        self.store.append_batch(samples.series_ids, samples.times, samples.values)
        self.commits += 1
        self.samples_ingested += n
        # Lag accounting once per commit, against the *oldest* sample in
        # the batch — the worst-case end-to-end delay, not whichever
        # sample happened to be last in submission order.
        self.latest_arrival_lag = float(self.engine.now - samples.times.min())

    def stats(self) -> dict:
        return {
            "batches_received": float(self.batches_received),
            "commits": float(self.commits),
            "samples_ingested": float(self.samples_ingested),
            "latest_arrival_lag": self.latest_arrival_lag,
            "interval_adjustments": float(self.interval_adjustments),
            "dropped_batches": float(self.dropped_batches),
            "dropped_samples": float(self.dropped_samples),
            "dropped_bytes": float(self.dropped_bytes),
            "pending_samples": float(self._pending_samples),
        }


class Aggregator:
    """Intermediate hop: concatenates child batches, forwards after a delay.

    Submissions arriving while a forwarding window is open are merged
    and sent with one hop event per window, however many children fed
    it: child batches concatenate into a single downstream
    ``SampleBatch``, so a window emits at most one message.  ``loss_prob``
    drops whole child batches before they enter the window (network
    loss / agent crash); byte and message counters track both
    directions so loss accounting stays exact.
    """

    def __init__(
        self,
        engine: Engine,
        downstream,
        *,
        forward_latency: float = 0.05,
        loss_prob: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        max_pending_samples: Optional[int] = None,
        name: str = "aggregator",
    ) -> None:
        if forward_latency < 0:
            raise ValueError("forward_latency must be >= 0")
        if not 0.0 <= loss_prob <= 1.0:
            raise ValueError("loss_prob must be within [0, 1]")
        if loss_prob > 0 and rng is None:
            raise ValueError("rng required when loss_prob is set")
        if max_pending_samples is not None and max_pending_samples <= 0:
            raise ValueError("max_pending_samples must be positive when set")
        self.engine = engine
        self.downstream = downstream
        self.forward_latency = forward_latency
        self.loss_prob = loss_prob
        self.rng = rng
        self.name = name
        #: queue limit (samples) on the forwarding window — per-hop
        #: backpressure; ``None`` keeps the historical unbounded queue.
        self.max_pending_samples = max_pending_samples
        self.batches_received = 0
        self.batches_forwarded = 0
        self.batches_lost = 0
        self.bytes_forwarded = 0
        self.bytes_lost = 0
        self.samples_forwarded = 0
        self.samples_lost = 0
        self.dropped_batches = 0
        self.dropped_samples = 0
        self.dropped_bytes = 0
        self._pending: List[SampleBatch] = []
        self._pending_samples = 0
        self._flush_scheduled = False

    def submit(self, samples: SampleBatch) -> None:
        n = len(samples)
        if self.loss_prob > 0 and self.rng.random() < self.loss_prob:
            self.batches_lost += 1
            self.samples_lost += n
            self.bytes_lost += n * SAMPLE_WIRE_BYTES
            return
        if self.forward_latency <= 0:
            self.batches_received += 1
            self._forward([samples])
            return
        # Tail-drop backpressure (same rule as the root collector): a
        # full forwarding window bounces whole arriving submissions —
        # the drop counters are the hop's overload signal, distinct from
        # the random-loss counters above.
        if (
            self.max_pending_samples is not None
            and self._pending_samples >= self.max_pending_samples
        ):
            self.dropped_batches += 1
            self.dropped_samples += n
            self.dropped_bytes += n * SAMPLE_WIRE_BYTES
            return
        self.batches_received += 1
        self._pending.append(samples)
        self._pending_samples += n
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.engine.schedule(self.forward_latency, self._flush, label=self.name)

    def _flush(self) -> None:
        self._flush_scheduled = False
        pending, self._pending = self._pending, []
        self._pending_samples = 0
        if pending:
            self._forward(pending)

    def stats(self) -> dict:
        return {
            "batches_received": float(self.batches_received),
            "batches_forwarded": float(self.batches_forwarded),
            "batches_lost": float(self.batches_lost),
            "samples_forwarded": float(self.samples_forwarded),
            "samples_lost": float(self.samples_lost),
            "bytes_forwarded": float(self.bytes_forwarded),
            "bytes_lost": float(self.bytes_lost),
            "dropped_batches": float(self.dropped_batches),
            "dropped_samples": float(self.dropped_samples),
            "dropped_bytes": float(self.dropped_bytes),
            "pending_samples": float(self._pending_samples),
        }

    def _forward(self, pending: List[SampleBatch]) -> None:
        merged = SampleBatch.concat(pending)
        self.batches_forwarded += 1
        self.samples_forwarded += len(merged)
        self.bytes_forwarded += len(merged) * SAMPLE_WIRE_BYTES
        self.downstream.submit(merged)


class CollectionPipeline:
    """Convenience builder for a two-level tree (rack aggregators → root).

    ``build(n_groups)`` returns one aggregator per group, all feeding the
    shared root collector.  Sampling groups attach to their aggregator.
    ``registry`` exposes the store's series-id intern table for wiring
    :class:`~repro.telemetry.sensor.SensorBank` producers.
    """

    def __init__(
        self,
        engine: Engine,
        store: TimeSeriesStore,
        *,
        hop_latency: float = 0.05,
        ingest_latency: float = 0.05,
        commit_interval_s: Optional[float] = None,
        adaptive_commit: Optional[AdaptiveCommitConfig] = None,
        loss_prob: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        max_pending_samples: Optional[int] = None,
        hop_max_pending_samples: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.root = Collector(
            engine,
            store,
            ingest_latency=ingest_latency,
            commit_interval_s=commit_interval_s,
            adaptive_commit=adaptive_commit,
            max_pending_samples=max_pending_samples,
        )
        self.hop_latency = hop_latency
        self.loss_prob = loss_prob
        self.rng = rng
        self.hop_max_pending_samples = hop_max_pending_samples
        self.aggregators: List[Aggregator] = []

    @property
    def registry(self):
        return self.root.store.registry

    def build(self, n_groups: int) -> List[Aggregator]:
        if n_groups <= 0:
            raise ValueError("n_groups must be positive")
        self.aggregators = [
            Aggregator(
                self.engine,
                self.root,
                forward_latency=self.hop_latency,
                loss_prob=self.loss_prob,
                rng=self.rng,
                max_pending_samples=self.hop_max_pending_samples,
                name=f"agg-{i}",
            )
            for i in range(n_groups)
        ]
        return self.aggregators

    @property
    def end_to_end_latency(self) -> float:
        """Nominal pipeline delay (hop + ingest), excluding sampling period."""
        return self.hop_latency + self.root.ingest_latency

    def total_bytes(self) -> int:
        return sum(a.bytes_forwarded for a in self.aggregators)

    def total_dropped_samples(self) -> int:
        """Samples dropped by backpressure anywhere in the tree."""
        return self.root.dropped_samples + sum(a.dropped_samples for a in self.aggregators)

    def stats(self) -> dict:
        """Tree-wide flow accounting, one nested dict per stage.

        Shaped for ``absorb_stats(METRICS, pipeline.stats(), "ingest")``:
        keys land as ``ingest.root.<k>`` and ``ingest.hops.<k>`` (hop
        counters summed across aggregators).
        """
        hops: dict = {}
        for agg in self.aggregators:
            for k, v in agg.stats().items():
                hops[k] = hops.get(k, 0.0) + v
        return {"root": self.root.stats(), "hops": hops}

"""Metrics registry — one taxonomy over the repro's scattered counters.

Before PR 9 every subsystem grew its own ``stats()`` dict with its own
flat names (``cache_hits``, ``pool_respawns_total``, ``fused_served``,
``standing_scan_fallbacks`` …) and every consumer (CLI ``--stats``,
supervisors, tests) re-merged them by hand.  The registry gives those
numbers one home:

* canonical dotted names — ``<namespace>.<key>`` (``cache.hits``,
  ``pool.respawns_total``, ``hub.fused_served``) with the legacy flat
  key kept as an **alias** so nothing downstream has to relearn names;
* three instrument kinds — :class:`Counter` (monotonic),
  :class:`Gauge` (last value), :class:`Histogram` (count/sum/min/max,
  enough for means and rates without bucket bookkeeping);
* ``absorb()`` — snapshot an existing ``stats()`` dict into gauges in
  one call, which is how the CLI unifies its output without every
  subsystem migrating off its dict;
* ``publish()`` — write a snapshot into a :class:`TimeSeriesStore` as
  ``obs_*`` series, so supervisors and standing queries can monitor the
  monitor with the same machinery they use on the fleet (the DCDB
  Wintermute pattern of a monitoring system observing itself).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "METRICS"]


class Counter:
    """Monotonic count of events (resets only with the registry)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last observed value of a quantity that can go either way."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming count/sum/min/max — means without bucket bookkeeping."""

    __slots__ = ("name", "count", "sum", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Named instruments plus legacy-alias bookkeeping."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._aliases: Dict[str, str] = {}  # canonical -> legacy flat key

    # -- instruments -----------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._aliases.clear()

    # -- absorption of legacy stats() dicts ------------------------------
    def absorb(self, namespace: str, stats: Mapping[str, Any],
               *, strip_prefix: str = "") -> None:
        """Snapshot a subsystem ``stats()`` dict into namespaced gauges.

        ``strip_prefix`` handles dicts whose keys already carry a flat
        namespace (``cache_hits`` under ``cache`` → ``cache.hits``); the
        original flat key is remembered as the alias either way.  Nested
        dicts recurse with a dotted sub-namespace; non-numeric values
        are skipped (a stats dict may carry strings or lists).
        """
        for key, value in stats.items():
            if isinstance(value, Mapping):
                self.absorb(f"{namespace}.{key}", value)
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            short = key
            if strip_prefix and short.startswith(strip_prefix):
                short = short[len(strip_prefix):]
            canonical = f"{namespace}.{short}"
            self.gauge(canonical).set(value)
            if key != short:
                self._aliases.setdefault(canonical, key)

    def record(self, canonical: str, value: Any, *,
               alias: Optional[str] = None) -> None:
        """Set one gauge under its canonical name, remembering the
        legacy flat key when it differs (non-numeric values skipped)."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        self.gauge(canonical).set(value)
        if alias and alias != canonical.rsplit(".", 1)[-1]:
            self._aliases.setdefault(canonical, alias)

    def alias_of(self, canonical: str) -> Optional[str]:
        return self._aliases.get(canonical)

    # -- readout ---------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """All current values under canonical names, sorted."""
        out: Dict[str, float] = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, g in self._gauges.items():
            out[name] = g.value
        for name, h in self._histograms.items():
            out[f"{name}.count"] = float(h.count)
            out[f"{name}.sum"] = h.sum
            if h.count:
                out[f"{name}.mean"] = h.mean
                out[f"{name}.max"] = h.max
        return dict(sorted(out.items()))

    def render(self, *, prefix: str = "") -> List[str]:
        """Sorted ``name = value  [legacy_alias]`` lines for the CLI."""
        lines = []
        for name, value in self.snapshot().items():
            if prefix and not name.startswith(prefix):
                continue
            alias = self._aliases.get(name)
            suffix = f"  [{alias}]" if alias else ""
            lines.append(f"{name} = {value:g}{suffix}")
        return lines

    # -- self-publication into the store ---------------------------------
    def publish(self, store, at: float, *,
                prefix: str = "obs") -> List[Tuple[str, float]]:
        """Write the snapshot into ``store`` as ``obs_*`` series.

        Canonical dots become underscores (``cache.hits`` →
        ``obs_cache_hits``) — the store's label-free self-telemetry
        convention (mirrors the runtime's ``loop_*`` series).  One
        ``store.insert_many`` commits the whole snapshot.  Returns the
        (series_name, value) pairs written, for tests and the CLI.
        """
        from repro.telemetry.metric import SeriesKey

        written: List[Tuple[str, float]] = [
            (f"{prefix}_{name.replace('.', '_')}", value)
            for name, value in self.snapshot().items()
        ]
        store.insert_many(
            [SeriesKey.of(series) for series, _ in written],
            [float(at)] * len(written),
            [float(value) for _, value in written],
        )
        return written


#: Process-wide registry (the CLI/runtime default; tests may make their own).
METRICS = MetricsRegistry()

"""Series identity.

A *series* is one labelled instance of a metric (e.g. ``node_power_watts``
on ``node=n012``).  ``SeriesKey`` is the hashable identity used throughout
the TSDB and the collection pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class SeriesKey:
    """Identity of one time series: metric name plus sorted label pairs."""

    metric: str
    labels: Tuple[Tuple[str, str], ...] = ()

    @staticmethod
    def of(metric: str, **labels: str) -> "SeriesKey":
        """Convenience constructor: ``SeriesKey.of("power", node="n01")``."""
        return SeriesKey(metric, tuple(sorted((k, str(v)) for k, v in labels.items())))

    def label(self, key: str) -> Optional[str]:
        """Value of one label, or ``None`` if absent."""
        for k, v in self.labels:
            if k == key:
                return v
        return None

    def with_labels(self, **extra: str) -> "SeriesKey":
        """A new key with additional/overridden labels."""
        merged: Dict[str, str] = dict(self.labels)
        merged.update({k: str(v) for k, v in extra.items()})
        return SeriesKey.of(self.metric, **merged)

    def __str__(self) -> str:
        if not self.labels:
            return self.metric
        inner = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{self.metric}{{{inner}}}"

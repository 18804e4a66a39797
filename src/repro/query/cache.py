"""LRU result cache for the query engine.

Dashboards and autonomy loops re-issue the same handful of expressions
on a fixed cadence; caching keyed on the *canonical* expression plus a
**quantized** evaluation window turns that steady state into pure hits.
Windows are quantized to the query step (instant queries to
``instant_quantum_s``), so two evaluations issued within the same
quantum share an entry.  Staleness is bounded by **version-keying**:
the engine passes the store's per-metric write epoch into
:meth:`QueryCache.make_key`, so the moment new samples for a metric
commit, every subsequent evaluation misses the pre-commit entries and
recomputes — a cached result can never hide data that has already
landed inside its window.

Cached arrays are frozen (``writeable = False``) so one consumer cannot
corrupt another's hit.  Every operation holds the cache's own lock, so
a reader on one thread may probe while another thread stores and evicts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, Tuple


class QueryCache:
    """Bounded LRU of query results with hit/miss accounting.

    The engine's cache is the read path's only result cache — the loops'
    hub and the front door's submit-time probe both read it — so its
    default reach is what a dashboard mix needs between two re-reads of
    a key while ad-hoc answers stream through.
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def make_key(
        expr: str, t0: float, t1: float, quantum: float, version: Hashable = 0
    ) -> Tuple[str, int, int, Hashable]:
        """Cache key: canonical expression + quantized window + data version.

        ``version`` is the writer-side version of the queried data —
        the store's per-metric write epoch, extended by the engine with
        the rollup fold counter for fold-dependent results; any bump
        invalidates every earlier entry for the expression without an
        explicit purge.
        """
        q = quantum if quantum > 0 else 1.0
        return (expr, int(t0 // q), int(t1 // q), version)

    def get(self, key: Hashable):
        entry = self.probe(key)
        if entry is None:
            with self._lock:
                self.misses += 1
        return entry

    def probe(self, key: Hashable):
        """Like :meth:`get`, but a miss goes uncounted — for a lookup
        whose miss leads to a :meth:`get` of the same key."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            return entry

    def put(self, key: Hashable, result) -> None:
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self) -> None:
        """Drop every entry (e.g. after bulk backfill into the store)."""
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "entries": float(len(self._entries)),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "hit_rate": self.hit_rate,
        }

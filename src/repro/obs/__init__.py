"""Observability layer (PR 9): span tracing, metrics, flight recording.

Three pieces, one import surface:

* :data:`TRACER` — process-wide span tracer with a bounded ring and
  cross-process parent propagation (:mod:`repro.obs.trace`).  Hot call
  sites guard on ``TRACER.enabled`` so disabled tracing is a no-op shim
  (priced ≤2% by E20).
* :data:`METRICS` — the metrics registry that absorbs subsystem
  ``stats()`` dicts under one dotted taxonomy and can publish ``obs_*``
  series back into the store (:mod:`repro.obs.metrics`).
* :data:`FLIGHT` — the flight recorder that snapshots the recent span
  ring when a supervisor intervenes (:mod:`repro.obs.flight`).

:func:`collect_metrics` is the one-call bridge from a live stack
(engine / hub / runtime / standing / pool) into the registry — it knows
how every legacy flat ``stats()`` key maps onto the dotted taxonomy and
keeps the flat key as an alias, which is how the CLI ``--stats`` paths
unified without any subsystem migrating off its dict.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Tuple

from repro.obs.flight import FLIGHT, FlightRecorder
from repro.obs.metrics import (
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import TRACER, Span, Tracer

__all__ = [
    "TRACER", "Tracer", "Span",
    "METRICS", "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "FLIGHT", "FlightRecorder",
    "collect_metrics", "absorb_stats", "route_stat",
]

# -- legacy flat key → dotted taxonomy routing -------------------------------
#
# Every subsystem grew its own flat names (``cache_hits``,
# ``pool_respawns_total``, ``fanout_mean`` …) and the merging containers
# (engine → hub → runtime) re-prefix what they embed.  ``route_stat``
# undoes all of that: given a flat key and the dict it came from, it
# returns the canonical ``(namespace, short_name)``.

#: QueryHub counters that *look* like merged standing keys but are the
#: hub's own (``standing_served`` counts hub queries answered from
#: standing state; the standing engine's own counters arrive prefixed).
_HUB_OWN = frozenset({
    "fused_served", "direct_served", "standing_served",
    "fuse_overrides", "shapes_tracked",
})

#: Unprefixed federated/parallel engine keys that deserve their own
#: namespaces rather than landing in ``engine.*``.
_KEY_ROUTES = {
    "shards": "federation",
    "federated_queries": "federation",
    "fanout_total": "federation",
    "fanout_mean": "federation",
    "serial_fallbacks": "parallel",
    "inline_by_size": "parallel",
    "serial_appends": "parallel",
    "cols_forwarded_rows": "parallel",
    "cols_dropped_rows": "parallel",
    "cols_flushes": "parallel",
}

_LEAF_ROUTES = (
    ("cache_", "cache"),
    ("rollup_", "rollup"),
    ("pool_", "pool"),
    ("parallel_", "parallel"),
    ("standing_", "standing"),
    ("arbiter_", "arbiter"),
)


def route_stat(key: str, origin: str = "engine") -> Tuple[str, str]:
    """Canonical ``(namespace, short)`` for one legacy flat stats key.

    ``origin`` names the dict the key came from (``engine`` | ``hub`` |
    ``runtime`` | a literal namespace for un-merged dicts like ``pool``
    or ``standing``).
    """
    if origin == "runtime":
        if key.startswith("hub_"):
            return route_stat(key[len("hub_"):], "hub")
        if key.startswith("arbiter_"):
            return "arbiter", key[len("arbiter_"):]
        return "runtime", key
    if origin == "hub":
        if key in _HUB_OWN:
            return "hub", key
        if key.startswith("standing_"):
            return "standing", key[len("standing_"):]
        if key.startswith("engine_"):
            return route_stat(key[len("engine_"):], "engine")
        return "hub", key
    if origin == "engine":
        ns = _KEY_ROUTES.get(key)
        if ns is not None:
            return ns, key
        for prefix, leaf_ns in _LEAF_ROUTES:
            if key.startswith(prefix):
                return leaf_ns, key[len(prefix):]
        return "engine", key
    return origin, key


def absorb_stats(reg: MetricsRegistry, stats: Mapping[str, Any],
                 origin: str) -> None:
    """Absorb one flat legacy ``stats()`` dict (or benchmark row) into
    ``reg`` under canonical names, keeping flat keys as aliases."""
    for key, value in stats.items():
        if isinstance(value, Mapping):
            for sub, sub_value in value.items():
                ns, short = route_stat(key, origin)
                reg.record(f"{ns}.{short}.{sub}", sub_value)
            continue
        ns, short = route_stat(key, origin)
        reg.record(f"{ns}.{short}", value, alias=key if key != short else None)


def collect_metrics(
    *,
    engine: Optional[Any] = None,
    hub: Optional[Any] = None,
    runtime: Optional[Any] = None,
    standing: Optional[Any] = None,
    pool: Optional[Any] = None,
    serve: Optional[Any] = None,
    ingest: Optional[Any] = None,
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Absorb every reachable ``stats()`` dict into one registry.

    Pass whichever handles exist; overlapping sources are fine (the hub
    embeds engine stats, the runtime embeds both) — later absorptions
    just refresh the same canonical gauges.
    """
    reg = registry if registry is not None else METRICS
    if engine is not None:
        absorb_stats(reg, engine.stats(), "engine")
    if hub is not None:
        absorb_stats(reg, hub.stats(), "hub")
    if runtime is not None:
        absorb_stats(reg, runtime.stats(), "runtime")
    if standing is not None:
        absorb_stats(reg, standing.stats(), "standing")
    if pool is not None:
        absorb_stats(reg, pool.stats(), "pool")
    if serve is not None:
        absorb_stats(reg, serve.stats(), "serve")
    if ingest is not None:
        absorb_stats(reg, ingest.stats(), "ingest")
    return reg

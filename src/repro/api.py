"""The one public surface: ``repro.api.Client``.

Everything outside the package (notebooks, dashboards, the CLI, the
experiment drivers) talks to a simulated cluster through a
:class:`Client` — a thin facade that wires a
:class:`~repro.cluster.Cluster`, the memoized query engine for its store
shape, and a :class:`~repro.serve.QueryFrontDoor` into one object with a
stable import path::

    from repro.api import Client, ClusterConfig, QueryRequest, TenantSpec

    with Client.from_config(ClusterConfig(n_nodes=32, shards=4)) as client:
        client.run(until=600.0)
        r = client.query("mean(node_cpu_util[300s] by 30s)")
        print(r.status, r.source, r.scalar())

Every read goes through the front door, so external traffic always gets
admission control, deadline handling, the typed
:class:`~repro.serve.QueryRequest`/:class:`~repro.serve.QueryResult`
boundary, and the serving fast paths (the engine's result cache, the
standing engine).  The raw engine stays reachable as :attr:`Client.engine` for
code that needs engine-level semantics (loop wiring, property tests) —
that is an intentional escape hatch, not the public path.

Deprecated-but-working older entry points (``Cluster.query_engine()``,
per-command engine construction in the CLI) now warn once and delegate
to the same internals; see the README migration note.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.cluster import Cluster, ClusterConfig
from repro.obs import METRICS, TRACER, MetricsRegistry, collect_metrics
from repro.serve import QueryFrontDoor, QueryRequest, QueryResult, ShedConfig, TenantSpec
from repro.sim.engine import Engine

__all__ = [
    "Client",
    "ClusterConfig",
    "QueryFrontDoor",
    "QueryRequest",
    "QueryResult",
    "ShedConfig",
    "TenantSpec",
]

#: rollup cascade a client builds by default (finest → coarsest); matches
#: the resolutions the experiments standardized on
DEFAULT_ROLLUP_RESOLUTIONS: Tuple[float, ...] = (10.0, 60.0, 600.0)

#: the implicit tenant every client can serve without configuration
DEFAULT_TENANT = TenantSpec("default", qps=1000.0, max_inflight=8, queue_depth=256)


def _attach_rollup_fold(engine, sim: Engine) -> None:
    """Drive rollup folding from the simulation clock (idempotent).

    Without a fold task the tiers stay empty and the degrade ladder
    would silently serve empty coarse answers.
    """
    try:
        engine.attach_rollups(sim)
    except RuntimeError:
        pass  # an earlier client over the same cluster already attached


class Client:
    """Public facade over a cluster, its query engine, and the front door."""

    def __init__(
        self,
        cluster: Cluster,
        front_door: QueryFrontDoor,
        *,
        owns_cluster: bool = False,
    ) -> None:
        self.cluster = cluster
        self.front_door = front_door
        self.engine = front_door.engine
        self._owns_cluster = owns_cluster
        front_door.start()

    # ---------------------------------------------------------- constructors
    @classmethod
    def from_config(
        cls,
        config: Optional[ClusterConfig] = None,
        *,
        sim: Optional[Engine] = None,
        tenants: Iterable[TenantSpec] = (),
        rollup_resolutions: Optional[Tuple[float, ...]] = DEFAULT_ROLLUP_RESOLUTIONS,
        shed: Optional[ShedConfig] = None,
        n_workers: int = 1,
    ) -> "Client":
        """Build a cluster from ``config`` and serve it.

        Creates the simulation engine too unless one is passed; the
        cluster is owned by the client and released by :meth:`close`.
        """
        sim = sim if sim is not None else Engine()
        cluster = Cluster(sim, config)
        return cls.from_cluster(
            cluster,
            tenants=tenants,
            rollup_resolutions=rollup_resolutions,
            shed=shed,
            n_workers=n_workers,
            owns_cluster=True,
        )

    @classmethod
    def from_cluster(
        cls,
        cluster: Cluster,
        *,
        tenants: Iterable[TenantSpec] = (),
        rollup_resolutions: Optional[Tuple[float, ...]] = DEFAULT_ROLLUP_RESOLUTIONS,
        shed: Optional[ShedConfig] = None,
        n_workers: int = 1,
        owns_cluster: bool = False,
    ) -> "Client":
        """Serve an existing (possibly already-running) cluster."""
        engine = cluster._query_engine(rollup_resolutions=rollup_resolutions)
        if rollup_resolutions is not None:
            _attach_rollup_fold(engine, cluster.engine)
        tenants = list(tenants)
        if not any(t.name == DEFAULT_TENANT.name for t in tenants):
            tenants.append(DEFAULT_TENANT)
        front_door = QueryFrontDoor(
            engine,
            tenants=tenants,
            shed=shed,
            n_workers=n_workers,
            default_at=lambda: cluster.engine.now,
        )
        return cls(cluster, front_door, owns_cluster=owns_cluster)

    # --------------------------------------------------------------- serving
    def query(
        self,
        query,
        *,
        tenant: str = "default",
        at: Optional[float] = None,
        deadline_ms: Optional[float] = None,
        priority: Optional[int] = None,
    ) -> QueryResult:
        """Serve one query synchronously through the front door."""
        return self.front_door.serve(
            QueryRequest(query, tenant=tenant, at=at, deadline_ms=deadline_ms,
                         priority=priority)
        )

    def query_async(
        self,
        query,
        *,
        tenant: str = "default",
        at: Optional[float] = None,
        deadline_ms: Optional[float] = None,
        priority: Optional[int] = None,
    ):
        """Submit without blocking; returns a future of the result."""
        return self.front_door.submit(
            QueryRequest(query, tenant=tenant, at=at, deadline_ms=deadline_ms,
                         priority=priority)
        )

    def samples(
        self, query, *, at: Optional[float] = None, since: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Raw sample extraction (no binning), engine-lock protected."""
        if at is None:
            at = self.cluster.engine.now
        with self.front_door.write_gate():
            return self.engine.samples(query, at=at, since=since)

    def add_tenant(self, spec: TenantSpec) -> None:
        self.front_door.add_tenant(spec)

    # ------------------------------------------------------------ simulation
    def run(self, until: float) -> float:
        """Advance the simulation under the serving write gate."""
        with self.front_door.write_gate():
            return self.cluster.run(until)

    @property
    def now(self) -> float:
        return self.cluster.engine.now

    # --------------------------------------------------------------- readout
    def stats(self) -> Dict[str, object]:
        """Serving + engine counters in one nested dict."""
        return {"serve": self.front_door.stats(), "engine": self.engine.stats()}

    def metrics(self, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """Absorb serving + engine + runtime stats into a metrics registry."""
        reg = registry if registry is not None else METRICS
        collect_metrics(engine=self.engine, serve=self.front_door, registry=reg)
        if self.front_door.standing is not None:
            collect_metrics(standing=self.front_door.standing, registry=reg)
        self.cluster.collect_metrics(registry=reg)
        return reg

    def trace(self, *, enable: Optional[bool] = None) -> List:
        """Toggle tracing and/or read the recent span ring.

        ``trace(enable=True)`` turns the process tracer on,
        ``trace(enable=False)`` off; either way the currently buffered
        spans are returned.
        """
        if enable is True:
            TRACER.enable()
        elif enable is False:
            TRACER.disable()
        return TRACER.spans()

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        self.front_door.stop()
        if self._owns_cluster:
            self.cluster.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
